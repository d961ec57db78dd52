package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/sigtree"
)

// adaptOptions is testOptions with the lifecycle attached at unit-test
// scale (no timer, short windows, a gate every candidate passes), a
// checkpoint and a spool in a temp dir, and stage clocks on every message,
// so each verdict's score lands in the span ring.
func adaptOptions(t *testing.T) Options {
	o := testOptions(t)
	o.Lifecycle = &lifecycle.Config{GateBudget: 1, WindowLen: 8, SpoolPerCluster: 64, MinWindows: 4}
	dir := t.TempDir()
	o.Checkpoint = filepath.Join(dir, "monitor.nfvc")
	o.Spool = filepath.Join(dir, "lifecycle.nfvs")
	o.SpanSample, o.SpanBuffer = 1, 2048
	return o
}

// traffic scores n messages from three vPEs, starting at at: the cyclic
// corpus, with a burst of unseen messages on one vPE every 200 messages.
// It returns the time after the last message.
func traffic(s *Stack, n int, at time.Time) time.Time {
	for i := 0; i < n; i++ {
		s.Monitor.HandleMessage(trafficMessage(i, at))
		at = at.Add(3 * time.Second)
	}
	return at
}

// trafficMessage is traffic's i-th message, at at.
func trafficMessage(i int, at time.Time) logfmt.Message {
	hosts := []string{"vpe01", "vpe02", "vpe03"}
	host := hosts[i%len(hosts)]
	text := normalTexts[(i/len(hosts))%len(normalTexts)]
	if k := i % 200; k >= 190 {
		host = hosts[(i/200)%len(hosts)]
		text = fmt.Sprintf("unexpected fabric drop alarm code %d on plane %d", k, i/200)
	}
	return logfmt.Message{Time: at, Host: host, Tag: "rpd", Text: text}
}

// verdicts returns the newest n decision spans, newest first, keeping only
// the verdict: host, template, score, anomaly and warning.
func verdicts(s *Stack, n int) []obs.Span {
	spans := s.Spans.Query(obs.SpanQuery{N: n, Kind: obs.KindDecision})
	for i, sp := range spans {
		spans[i] = obs.Span{Host: sp.Host, Template: sp.Template, Score: sp.Score,
			Anomalous: sp.Anomalous, Warning: sp.Warning}
	}
	return spans
}

// servedFingerprints reads GET /models: the serving generation's
// per-cluster detector fingerprints.
func servedFingerprints(t *testing.T, s *Stack) []uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.AdminMux(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/models", nil))
	var view struct {
		Clusters []struct {
			Fingerprint uint64 `json:"fingerprint"`
		} `json:"clusters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("GET /models: %v: %s", err, rec.Body.String())
	}
	var fps []uint64
	for _, c := range view.Clusters {
		fps = append(fps, c.Fingerprint)
	}
	return fps
}

// TestRestartKeepsPromotedGeneration is the restart contract across a
// promotion: adapt, force a promotion, checkpoint, and build a second
// stack over the same options. It serves the promoted weights, and the
// next 1000 messages score bit for bit as on the stack that never stopped.
func TestRestartKeepsPromotedGeneration(t *testing.T) {
	o := adaptOptions(t)
	origFP := o.Bundle.Detectors[0].Fingerprint()
	live := newStack(t, o)
	at := traffic(live, 300, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if res := live.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	at = traffic(live, 100, at) // streams now run under the promoted weights
	if err := live.Checkpoint("test"); err != nil {
		t.Fatal(err)
	}
	want := servedFingerprints(t, live)
	if len(want) != 1 || want[0] == origFP {
		t.Fatalf("promotion did not change the served weights: %x", want)
	}

	restarted := newStack(t, o)
	if restarted.RestoredAt.IsZero() {
		t.Fatal("checkpoint on disk was not restored")
	}
	if got := servedFingerprints(t, restarted); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart serves %x, the live stack %x", got, want)
	}
	if restarted.ModelFile != o.Checkpoint+".model" {
		t.Fatalf("ModelFile = %q", restarted.ModelFile)
	}

	traffic(live, 1000, at)
	traffic(restarted, 1000, at)
	lv, rv := verdicts(live, 1000), verdicts(restarted, 1000)
	if len(lv) != 1000 || len(rv) != 1000 {
		t.Fatalf("span rings hold %d and %d verdicts", len(lv), len(rv))
	}
	for i := range lv {
		if math.Float64bits(lv[i].Score) != math.Float64bits(rv[i].Score) || lv[i] != rv[i] {
			t.Fatalf("verdict %d after the restart differs:\n live      %+v\n restarted %+v", i, lv[i], rv[i])
		}
	}
	lw, rw := live.Monitor.Warnings(), restarted.Monitor.Warnings()
	if len(lw) == 0 || !reflect.DeepEqual(lw, rw) {
		t.Fatalf("warnings differ: live %d, restarted %d", len(lw), len(rw))
	}
	var lc, rc bytes.Buffer
	if err := live.Monitor.Checkpoint(&lc); err != nil {
		t.Fatal(err)
	}
	if err := restarted.Monitor.Checkpoint(&rc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lc.Bytes(), rc.Bytes()) {
		t.Fatal("the restarted monitor's state diverged from the live one's")
	}
}

// otherBundle trains a model of another lineage than testOptions': fewer
// epochs, over a corpus with one more template.
func otherBundle(t *testing.T) *bundle.Bundle {
	t.Helper()
	tree := sigtree.New()
	texts := append([]string{"chassis alarm cleared on slot 3 after 4 seconds"}, normalTexts...)
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		tpl := tree.Learn(texts[i%len(texts)])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden, cfg.MaxVocab, cfg.Epochs, cfg.OverSampleRounds = []int{16}, 16, 3, 0
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	return &bundle.Bundle{Tree: tree, Detectors: []*detect.LSTMDetector{det}, Threshold: 4}
}

// promoteAndCheckpoint runs a live stack over o, forces a promotion and
// checkpoints it. It returns the promoted weights'
// fingerprints and the bytes of the generation saved beside the
// checkpoint. The live stack is closed at the end of the test.
func promoteAndCheckpoint(t *testing.T, o Options) ([]uint64, []byte) {
	t.Helper()
	live := newStack(t, o)
	traffic(live, 300, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if res := live.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	traffic(live, 100, time.Date(2018, 3, 2, 0, 0, 0, 0, time.UTC))
	if err := live.Checkpoint("test"); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(o.Checkpoint + ".model")
	if err != nil {
		t.Fatalf("no generation saved beside the checkpoint: %v", err)
	}
	return servedFingerprints(t, live), saved
}

// TestRedeployColdStarts is the redeploy rule: a restart given a bundle
// of another lineage quarantines the generation saved beside the
// checkpoint and the checkpoint (its streams ran under other weights) and
// serves the new bundle cold. A retrained bundle is of another lineage
// even when it grew the same tree.
func TestRedeployColdStarts(t *testing.T) {
	for _, c := range []struct {
		name     string
		sameTree bool
		bundle   func(*testing.T) *bundle.Bundle
	}{
		{"other tree", false, otherBundle},
		{"same tree, other weights", true, func(t *testing.T) *bundle.Bundle { return trainedBundle(t, 3) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := adaptOptions(t)
			treeFP := o.Bundle.Tree.Fingerprint()
			_, saved := promoteAndCheckpoint(t, o)

			redeploy := o
			redeploy.Bundle = c.bundle(t)
			if same := redeploy.Bundle.Tree.Fingerprint() == treeFP; same != c.sameTree {
				t.Fatalf("redeployed tree is the served one: %v, want %v", same, c.sameTree)
			}
			newFP := redeploy.Bundle.Detectors[0].Fingerprint()
			s := newStack(t, redeploy)
			if s.ModelFile != "" || s.Serving().Detectors[0].Fingerprint() != newFP {
				t.Fatalf("a bundle of another lineage did not win: ModelFile=%q", s.ModelFile)
			}
			if got := servedFingerprints(t, s); len(got) != 1 || got[0] != newFP {
				t.Fatalf("/models serves %x, want %x", got, newFP)
			}
			if msgs, _ := s.Monitor.Counters(); !s.RestoredAt.IsZero() || msgs != 0 {
				t.Fatalf("checkpoint of other weights was restored: restored=%v msgs=%d", s.RestoredAt, msgs)
			}
			if _, err := os.Stat(o.Checkpoint + ".corrupt"); err != nil {
				t.Fatalf("checkpoint of other weights was not quarantined: %v", err)
			}
			if _, err := os.Stat(o.Checkpoint + ".model"); !os.IsNotExist(err) {
				t.Fatalf("the generation of another lineage is still beside the checkpoint: %v", err)
			}
			if q, err := os.ReadFile(o.Checkpoint + ".model.corrupt"); err != nil || !bytes.Equal(q, saved) {
				t.Fatalf("the generation of another lineage was not quarantined: %v", err)
			}
			traffic(s, 50, time.Date(2018, 3, 3, 0, 0, 0, 0, time.UTC))
			if msgs, _ := s.Monitor.Counters(); msgs != 50 {
				t.Fatalf("cold-started stack does not serve: %d messages", msgs)
			}
		})
	}
}

// TestRevertAfterRedeployServesOwnWeights: bundle A promotes and
// checkpoints, a restart runs bundle B, and a restart back on A serves A's
// own weights. The generation A promoted does not outlive B's deployment.
func TestRevertAfterRedeployServesOwnWeights(t *testing.T) {
	o := adaptOptions(t)
	a := o.Bundle
	ownFP := a.Detectors[0].Fingerprint()
	promoted, _ := promoteAndCheckpoint(t, o)
	if len(promoted) != 1 || promoted[0] == ownFP {
		t.Fatalf("promotion did not change the served weights: %x", promoted)
	}

	onB := o
	onB.Bundle = otherBundle(t)
	b := newStack(t, onB)
	traffic(b, 50, time.Date(2018, 3, 3, 0, 0, 0, 0, time.UTC))
	if err := b.Checkpoint("test"); err != nil {
		t.Fatal(err)
	}

	back := newStack(t, o)
	if back.ModelFile != "" {
		t.Fatalf("reverting to A serves the saved generation %q", back.ModelFile)
	}
	if got := servedFingerprints(t, back); len(got) != 1 || got[0] != ownFP {
		t.Fatalf("reverting to A serves %x, want A's own %x (promoted was %x)", got, ownFP, promoted)
	}
}

// TestRestartKeepsOperatorThreshold: serving the generation saved beside
// the checkpoint takes its detectors, not its threshold. A restart given
// another threshold scores at that one.
func TestRestartKeepsOperatorThreshold(t *testing.T) {
	o := adaptOptions(t)
	promoteAndCheckpoint(t, o)

	restart := o
	restart.Bundle = o.Bundle.Clone()
	restart.Bundle.Threshold = 7
	s := newStack(t, restart)
	if s.ModelFile == "" || s.RestoredAt.IsZero() {
		t.Fatalf("restart did not serve the saved generation: ModelFile=%q", s.ModelFile)
	}
	if got := s.Monitor.Threshold(); got != 7 {
		t.Fatalf("monitor threshold %v after a restart at 7", got)
	}
	if got := s.Serving().Threshold; got != 7 {
		t.Fatalf("serving generation threshold %v after a restart at 7", got)
	}
}
