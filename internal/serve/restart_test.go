package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/sigtree"
)

// adaptOptions is testOptions with the lifecycle attached at unit-test
// scale (no timer, short windows, a gate every candidate passes), a
// checkpoint in a temp dir, and stage clocks on every message, so each
// verdict's score lands in the span ring.
func adaptOptions(t testing.TB) Options {
	o := testOptions(t)
	o.Lifecycle = &lifecycle.Config{GateBudget: 1, WindowLen: 8, SpoolPerCluster: 64, MinWindows: 4}
	o.Checkpoint = filepath.Join(t.TempDir(), "monitor.nfvc")
	o.SpanSample, o.SpanBuffer = 1, 2048
	return o
}

// traffic scores n messages from eight vPEs, starting at at: the cyclic
// corpus, with a burst of unseen messages on one vPE every 200 messages.
// It returns the time after the last message.
func traffic(s *Stack, n int, at time.Time) time.Time {
	for i := 0; i < n; i++ {
		s.Monitor.HandleMessage(trafficMessage(i, at))
		at = at.Add(3 * time.Second)
	}
	return at
}

// trafficTrace is traffic's first n messages from 2018-03-01, 3 s apart.
func trafficTrace(n int) []logfmt.Message {
	msgs := make([]logfmt.Message, n)
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := range msgs {
		msgs[i] = trafficMessage(i, at)
		at = at.Add(3 * time.Second)
	}
	return msgs
}

// trafficMessage is traffic's i-th message, at at.
func trafficMessage(i int, at time.Time) logfmt.Message {
	host := fmt.Sprintf("vpe%02d", 1+i%8)
	text := normalTexts[(i/8)%len(normalTexts)]
	if k := i % 200; k >= 190 {
		host = fmt.Sprintf("vpe%02d", 1+(i/200)%8)
		text = fmt.Sprintf("unexpected fabric drop alarm code %d on plane %d", k, i/200)
	}
	return logfmt.Message{Time: at, Host: host, Tag: "rpd", Text: text}
}

// servedFingerprints reads GET /models: the serving generation's
// per-cluster detector fingerprints.
func servedFingerprints(t *testing.T, s *Stack) []uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.AdminMux().ServeHTTP(rec, httptest.NewRequest("GET", "/models", nil))
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
// checkpoints it. It returns the promoted weights' fingerprints. The live
// stack is closed at the end of the test.
func promoteAndCheckpoint(t *testing.T, o Options) []uint64 {
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
	return servedFingerprints(t, live)
}

// TestRedeployColdStarts is the redeploy rule: a restart given a bundle
// of another lineage quarantines the checkpoint (its generation descends
// from another bundle) and serves the new bundle cold. A retrained bundle is of another lineage
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
			promoteAndCheckpoint(t, o)

			redeploy := o
			redeploy.Bundle = c.bundle(t)
			if same := redeploy.Bundle.Tree.Fingerprint() == treeFP; same != c.sameTree {
				t.Fatalf("redeployed tree is the served one: %v, want %v", same, c.sameTree)
			}
			newFP := redeploy.Bundle.Detectors[0].Fingerprint()
			s := newStack(t, redeploy)
			if s.Serving().Source != "" || s.Serving().Detectors[0].Fingerprint() != newFP {
				t.Fatalf("a bundle of another lineage did not win: Source=%q", s.Serving().Source)
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
	promoted := promoteAndCheckpoint(t, o)
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
	if back.Serving().Source != "" {
		t.Fatalf("reverting to A serves the saved generation %q", back.Serving().Source)
	}
	if got := servedFingerprints(t, back); len(got) != 1 || got[0] != ownFP {
		t.Fatalf("reverting to A serves %x, want A's own %x (promoted was %x)", got, ownFP, promoted)
	}
}

// TestRestartKeepsOperatorThreshold: serving the generation the
// checkpoint carries takes its detectors, not its threshold. A restart given
// another threshold scores at that one.
func TestRestartKeepsOperatorThreshold(t *testing.T) {
	o := adaptOptions(t)
	promoteAndCheckpoint(t, o)

	restart := o
	restart.Bundle = o.Bundle.Clone()
	restart.Bundle.Threshold = 7
	s := newStack(t, restart)
	if s.Serving().Source == "" || s.RestoredAt.IsZero() {
		t.Fatalf("restart did not serve the saved generation: Source=%q", s.Serving().Source)
	}
	if got := s.Monitor.Threshold(); got != 7 {
		t.Fatalf("monitor threshold %v after a restart at 7", got)
	}
	if got := s.Serving().Threshold; got != 7 {
		t.Fatalf("serving generation threshold %v after a restart at 7", got)
	}
}

// clusterModels reads GET /models: each cluster's served detector
// fingerprint and drift reference.
func clusterModels(t *testing.T, s *Stack) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.AdminMux().ServeHTTP(rec, httptest.NewRequest("GET", "/models", nil))
	var view struct {
		Clusters json.RawMessage `json:"clusters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("GET /models: %v: %s", err, rec.Body.String())
	}
	return string(view.Clusters)
}

// TestCheckpointUnderTraffic: a checkpoint taken while traffic keeps
// scoring, a slow checkpoint.write holding its write window open while
// the tree learns, restarts with the spool windows, drift references and
// served weights the live stack had at the cut, and with no message
// scored after it.
func TestCheckpointUnderTraffic(t *testing.T) {
	o := adaptOptions(t)
	o.Faults = faultinject.NewRegistry()
	live := newStack(t, o)
	at := traffic(live, 300, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if res := live.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	at = traffic(live, 300, at) // the spool refills under the promoted weights
	spool := live.Lifecycle.Status().SpoolWindows
	models := clusterModels(t, live)
	if spool[0] == 0 {
		t.Fatal("no windows spooled")
	}
	before, _ := live.Monitor.Counters()

	if err := o.Faults.Arm("checkpoint.write", faultinject.Arming{Mode: faultinject.ModeSlow, Delay: 300 * time.Millisecond, Count: 1}); err != nil {
		t.Fatal(err)
	}
	// One message a millisecond, each from a vPE not seen before, so no
	// spool window completes; every one moves the tree.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			live.Monitor.HandleMessage(logfmt.Message{Time: at, Host: fmt.Sprintf("edge%03d", i), Tag: "rpd",
				Text: fmt.Sprintf("line card %d reported condition %d", i%7, i)})
			time.Sleep(time.Millisecond)
		}
	}()
	err := live.Checkpoint("test")
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	after, _ := live.Monitor.Counters()
	if got := live.Lifecycle.Status().SpoolWindows; !reflect.DeepEqual(got, spool) {
		t.Fatalf("traffic during the checkpoint changed the spool: %v, was %v", got, spool)
	}

	restarted := newStack(t, o)
	msgs, _ := restarted.Monitor.Counters()
	if restarted.RestoredAt.IsZero() || msgs < before || msgs >= after {
		t.Fatalf("restored %d messages (restored %v); the live stack scored %d before the checkpoint, %d by its end",
			msgs, !restarted.RestoredAt.IsZero(), before, after)
	}
	if got := restarted.Lifecycle.Status().SpoolWindows; !reflect.DeepEqual(got, spool) {
		t.Fatalf("restart spooled %v windows, the live stack %v at the cut", got, spool)
	}
	if got := clusterModels(t, restarted); got != models {
		t.Fatalf("restart serves\n%s\nthe live stack\n%s", got, models)
	}
}

// TestCheckpointSpoolRidesAlong: a checkpoint whose every write attempt
// tears fails and is counted once, and the previous file still restores
// whole: its monitor state, generation and spool.
func TestCheckpointSpoolRidesAlong(t *testing.T) {
	o := adaptOptions(t)
	o.Faults = faultinject.NewRegistry()
	live := newStack(t, o)
	at := traffic(live, 300, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if res := live.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	at = traffic(live, 100, at)
	if err := live.Checkpoint("test"); err != nil {
		t.Fatal(err)
	}
	msgs, _ := live.Monitor.Counters()
	spool := live.Lifecycle.Status().SpoolWindows
	models := clusterModels(t, live)

	traffic(live, 200, at)
	if res := live.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("second forced cycle did not promote: %+v", res)
	}
	if err := o.Faults.Arm("checkpoint.write", faultinject.Arming{Mode: faultinject.ModeTorn, Bytes: 16, Count: int64(ioRetry.Attempts) + 1}); err != nil {
		t.Fatal(err)
	}
	if err := live.Checkpoint("test"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("checkpoint with every attempt torn = %v, want the injected fault", err)
	}
	if got := live.ckptFailures.Value(); got != 1 {
		t.Fatalf("monitor_checkpoint_failures_total = %d, want 1", got)
	}
	o.Faults.DisarmAll()

	restarted := newStack(t, o)
	if got, _ := restarted.Monitor.Counters(); restarted.RestoredAt.IsZero() || got != msgs {
		t.Fatalf("previous checkpoint restored %d messages (restored %v), want %d", got, !restarted.RestoredAt.IsZero(), msgs)
	}
	if got := restarted.Lifecycle.Status().SpoolWindows; !reflect.DeepEqual(got, spool) {
		t.Fatalf("previous checkpoint restored %v spooled windows, want %v", got, spool)
	}
	if got := clusterModels(t, restarted); got != models {
		t.Fatalf("previous checkpoint serves\n%s\nwant\n%s", got, models)
	}
}

// TestSpoolCorruptQuarantine: a checkpoint whose spool does not decode is
// quarantined whole — renamed aside with the evidence preserved, counted —
// and the stack cold-starts its monitor and spool instead of failing.
func TestSpoolCorruptQuarantine(t *testing.T) {
	o := adaptOptions(t)
	live := newStack(t, o)
	at := traffic(live, 300, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	c, err := live.Lifecycle.Cut()
	if err != nil {
		t.Fatal(err)
	}
	c.Spool = c.Spool[:len(c.Spool)/2]
	if err := c.WriteFile(o.Checkpoint); err != nil {
		t.Fatal(err)
	}

	cold := newStack(t, o)
	if msgs, _ := cold.Monitor.Counters(); !cold.RestoredAt.IsZero() || msgs != 0 {
		t.Fatalf("checkpoint with a torn spool restored: msgs=%d", msgs)
	}
	if got := cold.Lifecycle.Status().SpoolWindows[0]; got != 0 {
		t.Fatalf("cold start expected, got %d windows", got)
	}
	if got := cold.quarantines.Value(); got != 1 {
		t.Fatalf("monitor_checkpoint_quarantines_total = %d, want 1", got)
	}
	if _, err := os.Stat(o.Checkpoint + ".corrupt"); err != nil {
		t.Fatalf("quarantined evidence missing: %v", err)
	}
	if _, err := os.Stat(o.Checkpoint); !os.IsNotExist(err) {
		t.Fatalf("corrupt checkpoint still in place: %v", err)
	}

	// The path is clear: the next checkpoint restores with its spool.
	traffic(live, 100, at)
	if err := live.Checkpoint("test"); err != nil {
		t.Fatal(err)
	}
	if s := newStack(t, o); s.Lifecycle.Status().SpoolWindows[0] == 0 {
		t.Fatal("post-quarantine spool did not restore")
	}
}

// copyFiles copies the named files of testdata/parent/dir into dir.
func copyFiles(t *testing.T, from, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", "parent", from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentCheckpointRestores pins the upgrade path. A checkpoint written
// before the generation and spool rode along restores under the
// fingerprint rule: adaptOptions' bundle serves, and a stream cut under
// other weights quarantines the file. The <checkpoint>.model and spool
// files that build wrote beside it are not read. The files are under
// testdata/parent: plain/ is a stack over adaptOptions' bundle after 400
// messages; promoted/ the same after a forced promotion, with the
// generation it saved.
func TestParentCheckpointRestores(t *testing.T) {
	const fp = 0x0540f68b0b6e7092 // the weights the files were written over
	if got := adaptOptions(t).Bundle.Detectors[0].Fingerprint(); got != fp {
		t.Fatalf("adaptOptions trains weights %016x; testdata/parent was written over %016x", got, fp)
	}
	t.Run("plain", func(t *testing.T) {
		o := adaptOptions(t)
		dir := filepath.Dir(o.Checkpoint)
		copyFiles(t, "plain", dir, "monitor.nfvc", "lifecycle.nfvs")
		s := newStack(t, o)
		if msgs, _ := s.Monitor.Counters(); s.RestoredAt.IsZero() || msgs != 400 || len(s.Monitor.Warnings()) != 2 {
			t.Fatalf("parent checkpoint restored %d messages, %d warnings (restored %v); it holds 400 and 2",
				msgs, len(s.Monitor.Warnings()), !s.RestoredAt.IsZero())
		}
		if s.Serving().Source != "" {
			t.Fatalf("a checkpoint without a generation served %q", s.Serving().Source)
		}
		if got := s.Lifecycle.Status().SpoolWindows[0]; got != 0 {
			t.Fatalf("the spool file beside the checkpoint was read: %d windows", got)
		}
		if _, err := os.Stat(filepath.Join(dir, "lifecycle.nfvs")); err != nil {
			t.Fatalf("the spool file beside the checkpoint was moved: %v", err)
		}
	})
	t.Run("promoted", func(t *testing.T) {
		o := adaptOptions(t)
		dir := filepath.Dir(o.Checkpoint)
		copyFiles(t, "promoted", dir, "monitor.nfvc", "monitor.nfvc.model")
		s := newStack(t, o)
		if msgs, _ := s.Monitor.Counters(); !s.RestoredAt.IsZero() || msgs != 0 {
			t.Fatalf("streams cut under promoted weights restored: %d messages", msgs)
		}
		if got := servedFingerprints(t, s); len(got) != 1 || got[0] != o.Bundle.Detectors[0].Fingerprint() {
			t.Fatalf("serves %x, not the bundle's own weights", got)
		}
		if _, err := os.Stat(o.Checkpoint + ".corrupt"); err != nil {
			t.Fatalf("checkpoint of other weights was not quarantined: %v", err)
		}
		want, _ := os.ReadFile(filepath.Join("testdata", "parent", "promoted", "monitor.nfvc.model"))
		if got, err := os.ReadFile(o.Checkpoint + ".model"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the generation beside the checkpoint was moved or changed: %v", err)
		}
	})
}

// TestCheckpointQuarantinedOnce: every way a restart file fails to
// restore — undecodable, a generation of another lineage, streams cut
// under other weights — sets it aside once, counts it in
// monitor_checkpoint_quarantines_total and starts cold.
func TestCheckpointQuarantinedOnce(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(t *testing.T, o Options) Options
	}{
		{"undecodable", func(t *testing.T, o Options) Options {
			if err := os.WriteFile(o.Checkpoint, []byte("NFVCnot a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			return o
		}},
		{"other lineage", func(t *testing.T, o Options) Options {
			promoteAndCheckpoint(t, o)
			o.Bundle = otherBundle(t)
			return o
		}},
		{"other weights", func(t *testing.T, o Options) Options {
			copyFiles(t, "promoted", filepath.Dir(o.Checkpoint), "monitor.nfvc")
			return o
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := c.write(t, adaptOptions(t))
			s := newStack(t, o)
			if !s.RestoredAt.IsZero() || s.quarantines.Value() != 1 {
				t.Fatalf("restored %v, %d quarantines; want a cold start and 1", !s.RestoredAt.IsZero(), s.quarantines.Value())
			}
			matches, _ := filepath.Glob(o.Checkpoint + "*")
			if len(matches) != 1 || matches[0] != o.Checkpoint+".corrupt" {
				t.Fatalf("files after the restart: %v, want the checkpoint quarantined once", matches)
			}
		})
	}
}
