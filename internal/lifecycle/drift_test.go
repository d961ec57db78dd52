package lifecycle

import (
	"math"
	"sort"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/sigtree"
)

// simBundle trains a single-cluster serving generation on the first two months
// of a simulated trace and returns the post-cut messages for live replay.
// Faults, glitches, maintenance, and core incidents are disabled so the
// trace is pure normal traffic — with update=true the only regime change
// is the month-2 software update rolling out to the whole fleet (§3.3).
func simBundle(t testing.TB, update bool) (*bundle.Bundle, *sigtree.Tree, []logfmt.Message) {
	if h, ok := t.(interface{ Helper() }); ok {
		h.Helper()
	}
	cfg := nfvsim.TestConfig()
	cfg.GlitchesPerDay = 0
	cfg.CoreIncidentsPerMonth = 0
	cfg.MeanFaultGapHours = 1e7
	cfg.MaintenanceEvery = 1e6 * time.Hour
	cfg.UpdateFraction = 1
	if !update {
		cfg.UpdateMonth = -1
	}
	d, err := nfvsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}

	cut := cfg.Start.AddDate(0, 2, 0)
	tree := sigtree.New()
	streams := make(map[string][]features.Event)
	hist := make(cluster.Histogram)
	var post []logfmt.Message
	for _, msg := range tr.Messages {
		if msg.Time.Before(cut) {
			tpl := tree.Learn(msg.Text)
			streams[msg.Host] = append(streams[msg.Host], features.Event{Time: msg.Time, Template: tpl.ID})
			hist.Add(tpl.ID)
		} else {
			post = append(post, msg)
		}
	}

	hosts := make([]string, 0, len(streams))
	for h := range streams {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	assign := make(map[string]int, len(hosts))
	var trainStreams [][]features.Event
	for _, h := range hosts {
		assign[h] = 0
		trainStreams = append(trainStreams, streams[h])
	}

	lcfg := detect.DefaultLSTMConfig()
	lcfg.Hidden = []int{16}
	lcfg.MaxVocab = 48
	lcfg.Epochs = 3
	lcfg.OverSampleRounds = 0
	det := detect.NewLSTMDetector(lcfg)
	if err := det.Train(trainStreams); err != nil {
		t.Fatal(err)
	}
	var scored []detect.ScoredEvent
	for _, h := range hosts {
		scored = append(scored, det.Score(h, streams[h])...)
	}
	sb := &bundle.Bundle{
		Tree:      tree,
		Detectors: []*detect.LSTMDetector{det},
		Assign:    assign,
		Threshold: detect.ScoreQuantile(scored, 0.99),
		TrainHist: []map[int]float64{hist},
	}
	return sb, tree, post
}

// simLifecycleConfig is the serving config the sim tests share.
func simLifecycleConfig() Config {
	return Config{
		GateBudget:      0.05,
		WindowLen:       32,
		SpoolPerCluster: 512,
		MinWindows:      24,
	}
}

func replay(mon *ingest.Monitor, msgs []logfmt.Message) {
	for _, m := range msgs {
		mon.HandleMessage(m)
	}
}

// TestDriftStableStream: without a software update, two further months of
// the same traffic do NOT read as drift, and no adaptation triggers.
func TestDriftStableStream(t *testing.T) {
	sb, tree, post := simBundle(t, false)
	lm, mon := buildStack(t, simLifecycleConfig(), sb, tree)
	replay(mon, post)
	res := lm.TriggerCycle(false)
	cc := res.Clusters[0]
	if math.IsNaN(cc.DriftCos) {
		t.Fatalf("drift was not evaluated: %+v", cc)
	}
	if cc.Drifted {
		t.Fatalf("stable stream read as drifted (cosine %.3f)", cc.DriftCos)
	}
	if cc.Adapted || res.Promoted {
		t.Fatalf("stable stream triggered adaptation: %+v", cc)
	}
}

// TestAdaptationRecoversFromUpdate is the acceptance scenario: the month-2
// software update shifts the fleet's template distribution (§3.3), the
// live drift signal fires, the lifecycle fine-tunes a candidate by
// transfer adaptation, and the candidate's false-alarm rate on held-out
// post-update traffic recovers to within the gate budget while the stale
// model's does not (§4.3, Figure 7's adapted-vs-baseline gap) — so the
// candidate is promoted.
func TestAdaptationRecoversFromUpdate(t *testing.T) {
	sb, tree, post := simBundle(t, true)
	lcfg := simLifecycleConfig()
	lm, mon := buildStack(t, lcfg, sb, tree)
	lm.disruptive = driftThreshold // any detected drift uses transfer adaptation
	replay(mon, post)
	res := lm.TriggerCycle(false)
	cc := res.Clusters[0]
	if !cc.Drifted {
		t.Fatalf("software update did not trip the drift signal (cosine %.3f): %+v", cc.DriftCos, cc)
	}
	if cc.Mode != "adapt" {
		t.Fatalf("disruptive drift should use transfer adaptation, got %q", cc.Mode)
	}
	if !cc.Adapted {
		t.Fatalf("drifted cluster did not adapt: %+v", cc)
	}
	if cc.StaleFAR <= lcfg.GateBudget {
		t.Fatalf("stale model unexpectedly fits the budget (FAR %.4f <= %.4f) — the scenario is vacuous",
			cc.StaleFAR, lcfg.GateBudget)
	}
	if cc.CandidateFAR > lcfg.GateBudget {
		t.Fatalf("adapted model did not recover: FAR %.4f > budget %.4f (stale %.4f)",
			cc.CandidateFAR, lcfg.GateBudget, cc.StaleFAR)
	}
	if !cc.GatePassed || !res.Promoted {
		t.Fatalf("recovered candidate was not promoted: %+v", cc)
	}
	if got := mon.Stats().ModelSwaps; got != 1 {
		t.Fatalf("ModelSwaps = %d, want 1", got)
	}
	// The post-update distribution became the new drift reference: an
	// immediately following cycle over fresh post-update traffic must not
	// re-fire the drift signal against the pre-update histogram.
	replay(mon, post[:len(post)/4])
	res2 := lm.TriggerCycle(false)
	if res2.Clusters[0].Drifted {
		t.Fatalf("drift re-fired against a stale reference after promotion: %+v", res2.Clusters[0])
	}
}
