package lifecycle

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/sigtree"
)

var normalTexts = []string{
	"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
	"interface statistics poll completed for ge-0/0/1 in 12 ms",
	"fpc 0 cpu utilization 20 percent memory 40 percent",
	"ntp clock synchronized to 10.9.9.9 stratum 2 offset 120 us",
}

// testBundle trains a single-cluster serving generation on a cyclic
// corpus (mirrors the ingest test fixture: threshold 4 cleanly separates
// this traffic from unseen messages). The tree is also returned: it is the
// bundle's, which the monitor buildStack wires serves and grows.
func testBundle(t testing.TB) (*bundle.Bundle, *sigtree.Tree) {
	if h, ok := t.(interface{ Helper() }); ok {
		h.Helper()
	}
	tree := sigtree.New()
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1200; i++ {
		tpl := tree.Learn(normalTexts[i%len(normalTexts)])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden = []int{16}
	cfg.MaxVocab = 16
	cfg.Epochs = 6
	cfg.OverSampleRounds = 0
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	sb := &bundle.Bundle{
		Tree:      tree,
		Detectors: []*detect.LSTMDetector{det},
		Assign:    map[string]int{"vpe01": 0},
		Threshold: 4,
	}
	return sb, tree
}

// buildStack wires a Manager and a Monitor together the way nfvmonitor
// does: manager first (the monitor config needs Observe), then Attach.
// spans, when set, receives the monitor's decision spans (stage clocks
// off, so only anomalous verdicts emit).
func buildStack(t testing.TB, lcfg Config, sb *bundle.Bundle, tree *sigtree.Tree, spans ...*obs.SpanRing) (*Manager, *ingest.Monitor) {
	lm := New(lcfg, sb)
	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold = sb.Threshold
	mcfg.ClusterOf = sb.ClusterOf
	mcfg.OnScored = lm.Observe
	if len(spans) > 0 {
		mcfg.Tracer = obs.NewTracer(spans[0], 0, 1)
	}
	mon := ingest.NewMonitorWithResolver(mcfg, tree, sb.DetectorFor, nil)
	lm.Attach(mon)
	return lm, mon
}

func feedNormal(mon *ingest.Monitor, host string, n int, at time.Time) time.Time {
	for i := 0; i < n; i++ {
		mon.HandleMessage(logfmt.Message{
			Time: at, Host: host, Tag: "rpd",
			Text: normalTexts[i%len(normalTexts)],
		})
		at = at.Add(30 * time.Second)
	}
	return at
}

// feedNoisy feeds mostly-cyclic traffic with pseudo-randomly injected
// off-pattern messages, paced at 61s so no two anomalies ever fall inside
// the §5.1 one-minute cluster window (every window stays clean). The
// injections are unpredictable by construction, so no amount of candidate
// fine-tuning can score this traffic confidently — the deterministic way
// to keep a shadow false-alarm rate strictly positive for gate tests.
func feedNoisy(mon *ingest.Monitor, host string, n int, at time.Time) time.Time {
	state := uint32(9001)
	for i := 0; i < n; i++ {
		state = state*1664525 + 1013904223
		text := normalTexts[i%len(normalTexts)]
		if state%5 == 0 {
			text = fmt.Sprintf("unexpected transient event code %d on module %d", state%977, state%13)
		}
		mon.HandleMessage(logfmt.Message{Time: at, Host: host, Tag: "rpd", Text: text})
		at = at.Add(61 * time.Second)
	}
	return at
}

// testLifecycleConfig is a small, fast config for unit tests: tiny
// windows and no timer; cycles are forced.
func testLifecycleConfig() Config {
	return Config{
		GateBudget:      1, // always pass; tests override to exercise the gate
		WindowLen:       8,
		SpoolPerCluster: 64,
		MinWindows:      4,
	}
}

// TestPromotionEndToEnd: a gated candidate is promoted atomically while
// traffic keeps flowing (run under -race: scoring goroutines hammer the
// monitor through the swap).
func TestPromotionEndToEnd(t *testing.T) {
	sb, tree := testBundle(t)
	lm, mon := buildStack(t, testLifecycleConfig(), sb, tree)
	origFP := sb.Detectors[0].Fingerprint()

	at := feedNormal(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))

	// Hammer the monitor from the side while the cycle trains, gates, and
	// swaps, so -race sees promotion interleaved with scoring.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ts := at.Add(time.Duration(g) * time.Hour)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mon.HandleMessage(logfmt.Message{Time: ts, Host: "vpe01", Tag: "rpd", Text: normalTexts[i%len(normalTexts)]})
				ts = ts.Add(30 * time.Second)
			}
		}(g)
	}

	res := lm.TriggerCycle(true)
	close(stop)
	wg.Wait()

	if !res.Promoted || len(res.Clusters) != 1 {
		t.Fatalf("cycle result: %+v", res)
	}
	cc := res.Clusters[0]
	if !cc.Adapted || !cc.GatePassed || cc.Mode != "update" {
		t.Fatalf("cluster cycle: %+v", cc)
	}
	if lm.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", lm.Generation())
	}
	if got := mon.Stats().ModelSwaps; got != 1 {
		t.Fatalf("ModelSwaps = %d, want 1", got)
	}
	newFP := lm.Serving().Detectors[0].Fingerprint()
	if newFP == origFP {
		t.Fatal("promotion did not change the serving detector")
	}
	// The monitor still scores after the swap (streams were reset, model
	// is the candidate).
	feedNormal(mon, "vpe01", 20, at.Add(24*time.Hour))
	if msgs, _ := mon.Counters(); msgs == 0 {
		t.Fatal("monitor stopped counting after promotion")
	}
	lm.mu.Lock()
	gens := lm.gens
	lm.mu.Unlock()
	if len(gens) != 1 || !gens[0].Promoted || gens[0].Fingerprint != newFP {
		t.Fatalf("audit log: %+v", gens)
	}
}

// TestGateRejectsBadCandidate: with an impossible budget the candidate is
// rejected, the serving model is untouched, and the candidate is retained
// as pending; ForcePromote overrides; Rollback restores the original.
func TestGateRejectsBadCandidate(t *testing.T) {
	sb, tree := testBundle(t)
	// An absurdly low threshold makes every scored event a false alarm,
	// so candidate FAR ≈ 1 and any positive budget below that rejects.
	sb.Threshold = 0.05
	lcfg := testLifecycleConfig()
	lcfg.GateBudget = 1e-9
	lm, mon := buildStack(t, lcfg, sb, tree)
	origFP := sb.Detectors[0].Fingerprint()

	feedNoisy(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	res := lm.TriggerCycle(true)
	if res.Promoted {
		t.Fatalf("gate-failing candidate was promoted: %+v", res)
	}
	cc := res.Clusters[0]
	if !cc.Adapted || cc.GatePassed || cc.CandidateFAR <= lcfg.GateBudget {
		t.Fatalf("cluster cycle: %+v", cc)
	}
	if got := mon.Stats().ModelSwaps; got != 0 {
		t.Fatalf("rejected candidate caused %d swaps", got)
	}
	if fp := lm.Serving().Detectors[0].Fingerprint(); fp != origFP {
		t.Fatal("rejected candidate mutated the serving set")
	}
	st := lm.Status()
	if len(st.Pending) != 1 || st.Pending[0] != 0 {
		t.Fatalf("pending: %+v", st)
	}

	// Operator override: forced promotion installs the pending candidate.
	if err := lm.ForcePromote(); err != nil {
		t.Fatal(err)
	}
	if got := mon.Stats().ModelSwaps; got != 1 {
		t.Fatalf("ModelSwaps after ForcePromote = %d", got)
	}
	forcedFP := lm.Serving().Detectors[0].Fingerprint()
	if forcedFP == origFP {
		t.Fatal("ForcePromote did not install the candidate")
	}

	// One-step rollback restores the prior generation.
	if err := lm.Rollback(); err != nil {
		t.Fatal(err)
	}
	if fp := lm.Serving().Detectors[0].Fingerprint(); fp != origFP {
		t.Fatal("rollback did not restore the previous generation")
	}
	if got := mon.Stats().ModelSwaps; got != 2 {
		t.Fatalf("ModelSwaps after rollback = %d", got)
	}
	// Nothing left to promote, and a second rollback just toggles back.
	if err := lm.ForcePromote(); err == nil {
		t.Fatal("ForcePromote with no pending candidates must fail")
	}
	if err := lm.Rollback(); err != nil {
		t.Fatal(err)
	}
	if fp := lm.Serving().Detectors[0].Fingerprint(); fp != forcedFP {
		t.Fatal("rollback toggle did not return to the forced candidate")
	}
}

// TestGenerationsKeepClusterMapping: a promotion or a rollback replaces
// detectors, never the host→cluster assignment, so the explanation of an
// anomaly on a host the assignment does not name reports cluster 0 — the
// cluster whose detector scores it — before and after either.
func TestGenerationsKeepClusterMapping(t *testing.T) {
	sb, tree := testBundle(t)
	ring := obs.NewSpanRing(64)
	lm, mon := buildStack(t, testLifecycleConfig(), sb, tree, ring)
	at := feedNormal(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	traceCluster := func(when string) {
		t.Helper()
		at = feedNormal(mon, "vpe99", 8, at)
		mon.HandleMessage(logfmt.Message{Time: at, Host: "vpe99", Tag: "rpd",
			Text: "invalid response from peer chassis-control session 42 retries 3"})
		traces := ring.Query(obs.SpanQuery{N: 1, Host: "vpe99", AnomalousOnly: true})
		if len(traces) == 0 {
			t.Fatalf("%s: the anomaly left no trace", when)
		}
		ex := traces[0].Explain
		if tail := ex.Window[len(ex.Window)-1]; !tail.Time.Equal(at) {
			t.Fatalf("%s: the newest explained anomaly is not this one: %+v", when, tail)
		}
		at = at.Add(time.Hour)
		if ex.Cluster != 0 {
			t.Fatalf("%s: unmapped host traced at cluster %d, want 0", when, ex.Cluster)
		}
	}
	traceCluster("before any promotion")
	if res := lm.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	traceCluster("after the forced promotion")
	if err := lm.Rollback(); err != nil {
		t.Fatal(err)
	}
	traceCluster("after the rollback")
}

// TestMinWindowsFloor: a forced cycle with too little spooled data adapts
// nothing.
func TestMinWindowsFloor(t *testing.T) {
	sb, tree := testBundle(t)
	lcfg := testLifecycleConfig()
	lcfg.MinWindows = 1000
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	res := lm.TriggerCycle(true)
	if res.Promoted || res.Clusters[0].Adapted {
		t.Fatalf("adapted below the MinWindows floor: %+v", res)
	}
}

// TestAdminEndpoints drives the /models surface end to end.
func TestAdminEndpoints(t *testing.T) {
	sb, tree := testBundle(t)
	sb.Threshold = 0.05 // force gate rejection so promote has work to do
	lcfg := testLifecycleConfig()
	lcfg.GateBudget = 1e-9
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNoisy(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))

	srv := httptest.NewServer(lm.Handler())
	defer srv.Close()

	// No pending candidates yet: promote and rollback conflict.
	for _, ep := range []string{"/models/promote", "/models/rollback"} {
		resp, err := http.Post(srv.URL+ep, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("POST %s before any cycle: %d", ep, resp.StatusCode)
		}
	}

	// Force a cycle over HTTP; the candidate fails the gate.
	resp, err := http.Post(srv.URL+"/models/adapt", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var view modelsView
	get := func() {
		resp, err := http.Get(srv.URL + "/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		view = modelsView{}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if len(view.Pending) != 1 || view.Generation != 0 || len(view.Clusters) != 1 {
		t.Fatalf("GET /models after rejected cycle: %+v", view)
	}
	if len(view.Generations) == 0 || view.Generations[0].GatePassed {
		t.Fatalf("audit log: %+v", view.Generations)
	}

	if resp, err = http.Post(srv.URL+"/models/promote", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /models/promote: %d", resp.StatusCode)
	}
	get()
	if view.Generation != 1 || len(view.Pending) != 0 || !view.CanRollback {
		t.Fatalf("GET /models after promote: %+v", view)
	}

	if resp, err = http.Post(srv.URL+"/models/rollback", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /models/rollback: %d", resp.StatusCode)
	}
	get()
	if view.Generation != 2 {
		t.Fatalf("GET /models after rollback: %+v", view)
	}

	// GET on action endpoints is not allowed.
	resp, err = http.Get(srv.URL + "/models/promote")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /models/promote: %d", resp.StatusCode)
	}
}

// TestSpoolPersistRoundTrip: the spool survives a restart when the tree
// lineage is unchanged, and is discarded when it moved.
func TestSpoolPersistRoundTrip(t *testing.T) {
	sb, tree := testBundle(t)
	lcfg := testLifecycleConfig()
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	depth := lm.Status().SpoolWindows[0]
	if depth == 0 {
		t.Fatal("no windows spooled")
	}
	path := filepath.Join(t.TempDir(), "spool.nfvs")
	if err := lm.SaveSpool(path); err != nil {
		t.Fatal(err)
	}

	// Same lineage: the spool resumes.
	lm2, _ := buildStack(t, lcfg, sb, tree)
	if err := lm2.LoadSpool(path); err != nil {
		t.Fatal(err)
	}
	if got := lm2.Status().SpoolWindows[0]; got != depth {
		t.Fatalf("restored %d windows, want %d", got, depth)
	}

	// Lineage moved (the tree learned a new template): discard.
	tree.Learn("a template the spool never saw before now")
	lm3, _ := buildStack(t, lcfg, sb, tree)
	if err := lm3.LoadSpool(path); err != nil {
		t.Fatal(err)
	}
	if got := lm3.Status().SpoolWindows[0]; got != 0 {
		t.Fatalf("stale-lineage spool was accepted: %d windows", got)
	}

	// A missing file is a clean cold start.
	if err := lm3.LoadSpool(filepath.Join(t.TempDir(), "absent.nfvs")); err != nil {
		t.Fatal(err)
	}
}

// TestSpoolKeepsPromotedDriftReference: a promotion re-references its
// cluster's drift baseline to the distribution it adapted to; a restart
// that restores the spool judges drift against that, not against the
// bundle's training histogram.
func TestSpoolKeepsPromotedDriftReference(t *testing.T) {
	sb, tree := testBundle(t)
	sb.TrainHist = []map[int]float64{{0: 1}}
	lcfg := testLifecycleConfig()
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if res := lm.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	lm.mu.Lock()
	promoted := lm.refs[0]
	lm.mu.Unlock()
	if reflect.DeepEqual(promoted, cluster.Histogram(sb.TrainHist[0])) {
		t.Fatal("promotion did not re-reference the drift baseline")
	}
	path := filepath.Join(t.TempDir(), "spool.nfvs")
	if err := lm.SaveSpool(path); err != nil {
		t.Fatal(err)
	}
	lm2, _ := buildStack(t, lcfg, sb, tree)
	if err := lm2.LoadSpool(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lm2.refs[0], promoted) {
		t.Fatalf("restored drift reference %v, want the promoted %v", lm2.refs[0], promoted)
	}
}

// TestBurstWindowsQuarantined: windows containing burst (fault) traffic
// land in the quarantine ring, not the clean spool; isolated anomalies
// stay in clean windows.
func TestBurstWindowsQuarantined(t *testing.T) {
	sb, tree := testBundle(t)
	lcfg := testLifecycleConfig()
	lm, mon := buildStack(t, lcfg, sb, tree)
	at := feedNormal(mon, "vpe01", 64, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	clean := lm.Status().SpoolWindows[0]
	if clean == 0 {
		t.Fatal("no clean windows spooled")
	}
	// A §5.1 burst: ≥2 anomalies inside a minute. The window holding them
	// must be quarantined at completion.
	for i := 0; i < 3; i++ {
		mon.HandleMessage(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd",
			Text: "invalid response from peer chassis-control session 42 retries 3"})
		at = at.Add(15 * time.Second)
	}
	feedNormal(mon, "vpe01", lcfg.WindowLen, at.Add(time.Hour))
	ss := lm.spools.Load()
	cleanWins, quar, _ := ss.clusters[0].snapshot(false)
	if len(quar) == 0 {
		t.Fatal("burst window was not quarantined")
	}
	if len(cleanWins) != clean {
		t.Fatalf("burst window leaked into the clean spool: %d clean windows, want %d", len(cleanWins), clean)
	}
}
