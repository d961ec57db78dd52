package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/serve"
	"nfvpredict/internal/sigtree"
)

// trainServing builds a small sigtree+detector pair on a cyclic corpus,
// enough for scoring to separate seen from unseen messages.
func trainServing(t *testing.T) (*sigtree.Tree, *detect.LSTMDetector) {
	t.Helper()
	tree := sigtree.New()
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
		"fpc 0 cpu utilization 20 percent memory 40 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 120 us",
	}
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1200; i++ {
		tpl := tree.Learn(texts[i%len(texts)])
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
	return tree, det
}

// testApp builds the app around the stack run() builds — serve.New on a
// loopback port, never started: tests score through Monitor.HandleMessage
// and drive the admin mux directly. lcfg non-nil is the -adapt stack.
func testApp(t *testing.T, lcfg *lifecycle.Config) (*app, *http.ServeMux) {
	t.Helper()
	tree, det := trainServing(t)
	so := serve.DefaultOptions()
	so.Bundle = &bundle.Bundle{
		Tree:      tree,
		Detectors: []*detect.LSTMDetector{det},
		Assign:    map[string]int{"vpe01": 0},
		Threshold: 4,
	}
	so.UDPAddr, so.TCPAddr = "127.0.0.1:0", "127.0.0.1:0"
	so.SpanBuffer, so.SpanSample = 96, 4
	so.Lifecycle = lcfg
	so.Log = obs.NewLogger(io.Discard, obs.LevelWarn)
	st, err := serve.New(so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	a := &app{Stack: st, log: so.Log}
	return a, a.AdminMux()
}

// adminMux is the admin surface run() serves for a.
func adminMux(a *app) *http.ServeMux { return a.AdminMux() }

func get(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestAdminHealthFlipsOnRejectedReload drives the hot-reload path the way a
// SIGHUP does: a corrupt bundle on disk must flip /healthz and /readyz to
// 503 with the rejection as reason while the serving model stays active,
// and a subsequent good reload must restore 200.
func TestAdminHealthFlipsOnRejectedReload(t *testing.T) {
	a, mux := testApp(t, nil)
	dir := t.TempDir()

	if code, _ := get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before any reload: %d", code)
	}

	bad := filepath.Join(dir, "bad.bundle")
	if err := os.WriteFile(bad, []byte("NFVBthis is not a valid bundle payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.reload(bad); err == nil {
		t.Fatal("corrupt bundle accepted")
	}
	code, body := get(t, mux, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "rejected") {
		t.Fatalf("healthz after rejected reload: %d %q", code, body)
	}
	if code, body = get(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, bad) {
		t.Fatalf("readyz after rejected reload: %d %q", code, body)
	}
	// The monitor still serves: messages are still scored.
	a.Monitor.HandleMessage(logfmt.Message{
		Time: time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC),
		Host: "vpe01", Tag: "rpd",
		Text: "bgp keepalive exchanged with peer 10.0.0.1 hold 90",
	})
	if st := a.Monitor.Stats(); st.Messages != 1 {
		t.Fatalf("monitor stopped serving after rejected reload: %+v", st)
	}
	// /statusz reports the degraded state.
	var doc struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if _, body = get(t, mux, "/statusz"); json.Unmarshal([]byte(body), &doc) != nil || doc.Ready || doc.Reason == "" {
		t.Fatalf("statusz during degradation: %s", body)
	}

	tree, det := trainServing(t)
	good := filepath.Join(dir, "good.bundle")
	gb := &bundle.Bundle{
		Tree:      tree,
		Detectors: []*detect.LSTMDetector{det},
		Assign:    map[string]int{"vpe01": 0},
		Threshold: 5,
	}
	if err := gb.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	if err := a.reload(good); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after good reload: %d", code)
	}
	if got := a.Monitor.Threshold(); got != 5 {
		t.Fatalf("reload did not apply bundle threshold: %v", got)
	}
	_, metrics := get(t, mux, "/metrics")
	for _, want := range []string{
		"monitor_bundle_reload_failures_total 1",
		"monitor_bundle_reloads_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestAdminTracesExplainInjectedAnomaly feeds normal traffic plus a
// synthetic anomaly through the monitor and checks /spans?anomalous=1
// returns one decision span that explains the verdict end-to-end: host,
// score over threshold, and the per-window log-probabilities that produced
// it.
func TestAdminTracesExplainInjectedAnomaly(t *testing.T) {
	a, mux := testApp(t, nil)
	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
		"fpc 1 cpu utilization 30 percent memory 45 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 80 us",
	}
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 80; i++ {
		a.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe07", Tag: "rpd", Text: normal[i%len(normal)]})
		at = at.Add(30 * time.Second)
	}
	a.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe07", Tag: "rpd",
		Text: "invalid response from peer chassis-control session 42 retries 3"})

	code, body := get(t, mux, "/spans?anomalous=1")
	if code != http.StatusOK {
		t.Fatalf("/spans?anomalous=1: %d %s", code, body)
	}
	var page struct {
		Total uint64     `json:"total"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("decoding /spans: %v\n%s", err, body)
	}
	if len(page.Spans) != 1 || page.Spans[0].Explain == nil {
		t.Fatalf("expected one explained span, got %d of %d: %s", len(page.Spans), page.Total, body)
	}
	tr, ex := page.Spans[0], page.Spans[0].Explain
	if tr.Kind != obs.KindDecision || tr.Host != "vpe07" || ex.Model != "lstm" || ex.Cluster != 0 {
		t.Fatalf("trace identity: %+v %+v", tr, ex)
	}
	if ex.Threshold != 4 || tr.Score <= ex.Threshold {
		t.Fatalf("trace does not explain the verdict: score=%v threshold=%v", tr.Score, ex.Threshold)
	}
	if len(ex.Window) == 0 {
		t.Fatalf("trace has no context window: %+v", ex)
	}
	last := ex.Window[len(ex.Window)-1]
	if last.LogProb != -tr.Score || last.Template != tr.Template || !last.Time.Equal(at) {
		t.Fatalf("window tail does not carry the verdict log-prob: %+v vs %+v", last, tr)
	}
	// ?n= caps the result and bad values are rejected.
	if _, body = get(t, mux, "/spans?anomalous=1&n=1"); !strings.Contains(body, "vpe07") {
		t.Fatalf("/spans?anomalous=1&n=1: %s", body)
	}
	if code, _ = get(t, mux, "/spans?anomalous=1&n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/spans?anomalous=1&n=bogus: %d", code)
	}
	// The same verdict is visible on /statusz counters, beside the serving
	// tree's symbol table.
	var doc struct {
		Monitor ingest.MonitorStats `json:"monitor"`
	}
	if _, body = get(t, mux, "/statusz"); json.Unmarshal([]byte(body), &doc) != nil {
		t.Fatalf("decoding /statusz: %s", body)
	}
	if doc.Monitor.Anomalies != uint64(len(page.Spans)) || doc.Monitor.Symbols < 2 || doc.Monitor.SymbolOverflows != 0 {
		t.Fatalf("statusz counters: %+v", doc)
	}
}

// testAppAdapt is testApp with -adapt on: cycles via /models/adapt only,
// a gate and spool floor small enough for a test's worth of traffic.
func testAppAdapt(t *testing.T) (*app, *http.ServeMux) {
	lcfg := lifecycle.DefaultConfig()
	lcfg.Interval = 0
	lcfg.GateBudget = 1
	lcfg.WindowLen = 8
	lcfg.MinWindows = 4
	return testApp(t, &lcfg)
}

// TestReadyzNamedConditions drives the degradation controller through its
// modes and checks the admin surface reports them as *named* conditions:
// shed-learning is informational (readiness stays 200, the degradation is
// listed), shed-scoring fails the "degradation" condition (warnings can no
// longer be emitted, so /readyz must go 503), and recovery walks both back.
func TestReadyzNamedConditions(t *testing.T) {
	a, mux := testAppAdapt(t)

	if code, body := get(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz at baseline: %d %q", code, body)
	}

	// A burst of durable-I/O faults sheds learning: spooling and timer
	// cycles pause, but scoring — and therefore readiness — is untouched.
	a.Degrader.Eval(resilience.Sample{}) // prime the delta baselines
	a.Degrader.Eval(resilience.Sample{IOFaults: 5})
	if got := a.Degrader.Mode(); got != resilience.ModeShedLearning {
		t.Fatalf("mode after I/O fault burst = %v, want shed-learning", got)
	}
	if !a.Lifecycle.Status().ShedLearning {
		t.Fatal("shed-learning mode did not reach the lifecycle manager")
	}
	code, body := get(t, mux, "/readyz")
	if code != http.StatusOK || !strings.Contains(body, "degraded: degradation: learning shed") {
		t.Fatalf("readyz at shed-learning: %d %q", code, body)
	}

	// Scoring faults bursting escalates to shed-scoring: the "degradation"
	// condition fails by name and readiness goes red.
	a.Degrader.Eval(resilience.Sample{IOFaults: 5, ScoringFaults: 5})
	if code, body = get(t, mux, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "degradation: scoring shed") {
		t.Fatalf("readyz at shed-scoring: %d %q", code, body)
	}
	var rdoc struct {
		Ready      bool            `json:"ready"`
		Conditions []obs.Condition `json:"conditions"`
	}
	if _, body = get(t, mux, "/readyz?format=json"); json.Unmarshal([]byte(body), &rdoc) != nil {
		t.Fatalf("decoding readyz json: %s", body)
	}
	found := false
	for _, c := range rdoc.Conditions {
		if c.Name == "degradation" && !c.OK && strings.Contains(c.Reason, "scoring shed") {
			found = true
		}
	}
	if rdoc.Ready || !found {
		t.Fatalf("readyz json lacks the failing named condition: %s", body)
	}
	// /statusz carries the same state in its resilience section.
	var sdoc struct {
		Resilience struct {
			DegradeMode string          `json:"degrade_mode"`
			Conditions  []obs.Condition `json:"conditions"`
		} `json:"resilience"`
	}
	if _, body = get(t, mux, "/statusz"); json.Unmarshal([]byte(body), &sdoc) != nil ||
		sdoc.Resilience.DegradeMode != "shed-scoring" {
		t.Fatalf("statusz resilience section: %s", body)
	}

	// Recovery is stepwise: clean evaluations walk shed-scoring back to
	// shed-learning and then to normal, and readiness returns with them.
	for i := 0; i < 6; i++ {
		a.Degrader.Eval(resilience.Sample{IOFaults: 5, ScoringFaults: 5})
	}
	if got := a.Degrader.Mode(); got != resilience.ModeNormal {
		t.Fatalf("mode after clean evals = %v, want normal", got)
	}
	if a.Lifecycle.Status().ShedLearning {
		t.Fatal("recovery did not lift shed-learning from the lifecycle manager")
	}
	if code, body = get(t, mux, "/readyz"); code != http.StatusOK || strings.Contains(body, "degraded:") {
		t.Fatalf("readyz after recovery: %d %q", code, body)
	}

	// The adaptation breaker surfaces as an informational condition on the
	// same sampling tick (closed here, so degraded=false but present once a
	// sample ran).
	a.SampleDegrade()
	if _, body = get(t, mux, "/statusz"); !strings.Contains(body, `"adaptation"`) {
		t.Fatalf("statusz lacks the adaptation breaker condition: %s", body)
	}
}

// TestAdminLifecycleWiring drives the -adapt runtime surface end to end:
// scored traffic reaches the spool through the OnScored hook, a forced
// cycle over POST /models/adapt trains, gates, and promotes a candidate
// through the monitor's SwapModel path, /statusz grows a lifecycle
// section, and a bundle hot reload realigns the lifecycle state.
func TestAdminLifecycleWiring(t *testing.T) {
	a, mux := testAppAdapt(t)
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
		"fpc 0 cpu utilization 20 percent memory 40 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 120 us",
	}
	for i := 0; i < 120; i++ {
		a.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd", Text: normal[i%len(normal)]})
		at = at.Add(30 * time.Second)
	}
	if st := a.Lifecycle.Status(); len(st.SpoolWindows) != 1 || st.SpoolWindows[0] == 0 {
		t.Fatalf("OnScored hook did not fill the spool: %+v", st)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/models/adapt", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /models/adapt: %d %s", rec.Code, rec.Body.String())
	}
	if a.Lifecycle.Generation() != 1 {
		t.Fatalf("generation after adapt = %d, want 1", a.Lifecycle.Generation())
	}
	if got := a.Monitor.Stats().ModelSwaps; got != 1 {
		t.Fatalf("ModelSwaps = %d, want 1", got)
	}

	code, body := get(t, mux, "/models")
	if code != http.StatusOK || !strings.Contains(body, `"generation": 1`) {
		t.Fatalf("GET /models: %d %s", code, body)
	}
	var doc struct {
		Lifecycle *lifecycle.Status `json:"lifecycle"`
	}
	if _, body = get(t, mux, "/statusz"); json.Unmarshal([]byte(body), &doc) != nil || doc.Lifecycle == nil {
		t.Fatalf("statusz has no lifecycle section: %s", body)
	}
	if doc.Lifecycle.Generation != 1 || !doc.Lifecycle.CanRollback {
		t.Fatalf("statusz lifecycle: %+v", doc.Lifecycle)
	}

	// A hot reload realigns the lifecycle: new generation, rollback history
	// dropped (the old models belong to a different template lineage).
	tree, det := trainServing(t)
	good := filepath.Join(t.TempDir(), "good.bundle")
	gb := &bundle.Bundle{
		Tree:      tree,
		Detectors: []*detect.LSTMDetector{det},
		Assign:    map[string]int{"vpe01": 0},
		Threshold: 5,
	}
	if err := gb.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	if err := a.reload(good); err != nil {
		t.Fatal(err)
	}
	st := a.Lifecycle.Status()
	if st.Generation != 2 || st.CanRollback || st.SpoolWindows[0] != 0 {
		t.Fatalf("lifecycle not realigned after reload: %+v", st)
	}
	if a.Lifecycle.Serving().Threshold != 5 {
		t.Fatalf("reload did not install the bundle threshold into the lifecycle: %+v", a.Lifecycle.Serving())
	}
}

// TestHelpGolden pins the flag surface byte for byte against the text
// recorded before the wiring moved into internal/serve: no flag, default
// or usage string was added, lost or reworded. (-year defaults to the
// current year, masked on both sides.)
func TestHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	fs := flag.NewFlagSet("nfvmonitor", flag.ContinueOnError)
	fs.SetOutput(&buf)
	registerFlags(fs, new(options))
	fs.PrintDefaults()
	got := strings.ReplaceAll(buf.String(), fmt.Sprintf("(default %d)", time.Now().Year()), "(default YEAR)")
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("nfvmonitor -h changed:\n%s", got)
	}
}

// TestStatusLineLogsShardDrops pins the counters on the status and
// shutdown lines: with the listeners routing into the shard queues the
// only drop an accepted message can suffer is a refused Enqueue, so that
// is the one logged.
func TestStatusLineLogsShardDrops(t *testing.T) {
	a, _ := testApp(t, nil)
	var buf bytes.Buffer
	a.log = obs.NewLogger(&buf, obs.LevelInfo)
	// Listeners up, shard workers not: one host's queue fills and refuses.
	a.Server.Start(nil)
	conn, err := net.Dial("tcp", a.Server.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const sent = ingest.DefaultShardQueue + 76
	w := bufio.NewWriter(conn)
	msg := logfmt.Message{
		Time: time.Date(time.Now().Year(), 3, 1, 0, 0, 0, 0, time.UTC),
		Host: "vpe01", Tag: "rpd", Text: "bgp keepalive exchanged with peer 10.0.0.1 hold 90",
	}
	line := msg.Format3164()
	for i := 0; i < sent; i++ {
		fmt.Fprintf(w, "%d %s", len(line), line)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// At EOF after a half-close the listener has counted every frame.
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
	a.logCounters("status")
	logged := buf.String()
	if !strings.Contains(logged, " shard_dropped=76") || !strings.Contains(logged, " malformed=0") {
		t.Fatalf("status line does not report the refused enqueues: %q", logged)
	}
}

// TestStatuszNamesServedFile pins the /statusz bundle block to the file
// the stack actually serves: the -model bundle on a first start, and the
// checkpoint once a restart after a promotion serves the generation it
// carries instead.
func TestStatuszNamesServedFile(t *testing.T) {
	dir := t.TempDir()
	tree, det := trainServing(t)
	model := filepath.Join(dir, "model.bundle")
	b := &bundle.Bundle{Tree: tree, Detectors: []*detect.LSTMDetector{det}, Assign: map[string]int{"vpe01": 0}, Threshold: 4}
	if err := b.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "monitor.ckpt")
	var o options
	fs := flag.NewFlagSet("nfvmonitor", flag.ContinueOnError)
	registerFlags(fs, &o)
	if err := fs.Parse([]string{"-model", model, "-checkpoint", ckpt, "-udp", "127.0.0.1:0",
		"-adapt", "-adapt-interval", "0", "-adapt-gate", "1"}); err != nil {
		t.Fatal(err)
	}
	served := func(a *app) string {
		t.Helper()
		var doc serve.Status
		if _, body := get(t, a.AdminMux(), "/statusz"); json.Unmarshal([]byte(body), &doc) != nil {
			t.Fatalf("decoding /statusz: %s", body)
		}
		return doc.Bundle.Path
	}

	first, err := newApp(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := served(first); got != model {
		t.Fatalf("first start: /statusz names %q, want %q", got, model)
	}
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		first.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd",
			Text: fmt.Sprintf("bgp keepalive exchanged with peer 10.0.0.%d hold 90", i%4)})
		at = at.Add(30 * time.Second)
	}
	if res := first.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	first.Checkpoint("test")
	first.Close()

	second, err := newApp(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := served(second); got != ckpt || second.RestoredAt.IsZero() {
		t.Fatalf("restart: /statusz names %q (restored %v), want %q", got, second.RestoredAt, ckpt)
	}
}

// TestRestartTakesThresholdFlag: a restart that serves the generation
// the checkpoint carries scores at the -threshold it was given, and
// /statusz reports that threshold, not the one the promoting run had.
func TestRestartTakesThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	tree, det := trainServing(t)
	model := filepath.Join(dir, "model.bundle") // no recommended threshold
	b := &bundle.Bundle{Tree: tree, Detectors: []*detect.LSTMDetector{det}, Assign: map[string]int{"vpe01": 0}}
	if err := b.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "monitor.ckpt")
	start := func(threshold string) *app {
		t.Helper()
		var o options
		fs := flag.NewFlagSet("nfvmonitor", flag.ContinueOnError)
		registerFlags(fs, &o)
		if err := fs.Parse([]string{"-model", model, "-checkpoint", ckpt, "-udp", "127.0.0.1:0",
			"-threshold", threshold, "-adapt", "-adapt-interval", "0", "-adapt-gate", "1"}); err != nil {
			t.Fatal(err)
		}
		a, err := newApp(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		return a
	}

	first := start("4")
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		first.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd",
			Text: fmt.Sprintf("bgp keepalive exchanged with peer 10.0.0.%d hold 90", i%4)})
		at = at.Add(30 * time.Second)
	}
	if res := first.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle did not promote: %+v", res)
	}
	first.Checkpoint("test")

	second := start("5.5")
	if second.Serving().Source != ckpt {
		t.Fatal("restart did not serve the saved generation")
	}
	if got := second.Monitor.Threshold(); got != 5.5 {
		t.Fatalf("monitor threshold %v after a restart at -threshold 5.5", got)
	}
	var doc serve.Status
	if _, body := get(t, second.AdminMux(), "/statusz"); json.Unmarshal([]byte(body), &doc) != nil {
		t.Fatalf("decoding /statusz: %s", body)
	}
	if doc.Bundle.Threshold != 5.5 {
		t.Fatalf("/statusz threshold %v after a restart at -threshold 5.5", doc.Bundle.Threshold)
	}
}

// startApp writes a one-cluster bundle recommending threshold (0: none)
// and builds the app run() builds from args plus -model and -checkpoint
// over it, not started.
func startApp(t *testing.T, threshold float64, args ...string) (a *app, model, ckpt string) {
	t.Helper()
	dir := t.TempDir()
	tree, det := trainServing(t)
	model = filepath.Join(dir, "model.bundle")
	b := &bundle.Bundle{Tree: tree, Detectors: []*detect.LSTMDetector{det}, Assign: map[string]int{"vpe01": 0}, Threshold: threshold}
	if err := b.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	ckpt = filepath.Join(dir, "monitor.ckpt")
	var o options
	fs := flag.NewFlagSet("nfvmonitor", flag.ContinueOnError)
	registerFlags(fs, &o)
	if err := fs.Parse(append([]string{"-model", model, "-checkpoint", ckpt, "-udp", "127.0.0.1:0"}, args...)); err != nil {
		t.Fatal(err)
	}
	a, err := newApp(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a, model, ckpt
}

// TestStatuszReadsLiveState reads /statusz while traffic scores: the
// template count is the live tree's, grown by one unseen message since
// the bundle loaded; the checkpoint path is there before any save; and
// the last save time moves with Checkpoint.
func TestStatuszReadsLiveState(t *testing.T) {
	a, _, ckpt := startApp(t, 4)
	mux := adminMux(a)
	status := func() serve.Status {
		t.Helper()
		var doc serve.Status
		if _, body := get(t, mux, "/statusz"); json.Unmarshal([]byte(body), &doc) != nil {
			t.Fatalf("decoding /statusz: %s", body)
		}
		return doc
	}
	before := status()
	if before.Checkpoint.Path != ckpt || !before.Checkpoint.LastSave.IsZero() {
		t.Fatalf("before any save: /statusz checkpoint %+v, want path %q and no save", before.Checkpoint, ckpt)
	}
	loaded := before.Bundle.Templates

	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	a.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd",
		Text: "invalid response from peer chassis-control session 42 retries 3"})
	done, flowing, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		texts := []string{
			"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
			"interface statistics poll completed for ge-0/0/1 in 12 ms",
			"fpc 0 cpu utilization 20 percent memory 40 percent",
			"ntp clock synchronized to 10.9.9.9 stratum 2 offset 120 us",
		}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			a.Monitor.HandleMessage(logfmt.Message{Time: at.Add(time.Duration(i+1) * time.Second),
				Host: "vpe01", Tag: "rpd", Text: texts[i%len(texts)]})
			if i == 50 {
				close(flowing)
			}
		}
	}()
	<-flowing
	during := status()
	if err := a.Checkpoint("test"); err != nil {
		t.Fatal(err)
	}
	saved := status()
	close(done)
	<-stopped

	if live := a.Serving().Tree.Len(); during.Bundle.Templates != live || live != loaded+1 {
		t.Fatalf("/statusz bundle.templates %d under traffic, the live tree holds %d (loaded with %d)",
			during.Bundle.Templates, live, loaded)
	}
	if !saved.Checkpoint.LastSave.After(during.Checkpoint.LastSave) || saved.Checkpoint.LastError != "" {
		t.Fatalf("last_saved_at did not move with Checkpoint: %+v then %+v", during.Checkpoint, saved.Checkpoint)
	}
}

// TestReloadTakesThresholdFlag: a SIGHUP reload of a bundle that
// recommends no threshold serves at -threshold, as a start does, in the
// monitor and in the lifecycle's serving generation, whose gate judges
// candidates at that threshold.
func TestReloadTakesThresholdFlag(t *testing.T) {
	a, model, _ := startApp(t, 0, "-threshold", "4", "-adapt", "-adapt-interval", "0", "-adapt-gate", "0.5")
	if err := a.reload(model); err != nil {
		t.Fatal(err)
	}
	if got := a.Monitor.Threshold(); got != 4 {
		t.Fatalf("monitor threshold %v after a reload at -threshold 4", got)
	}
	if got := a.Lifecycle.Serving().Threshold; got != 4 {
		t.Fatalf("lifecycle serves threshold %v after a reload at -threshold 4", got)
	}
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		a.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd",
			Text: fmt.Sprintf("bgp keepalive exchanged with peer 10.0.0.%d hold 90", i%4)})
		at = at.Add(30 * time.Second)
	}
	if res := a.Lifecycle.TriggerCycle(true); !res.Promoted {
		t.Fatalf("forced cycle at gate 0.5 did not promote: %+v", res)
	}
}
