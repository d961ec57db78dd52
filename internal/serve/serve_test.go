package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/sigtree"
)

var normalTexts = []string{
	"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
	"interface statistics poll completed for ge-0/0/1 in 12 ms",
	"fpc 0 cpu utilization 20 percent memory 40 percent",
	"ntp clock synchronized to 10.9.9.9 stratum 2 offset 120 us",
}

// testOptions is DefaultOptions on loopback port 0, two shards, around a
// small model trained on a cyclic corpus.
func testOptions(t testing.TB) Options {
	t.Helper()
	o := DefaultOptions()
	o.Bundle = trainedBundle(t, 6)
	o.UDPAddr, o.Shards = "127.0.0.1:0", 2
	return o
}

// trained holds each trainedBundle model, saved: training is
// deterministic, so each epoch count trains once.
var trained = map[int][]byte{}

// trainedBundle is a small model trained for epochs over the cyclic
// corpus. Every call returns its own copy, whose tree a stack may grow.
func trainedBundle(t testing.TB, epochs int) *bundle.Bundle {
	t.Helper()
	if _, ok := trained[epochs]; !ok {
		var buf bytes.Buffer
		if err := trainBundle(t, epochs).Save(&buf); err != nil {
			t.Fatal(err)
		}
		trained[epochs] = buf.Bytes()
	}
	b, err := bundle.Load(bytes.NewReader(trained[epochs]))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func trainBundle(t testing.TB, epochs int) *bundle.Bundle {
	tree := sigtree.New()
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1200; i++ {
		tpl := tree.Learn(normalTexts[i%len(normalTexts)])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden, cfg.MaxVocab, cfg.Epochs, cfg.OverSampleRounds = []int{16}, 16, epochs, 0
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	return &bundle.Bundle{Tree: tree, Detectors: []*detect.LSTMDetector{det}, Threshold: 4}
}

func newStack(t *testing.T, o Options) *Stack {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestEveryAnomalyExplained: on the shipped route — octet-counted TCP
// frames into the listener, four scoring shards, the default 1-in-16
// stage sampling — every anomalous verdict leaves exactly one decision
// span carrying its explanation, so /spans?anomalous=1 holds as many as
// monitor_anomalies_total counts.
func TestEveryAnomalyExplained(t *testing.T) {
	o := testOptions(t)
	o.UDPAddr, o.TCPAddr, o.Shards, o.SpanBuffer = "", "127.0.0.1:0", 4, 4096
	s := newStack(t, o)
	s.Start(context.Background())
	variant{drive: socketDrive}.feed(t, s, trafficTrace(2000), 0, 2000)

	anomalies := s.Registry.Snapshot().Counters["monitor_anomalies_total"]
	explained := s.Spans.Query(obs.SpanQuery{AnomalousOnly: true})
	if anomalies == 0 || uint64(len(explained)) != anomalies {
		t.Fatalf("%d explained spans, monitor_anomalies_total %d", len(explained), anomalies)
	}
	for _, sp := range explained {
		ex := sp.Explain
		if sp.Kind != obs.KindDecision || ex == nil || len(ex.Window) == 0 || ex.Threshold != 4 || sp.Score <= ex.Threshold {
			t.Fatalf("anomalous span without its explanation: %+v", sp)
		}
	}
	if s.Spans.Total() >= uint64(o.SpanBuffer) {
		t.Fatalf("the ring wrapped (%d spans): the count above is not the whole run", s.Spans.Total())
	}
}

var probePaths = []string{
	"/", "/metrics", "/statusz", "/traces", "/spans", "/slo", "/healthz", "/readyz",
	"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace",
	"/models", "/models/adapt", "/models/promote", "/models/rollback",
	"/chaos/", "/chaos/arm", "/chaos/disarm",
}

// TestSurfaceGolden pins the operator surface of the default stack, with
// and without the lifecycle (-adapt) and a fault registry (-chaos): the
// sorted metric families after start, one controller sample, one
// checkpoint and one /slo evaluation, and which admin paths have a
// handler. testdata/surface.golden was recorded from nfvmonitor's own
// wiring at the commit before this package existed, so a diff here is a
// metric family or route gained or lost.
func TestSurfaceGolden(t *testing.T) {
	base := testOptions(t)
	var doc strings.Builder
	for _, v := range []struct {
		name         string
		adapt, chaos bool
	}{{"default", false, false}, {"adapt", true, false}, {"chaos", false, true}, {"adapt+chaos", true, true}} {
		o := base
		o.Checkpoint = filepath.Join(t.TempDir(), "c.nfvc")
		if v.adapt {
			lcfg := lifecycle.DefaultConfig()
			o.Lifecycle = &lcfg
		}
		if v.chaos {
			o.Faults = faultinject.NewRegistry()
		}
		s := newStack(t, o)
		s.Start(nil)
		s.SampleDegrade()
		if err := s.Checkpoint("test"); err != nil {
			t.Fatal(err)
		}
		s.SLOs.Statuses()

		var prom bytes.Buffer
		s.Registry.WritePrometheus(&prom)
		var fams []string
		for _, line := range strings.Split(prom.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				fams = append(fams, strings.TrimPrefix(line, "# TYPE "))
			}
		}
		sort.Strings(fams)
		fmt.Fprintf(&doc, "== %s: metric families (2 shards)\n%s\n", v.name, strings.Join(fams, "\n"))
		mux := s.AdminMux()
		fmt.Fprintf(&doc, "== %s: admin routes\n", v.name)
		for _, p := range probePaths {
			_, pat := mux.Handler(httptest.NewRequest("GET", p, nil))
			if pat == "" {
				pat = "-"
			}
			fmt.Fprintf(&doc, "%s -> %s\n", p, pat)
		}
		s.Close()
	}
	want, err := os.ReadFile("testdata/surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if doc.String() != string(want) {
		t.Fatalf("operator surface changed:\n%s", doc.String())
	}
}

// TestRestoreOrQuarantine is the restart contract: a stack rebuilt over
// the checkpoint a previous one wrote resumes its counters and warnings; a
// corrupt checkpoint is moved aside and the stack serves cold.
func TestRestoreOrQuarantine(t *testing.T) {
	o := testOptions(t)
	o.Checkpoint = filepath.Join(t.TempDir(), "monitor.nfvc")
	first := newStack(t, o)
	if !first.RestoredAt.IsZero() {
		t.Fatal("fresh stack claims a restore")
	}
	traffic(first, 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if err := first.Checkpoint("test"); err != nil {
		t.Fatal(err)
	}
	if len(first.Monitor.Warnings()) == 0 {
		t.Fatal("fixture raised no warning")
	}

	second := newStack(t, o)
	if second.RestoredAt.IsZero() {
		t.Fatal("checkpoint on disk was not restored")
	}
	fm, fa := first.Monitor.Counters()
	sm, sa := second.Monitor.Counters()
	if fm != sm || fa != sa || len(second.Monitor.Warnings()) != len(first.Monitor.Warnings()) {
		t.Fatalf("restored state diverges: %d/%d msgs, %d/%d anomalies", sm, fm, sa, fa)
	}

	if err := os.WriteFile(o.Checkpoint, []byte("NFVCnot a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := newStack(t, o)
	if msgs, _ := third.Monitor.Counters(); !third.RestoredAt.IsZero() || msgs != 0 {
		t.Fatalf("corrupt checkpoint was not a cold start: restored=%v msgs=%d", third.RestoredAt, msgs)
	}
	if _, err := os.Stat(o.Checkpoint + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint was not quarantined: %v", err)
	}
	traffic(third, 12, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if msgs, _ := third.Monitor.Counters(); msgs != 12 {
		t.Fatalf("cold-started stack does not serve: %d messages", msgs)
	}
}

// TestChaosRefusesUnknownPoint: GET /chaos/ lists checkpoint.write from
// the start, before any checkpoint, and arming a misspelt point is refused
// with the points that exist rather than accepted to never fire.
func TestChaosRefusesUnknownPoint(t *testing.T) {
	o := testOptions(t)
	o.Faults = faultinject.NewRegistry()
	mux := newStack(t, o).AdminMux()
	do := func(method, path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code, rec.Body.String()
	}
	if _, body := do("GET", "/chaos/"); !strings.Contains(body, `"checkpoint.write"`) {
		t.Fatalf("GET /chaos/ does not list checkpoint.write: %s", body)
	}
	if code, body := do("POST", "/chaos/arm?point=chekpoint.write&mode=error"); code != 400 ||
		!strings.Contains(body, "checkpoint.write, heartbeat.skew, shard.score, shard.worker") {
		t.Fatalf("arming a misspelt point: %d %q", code, body)
	}
	if code, body := do("POST", "/chaos/arm?point=checkpoint.write&mode=error&count=1"); code != 200 {
		t.Fatalf("arming checkpoint.write: %d %q", code, body)
	}
}
