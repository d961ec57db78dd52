package serve

import (
	"bytes"
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
	"nfvpredict/internal/logfmt"
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
func testOptions(t *testing.T) Options {
	t.Helper()
	tree := sigtree.New()
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1200; i++ {
		tpl := tree.Learn(normalTexts[i%len(normalTexts)])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden, cfg.MaxVocab, cfg.Epochs, cfg.OverSampleRounds = []int{16}, 16, 6, 0
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Bundle = &bundle.Bundle{Tree: tree, Detectors: []*detect.LSTMDetector{det}, Threshold: 4}
	o.UDPAddr, o.Shards = "127.0.0.1:0", 2
	return o
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

// feed scores n healthy messages, then a four-message anomaly burst.
func feed(s *Stack, n int) {
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n+4; i++ {
		text := normalTexts[i%len(normalTexts)]
		if i >= n {
			text = fmt.Sprintf("unexpected fabric drop alarm code %d on plane %d", 7+i, i)
		}
		s.Monitor.HandleMessage(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd", Text: text})
		at = at.Add(2 * time.Second)
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
		mux := s.AdminMux(nil)
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
	feed(first, 60)
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
	feed(third, 8)
	if msgs, _ := third.Monitor.Counters(); msgs != 12 {
		t.Fatalf("cold-started stack does not serve: %d messages", msgs)
	}
}
