package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/eval"
	"nfvpredict/internal/features"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/ticket"
)

// TestSmoke runs all four workloads, untraced and traced, at -quick scale.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := runWorkload(w, quickScale, 1, 0.2, -1, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			res := r.res
			for _, msg := range res.Errors {
				t.Errorf("oracle: %s", msg)
			}
			if !res.Correct || res.FramesFailed != 0 || res.FramesSent == 0 {
				t.Errorf("correct=%v frames_sent=%d frames_failed=%d", res.Correct, res.FramesSent, res.FramesFailed)
			}
			check := func(defs []metricDef, got map[string]metric, nonZero bool) {
				if len(got) != len(defs) {
					t.Errorf("got %d metrics, catalogue has %d", len(got), len(defs))
				}
				for _, d := range defs {
					m, ok := got[d.Name]
					switch {
					case !ok:
						t.Errorf("%s: missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v is not finite", d.Name, m.Value)
					case nonZero && m.Value <= 0:
						t.Errorf("%s: %v, and an end-to-end metric is never 0", d.Name, m.Value)
					}
				}
			}
			check(endToEnd, res.EndToEnd, true)
			check(perLayer, res.PerLayer, false)

			// The generator waits by blocking on the channel OnScored
			// feeds; only a shedding monitor, whose hook is silent, is polled.
			if r.blocked == 0 {
				t.Error("the generator never blocked on a verdict")
			}
			if w.shed != (r.polls > 0) {
				t.Errorf("polls=%d with shed=%v", r.polls, w.shed)
			}

			if w.adapt && res.PerLayer["sigtree.new_templates"].Value == 0 {
				t.Error("the update brought no new template")
			}
			for _, name := range []string{"lifecycle.cycle_s", "lifecycle.promotions"} {
				if v := res.PerLayer[name].Value; w.adapt != (v > 0) {
					t.Errorf("%s=%v with adapt=%v", name, v, w.adapt)
				}
			}
			if v := res.PerLayer["monitor.shed"].Value; w.shed != (v > 0) {
				t.Errorf("monitor.shed=%v with shed=%v", v, w.shed)
			}

			data, err := os.ReadFile(filepath.Join(dir, "trace_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 || len(doc.Spans)%6 != 0 {
				t.Fatalf("%d spans, want a message span and five stage spans per traced message", len(doc.Spans))
			}
			for i := 0; i < len(doc.Spans); i += 6 {
				root := doc.Spans[i]
				for _, child := range doc.Spans[i+1 : i+6] {
					if child.Parent != root.ID || child.Trace != root.Trace || child.StartNS < root.StartNS || child.EndNS > root.EndNS {
						t.Fatalf("span %+v does not nest in its message span %+v", child, root)
					}
				}
			}
		})
	}
}

// TestTrainerParity holds train to cmd/nfvtrain: the loop below is that
// command's run(), from BuildDatasetFromMessages to the threshold, with its
// logging and metrics removed. Same K, same detector weights, same
// threshold — so the benchmark serves the model the shipped trainer ships.
func TestTrainerParity(t *testing.T) {
	w := findWorkload("fleet_steady")
	dep, err := nfvsim.New(simConfig(w, quickScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dep.Generate()
	if err != nil {
		t.Fatal(err)
	}
	end := simStart.Add(trainDays * day)
	n := 0
	for n < len(tr.Messages) && tr.Messages[n].Time.Before(end) {
		n++
	}
	msgs := tr.Messages[:n]
	var tickets []ticket.Ticket
	for _, tk := range tr.Tickets {
		if tk.Report.Before(end) {
			tickets = append(tickets, tk)
		}
	}
	const months, kMax = 1, 8 // cmd/nfvtrain's -months and -kmax defaults

	ds := pipeline.BuildDatasetFromMessages(msgs, tickets, tr.VPENames, simStart, months)
	cfg := pipeline.DefaultConfig()
	cfg.KMax = kMax
	cfg.LSTM.Hidden = quickScale.hidden
	hists := make(map[string]cluster.Histogram, len(ds.VPEs))
	for _, v := range ds.VPEs {
		hists[v] = ds.MonthHistogram(v, 0)
	}
	cl, err := cluster.SelectK(hists, cfg.KMin, cfg.KMax, cfg.ClusterDim, cfg.LSTM.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var dets []*detect.LSTMDetector
	var allScored []detect.ScoredEvent
	endTrain := ds.MonthStart(months)
	for ci := 0; ci < cl.K; ci++ {
		var streams [][]features.Event
		for _, v := range cl.Members(ci) {
			if ev := ds.CleanEvents(v, ds.MonthStart(0), endTrain, cfg.TrainExclusion); len(ev) > 0 {
				streams = append(streams, ev)
			}
		}
		lcfg := cfg.LSTM
		lcfg.Seed += int64(ci) * 101
		det := detect.NewLSTMDetector(lcfg)
		dets = append(dets, det)
		if len(streams) == 0 {
			continue
		}
		if err := det.Train(streams); err != nil {
			t.Fatal(err)
		}
		for _, v := range cl.Members(ci) {
			allScored = append(allScored, det.Score(v, ds.RangeEvents(v, ds.MonthStart(0), endTrain))...)
		}
	}
	thrs := detect.ThresholdSweep(allScored, cfg.SweepPoints)
	want := eval.BestF(eval.PRCurve(allScored, tickets, thrs, cfg.Eval, ds.MonthStart(0), endTrain)).Threshold

	fx, err := setup(w, quickScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Load(bytes.NewReader(fx.bundle))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Detectors) != cl.K {
		t.Fatalf("K=%d, cmd/nfvtrain's steps give %d", len(b.Detectors), cl.K)
	}
	for ci, d := range dets {
		if got := b.Detectors[ci].Fingerprint(); got != d.Fingerprint() {
			t.Errorf("cluster %d: fingerprint %x, cmd/nfvtrain's steps give %x", ci, got, d.Fingerprint())
		}
	}
	if b.Threshold != want {
		t.Errorf("threshold %v, cmd/nfvtrain's steps give %v", b.Threshold, want)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the driver's contract file and
// the program's catalogue from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, catalogue has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, catalogue has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, catalogue has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: %+v, catalogue has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestCompare checks the bound arithmetic in both directions.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, thr, rtt float64, failed int) string {
		rep := report{Results: []result{{
			Workload: "fleet_steady", FramesSent: 1000, FramesFailed: failed, Correct: failed == 0,
			EndToEnd: map[string]metric{
				"throughput_ceiling_msgs_s": {thr, "msgs/s"},
				"verdict_rtt_floor_us":      {rtt, "us"},
				"setup_s":                   {3, "s"},
			},
		}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	base := write("a.json", 100000, 50, 0)
	for _, tc := range []struct {
		name     string
		thr, rtt float64
		failed   int
		ok       bool
	}{
		{"same", 100000, 50, 0, true},
		{"within", 80000, 52, 0, true},
		{"better", 150000, 30, 0, true},
		{"slower", 70000, 50, 0, false},
		{"laggier", 100000, 56, 0, false},
		{"failing", 100000, 50, 1, false},
	} {
		ok, err := compareReports(null, base, write(tc.name+".json", tc.thr, tc.rtt, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare says ok=%v, want %v", tc.name, ok, tc.ok)
		}
	}
}

// TestMeterCeiling feeds the meter stamps of known spacing: 100 windows at
// 100 k msgs/s, one that holds a drain, then 99 at 125 k msgs/s, with two
// neighbouring stamps swapped as two shard workers can leave them.
func TestMeterCeiling(t *testing.T) {
	m := newMeter(256)
	var ns, n int64
	put := func(gapNS int64) {
		ns, n = ns+gapNS, n+m.every
		m.stamps[m.next.Add(1)-1] = stamp{ns, n}
	}
	put(0)
	for i := 0; i < 100*4; i++ {
		put(640_000) // 64 messages in 640 µs
	}
	from := m.mark()
	put(50_000_000) // a drain between passes
	for i := 0; i < 100*4; i++ {
		put(512_000)
	}
	m.stamps[10], m.stamps[11] = m.stamps[11], m.stamps[10]

	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6*want }
	if got, windows := m.ceiling(0, 0.25); windows != 200 || !near(got, 100e3) {
		t.Errorf("lower quartile of all windows: %v over %d windows, want 100000 over 200", got, windows)
	}
	if got, _ := m.ceiling(0, 0.99); !near(got, 125e3) {
		t.Errorf("ceiling of all windows: %v, want 125000", got)
	}
	// From the mark on, the first window holds the drain.
	if got, windows := m.ceiling(from-1, 0); windows != 100 || got > 6e3 {
		t.Errorf("slowest window after the mark: %v over %d windows, want the drain's over 100", got, windows)
	}
	if got, windows := newMeter(256).ceiling(0, 0.99); got != 0 || windows != 0 {
		t.Errorf("empty meter: %v over %d windows", got, windows)
	}
}
