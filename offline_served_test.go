package nfvpredict

import (
	"sort"
	"testing"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/pipeline"
)

// TestOfflineEqualsServed holds the reference pipeline and the serving path
// to one answer. Models are trained on month 0 of the seed scenario; month
// 1 is then judged twice: offline, by scoring the dataset's own event
// streams (templated by the tree BuildDataset grew over the whole trace)
// and clustering the anomalies, and served, by sending the month-1
// messages through a one-shard monitor that starts from the month-0 tree
// and learns the rest live. Both must template every message alike and
// raise the same warnings, as a multiset of (vPE, first-anomaly time).
// Warning.Size is not compared: offline it is the cluster's final size,
// served it is the size when the warning was emitted.
func TestOfflineEqualsServed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed parity gate in -short mode")
	}
	simCfg := SmallSimConfig()
	simCfg.NumVPEs = 6
	simCfg.Months = 2
	simCfg.UpdateMonth = -1
	trace, err := Simulate(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := pipeline.BuildDataset(trace, simCfg.Start, simCfg.Months)
	b, err := pipeline.TrainModels(ds, pipeline.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	from, to := ds.MonthStart(1), ds.MonthStart(2)

	// Offline. The threshold is a quantile of the month's own scores, so
	// there are anomalies to cluster.
	var scored []detect.ScoredEvent
	for _, v := range ds.VPEs {
		scored = append(scored, b.DetectorFor(v).Score(v, ds.RangeEvents(v, from, to))...)
	}
	thr := detect.ScoreQuantile(scored, 0.95)
	offline := detect.ClusterWarnings(detect.Threshold(scored, thr), detect.DefaultClusterWindow, detect.DefaultMinClusterSize)
	if len(offline) < 3 {
		t.Fatalf("offline run raised %d warnings; test has no teeth", len(offline))
	}

	// Served, from the tree as it stood at the end of month 0.
	first := sort.Search(len(trace.Messages), func(i int) bool {
		return !trace.Messages[i].Time.Before(from)
	})
	month0 := &nfvsim.Trace{Messages: trace.Messages[:first], VPENames: trace.VPENames}
	served := make(map[string][]features.Event)
	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold = thr
	mcfg.Shards = 1
	mcfg.OnScored = func(host string, _ int, ev features.Event, _ float64, _, _ bool) {
		served[host] = append(served[host], ev)
	}
	mon := ingest.NewMonitorWithResolver(mcfg, pipeline.BuildDataset(month0, simCfg.Start, 1).Tree, b.DetectorFor, nil)
	mon.Start()
	for _, m := range trace.Messages[first:] {
		if _, ok := ds.Streams[m.Host]; !ok {
			continue // not a vPE: the dataset never saw it either
		}
		for !mon.Enqueue(m) {
			time.Sleep(100 * time.Microsecond) // queue full: let the worker drain
		}
	}
	mon.Stop()

	for _, v := range ds.VPEs {
		want, got := ds.RangeEvents(v, from, to), served[v]
		if len(want) != len(got) {
			t.Fatalf("%s: %d events offline, %d served", v, len(want), len(got))
		}
		for i := range want {
			if !want[i].Time.Equal(got[i].Time) || want[i].Template != got[i].Template {
				t.Fatalf("%s event %d: offline %+v, served %+v", v, i, want[i], got[i])
			}
		}
	}
	type key struct {
		vpe string
		at  int64
	}
	count := make(map[key]int)
	for _, w := range offline {
		count[key{w.VPE, w.Time.UnixNano()}]++
	}
	for _, w := range mon.Warnings() {
		count[key{w.VPE, w.Time.UnixNano()}]--
	}
	for k, n := range count {
		if n != 0 {
			t.Errorf("warning %s at %s: %+d offline over served", k.vpe, time.Unix(0, k.at).UTC(), n)
		}
	}
}
