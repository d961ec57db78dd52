package pipeline

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/ticket"
)

func trainDataset(t *testing.T) *Dataset {
	return testDataset(t, func(c *nfvsim.Config) { c.NumVPEs = 6; c.Months = 2; c.UpdateMonth = -1 })
}

// TestTrainGroupsParallelismInvariant: groups train side by side, and what
// each learns may not depend on how many train at once.
func TestTrainGroupsParallelismInvariant(t *testing.T) {
	ds := trainDataset(t)
	groups := [][]string{ds.VPEs[:2], ds.VPEs[2:4], ds.VPEs[4:]}
	fingerprints := func(parallelism int) ([]uint64, int) {
		cfg := fastConfig(Customized, MethodLSTM)
		cfg.Parallelism = parallelism
		dets, events, err := TrainGroups(ds, cfg, groups, ds.MonthStart(0), ds.MonthStart(1))
		if err != nil {
			t.Fatal(err)
		}
		var fps []uint64
		for _, d := range dets {
			fps = append(fps, d.(*detect.LSTMDetector).Fingerprint())
		}
		return fps, events
	}
	serial, n1 := fingerprints(1)
	parallel, n8 := fingerprints(8)
	if !reflect.DeepEqual(serial, parallel) || n1 != n8 {
		t.Fatalf("parallelism 1 trained %x on %d events, parallelism 8 %x on %d", serial, n1, parallel, n8)
	}
	if serial[0] == 0 || serial[0] == serial[1] || serial[1] == serial[2] {
		t.Fatalf("groups must train, each from its own seed: %x", serial)
	}
}

// TestClusterFleetFixedK: KMin == KMax asks for exactly that many clusters,
// and Baseline for one whatever the range says.
func TestClusterFleetFixedK(t *testing.T) {
	ds := trainDataset(t)
	from, to := ds.MonthStart(0), ds.MonthStart(1)
	cfg := fastConfig(Customized, MethodLSTM)
	hists := make(map[string]cluster.Histogram)
	for _, v := range ds.VPEs {
		hists[v] = ds.MonthHistogram(v, 0)
	}
	for k := 1; k <= 3; k++ {
		cfg.KMin, cfg.KMax = k, k
		got, groups, err := ClusterFleet(ds, cfg, from, to)
		if err != nil {
			t.Fatal(err)
		}
		want := cluster.KMeans(hists, k, cfg.ClusterDim, cfg.LSTM.Seed)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: ClusterFleet %+v, KMeans %+v", k, got, want)
		}
		for ci, members := range groups {
			if !reflect.DeepEqual(members, want.Members(ci)) {
				t.Errorf("k=%d cluster %d: members %v, want %v", k, ci, members, want.Members(ci))
			}
		}
	}
	cfg.Variant = Baseline
	if got, _, err := ClusterFleet(ds, cfg, from, to); err != nil || got.K != 1 {
		t.Errorf("Baseline with K range [3,3]: K=%d err=%v, want one cluster", got.K, err)
	}
}

// TestNoCleanDataRule holds both halves of the one rule. A walk-forward
// caller gets an untrained detector — never nil — that scores nothing and
// that a later Update trains; a caller that ships its models is refused
// before anything trains, with the cluster and its members named.
func TestNoCleanDataRule(t *testing.T) {
	ds := trainDataset(t)
	starved := ds.VPEs[0]
	ds.Tickets = append(ds.Tickets, ticket.Ticket{
		ID: 9001, VPE: starved, Cause: ticket.Circuit, DuplicateOf: -1,
		Report: ds.MonthStart(0).Add(24 * time.Hour), Repair: ds.MonthStart(1),
	})
	cfg := fastConfig(Customized, MethodLSTM)
	groups := [][]string{{starved}, ds.VPEs[1:]}
	dets, _, err := TrainGroups(ds, cfg, groups, ds.MonthStart(0), ds.MonthStart(1))
	if err != nil {
		t.Fatal(err)
	}
	assign := map[string]int{}
	for _, v := range ds.VPEs[1:] {
		assign[v] = 1
	}
	if dets[0] == nil || dets[0].(*detect.LSTMDetector).Fingerprint() != 0 {
		t.Fatalf("starved group: detector %v, want untrained and non-nil", dets[0])
	}
	for _, e := range scoreRange(ds, dets, assign, ds.MonthStart(0), ds.MonthStart(1), 1) {
		if e.VPE == starved {
			t.Fatal("an untrained detector scored an event")
		}
	}
	if err := dets[0].Update(ds.CleanStreams(groups[0], ds.MonthStart(1), ds.MonthStart(2), cfg.TrainExclusion)); err != nil {
		t.Fatal(err)
	}
	if dets[0].(*detect.LSTMDetector).Fingerprint() == 0 {
		t.Fatal("Update did not give the starved group its first training")
	}

	// The shipping half: one of two clusters starved. With the run
	// observed, no cluster's detector has run an epoch after the refusal.
	cfg.KMin, cfg.KMax = 2, 2
	cfg.Metrics = obs.NewRegistry()
	_, shipped, err := ClusterFleet(ds, cfg, ds.MonthStart(0), ds.MonthStart(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range shipped[0] {
		ds.Tickets = append(ds.Tickets, ticket.Ticket{
			ID: 9002 + i, VPE: v, Cause: ticket.Circuit, DuplicateOf: -1,
			Report: ds.MonthStart(0).Add(24 * time.Hour), Repair: ds.MonthStart(1),
		})
	}
	_, err = TrainModels(ds, cfg, 1)
	if err == nil || !strings.Contains(err.Error(), "cluster 0") || !strings.Contains(err.Error(), shipped[0][0]) {
		t.Fatalf("TrainModels on a starved cluster: %v", err)
	}
	for name, n := range cfg.Metrics.Snapshot().Counters {
		if strings.HasSuffix(name, "_lstm_epochs_total") && n != 0 {
			t.Errorf("%s = %d after the refusal: the check must come before training", name, n)
		}
	}
}
