package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/ticket"
)

// writeTrace simulates a 6-vPE × 2-month update-free fleet (seed 1) and
// writes it the way `nfvscen dump` does; mutate edits the tickets first.
func writeTrace(t *testing.T, mutate func(tr *nfvsim.Trace)) (tracePath, ticketsPath string) {
	t.Helper()
	cfg := nfvsim.DefaultConfig()
	cfg.NumVPEs, cfg.Months, cfg.Seed, cfg.UpdateMonth = 6, 2, 1, -1
	d, err := nfvsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(tr)
	}
	dir := t.TempDir()
	tracePath, ticketsPath = filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "tickets.csv")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := logfmt.NewWriter(f)
	for i := range tr.Messages {
		if err := w.Write(&tr.Messages[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	kf, err := os.Create(ticketsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer kf.Close()
	if err := ticket.WriteCSV(kf, tr.Tickets); err != nil {
		t.Fatal(err)
	}
	return tracePath, ticketsPath
}

// TestTrainGolden pins what `nfvtrain -months 1` writes for a fixed trace:
// cluster count and assignment, signature tree, every detector's weights,
// the operating threshold to the bit, and one training histogram per
// cluster (as templates:events). The constants were recorded at commit 6c7c420, when this file's
// run() spelled out clustering, training and thresholding by hand; the
// trainer it now calls (pipeline.TrainBundle) is held to the same bundle,
// under the assembly kernels and under -tags purego.
func TestTrainGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64 (see detect.TestTrainedFingerprintGolden)")
	}
	tracePath, ticketsPath := writeTrace(t, nil)
	out := filepath.Join(filepath.Dir(tracePath), "model.bundle")
	if err := run(tracePath, ticketsPath, out, "", 1, 8, "", false); err != nil {
		t.Fatal(err)
	}
	b, err := bundle.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]string, 0, len(b.Assign))
	for h := range b.Assign {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	var got strings.Builder
	fmt.Fprintf(&got, "k=%d assign=", len(b.Detectors))
	for _, h := range hosts {
		fmt.Fprintf(&got, "%s:%d,", h, b.Assign[h])
	}
	fmt.Fprintf(&got, " tree=%#x dets=", b.Tree.Fingerprint())
	for _, d := range b.Detectors {
		fmt.Fprintf(&got, "%#x,", d.Fingerprint())
	}
	fmt.Fprintf(&got, " threshold=%#x hists=", math.Float64bits(b.Threshold))
	for _, h := range b.TrainHist {
		var events float64
		for _, n := range h {
			events += n
		}
		fmt.Fprintf(&got, "%d:%v,", len(h), events)
	}
	const want = "k=2 assign=vpe00:0,vpe01:0,vpe02:1,vpe03:0,vpe04:1,vpe05:0," +
		" tree=0x9428381dd40d4fde dets=0x5c835a855b85f076,0x58ead194e78bdf58," +
		" threshold=0x40189b6956ff57aa hists=23:4372,19:1993,"
	if got.String() != want {
		t.Errorf("bundle moved:\n got %s\nwant %s", got.String(), want)
	}
}

// TestTrainFailsFastOnClusterWithoutCleanData: a fleet whose every vPE is
// inside a ticket's exclusion window for the whole training range has no
// normal data to learn from. The run must say so, naming the cluster and
// its members, and write no bundle. That the refusal comes before any
// training is pipeline's TestNoCleanDataRule: run keeps its registry.
func TestTrainFailsFastOnClusterWithoutCleanData(t *testing.T) {
	tracePath, ticketsPath := writeTrace(t, func(tr *nfvsim.Trace) {
		tr.Tickets = tr.Tickets[:0]
		for i, v := range tr.VPENames {
			tr.Tickets = append(tr.Tickets, ticket.Ticket{
				ID: i + 1, VPE: v, Cause: ticket.Circuit, DuplicateOf: -1,
				Report: nfvsim.DefaultConfig().Start.AddDate(0, 0, 1),
				Repair: nfvsim.DefaultConfig().Start.AddDate(0, 3, 0),
			})
		}
	})
	out := filepath.Join(filepath.Dir(tracePath), "model.bundle")
	err := run(tracePath, ticketsPath, out, "", 1, 1, "", false)
	if err == nil {
		t.Fatal("a fleet with no clean training data trained a bundle")
	}
	if msg := err.Error(); !strings.Contains(msg, "cluster 0") || !strings.Contains(msg, "vpe00") ||
		!strings.Contains(msg, "no clean training data") {
		t.Errorf("error does not name the cluster and its members: %v", err)
	}
	if _, serr := os.Stat(out); serr == nil {
		t.Error("a bundle was written")
	}
}
