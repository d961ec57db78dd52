package nfvpredict

import (
	"strings"
	"testing"
	"time"
)

// smokeSystem runs the public-API end-to-end path once and shares it.
func smokeSystem(t *testing.T) *System {
	t.Helper()
	simCfg := SmallSimConfig()
	simCfg.NumVPEs = 5
	simCfg.Months = 3
	simCfg.UpdateMonth = -1
	trace, err := Simulate(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Variant = Customized
	cfg.LSTM.Hidden = []int{16}
	cfg.LSTM.Epochs = 2
	cfg.LSTM.OverSampleRounds = 1
	cfg.LSTM.MaxWindowsPerEpoch = 800
	cfg.KMax = 4
	sys, err := AnalyzeTrace(trace, simCfg.Start, simCfg.Months, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end in -short mode")
	}
	sys := smokeSystem(t)
	if sys.Result.Best.F <= 0 {
		t.Fatalf("no useful operating point: %+v", sys.Result.Best)
	}
	if len(sys.Result.Monthly) != 2 {
		t.Fatalf("monthly: %d", len(sys.Result.Monthly))
	}
	report := sys.Report()
	for _, want := range []string{"operating point", "monthly F-measure", "Figure 8", "Circuit", "ALL"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	fig8 := sys.FigureEight()
	if len(fig8) != 6 { // 5 causes + ALL
		t.Fatalf("figure 8 rows: %d", len(fig8))
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := DefaultSimConfig()
	bad.NumVPEs = 0
	if _, err := Simulate(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSimulateDeterministicAtAPI(t *testing.T) {
	cfg := SmallSimConfig()
	cfg.Months = 1
	cfg.UpdateMonth = -1
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Messages) != len(b.Messages) || len(a.Tickets) != len(b.Tickets) {
		t.Fatal("API-level simulation not deterministic")
	}
}

func TestNewDatasetFromMessagesRoundTrip(t *testing.T) {
	cfg := SmallSimConfig()
	cfg.Months = 1
	cfg.UpdateMonth = -1
	cfg.NumVPEs = 3
	trace, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds1 := NewDataset(trace, cfg.Start, cfg.Months)
	ds2 := NewDatasetFromMessages(trace.Messages, trace.Tickets, trace.VPENames, cfg.Start, cfg.Months)
	if len(ds1.VPEs) != len(ds2.VPEs) || ds1.Tree.Len() != ds2.Tree.Len() {
		t.Fatal("dataset construction paths diverge")
	}
	for _, v := range ds1.VPEs {
		if len(ds1.Streams[v]) != len(ds2.Streams[v]) {
			t.Fatalf("stream lengths diverge for %s", v)
		}
	}
}

func TestDefaultConfigsAreUsable(t *testing.T) {
	if DefaultConfig().Variant != CustomizedAdaptive {
		t.Fatal("default variant should be the full system")
	}
	if DefaultLSTMConfig().MaxVocab < 2 {
		t.Fatal("default LSTM config degenerate")
	}
	if DefaultSimConfig().NumVPEs != 38 || DefaultSimConfig().Months != 18 {
		t.Fatal("default simulation should mirror the paper's scale")
	}
}

func TestTicketStoreReExport(t *testing.T) {
	cfg := SmallSimConfig()
	cfg.Months = 2
	cfg.UpdateMonth = -1
	trace, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	months := NewTicketStore(trace.Tickets).MonthlyByCause(cfg.Start, cfg.End())
	if len(months) != 2 {
		t.Fatal("monthly breakdown wrong")
	}
	if months[0].Total+months[1].Total != len(trace.Tickets) {
		t.Fatal("store mismatch")
	}
}

func TestSignatureTreeReExport(t *testing.T) {
	tree := NewSignatureTree()
	tpl := tree.Learn("interface ge-0/0/1 down")
	if tpl.ID != 0 {
		t.Fatal("sigtree re-export broken")
	}
}

func TestPredictiveWindowSweepAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end in -short mode")
	}
	sys := smokeSystem(t)
	curves := PredictiveWindowSweep(sys.Dataset, sys.Result, sys.Config, []time.Duration{time.Hour, 24 * time.Hour})
	if len(curves) != 2 {
		t.Fatalf("curves: %d", len(curves))
	}
	if BestF(curves[24*time.Hour]).F <= 0 {
		t.Fatal("sweep produced empty curve")
	}
	if auc := AUCPR(curves[24*time.Hour]); auc < 0 {
		t.Fatalf("AUC: %v", auc)
	}
}
