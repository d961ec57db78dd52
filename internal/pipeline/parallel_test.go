package pipeline

import (
	"testing"

	"nfvpredict/internal/nfvsim"
)

// parallelConfig sets the one concurrency knob: parallel per-cluster
// training, parallel scoring and the over-sampling loss fan-out.
func parallelConfig(parallelism int) Config {
	cfg := fastConfig(CustomizedAdaptive, MethodLSTM)
	cfg.Parallelism = parallelism
	return cfg
}

// The acceptance contract for parallel training: a fixed-seed walk-forward
// run produces identical detection results whether everything runs on one
// goroutine or many.
func TestRunParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipeline runs in -short mode")
	}
	ds := testDataset(t, func(c *nfvsim.Config) { c.NumVPEs = 6; c.Months = 3; c.UpdateMonth = 2 })
	serial, err := Run(ds, parallelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ds, parallelConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Events) != len(parallel.Events) {
		t.Fatalf("event counts diverged: %d vs %d", len(serial.Events), len(parallel.Events))
	}
	for i := range serial.Events {
		if serial.Events[i] != parallel.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, serial.Events[i], parallel.Events[i])
		}
	}
	if serial.Best != parallel.Best {
		t.Fatalf("best operating point diverged: %+v vs %+v", serial.Best, parallel.Best)
	}
	for i := range serial.Monthly {
		if serial.Monthly[i] != parallel.Monthly[i] {
			t.Fatalf("month %d diverged: %+v vs %+v", i, serial.Monthly[i], parallel.Monthly[i])
		}
	}
}

// TestRunParallelTrainingRace exists to be run under the race detector
// (make test-race): it drives concurrent per-cluster training, the
// over-sampling loss fan-out, mid-month adaptation, and concurrent
// scoring on the shared detectors in one walk-forward run.
func TestRunParallelTrainingRace(t *testing.T) {
	ds := testDataset(t, func(c *nfvsim.Config) { c.NumVPEs = 6; c.Months = 3; c.UpdateMonth = 2 })
	cfg := parallelConfig(4)
	cfg.LSTM.Epochs = 1
	cfg.LSTM.MaxWindowsPerEpoch = 300
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no scored events")
	}
}

// BenchmarkPipelineInitialTrain isolates the per-cluster initial-training
// stage (clustering excluded), the dominant cost of a pipeline run.
func BenchmarkPipelineInitialTrain(b *testing.B) {
	ds := testDataset(b, func(c *nfvsim.Config) { c.Months = 2; c.NumVPEs = 8; c.UpdateMonth = -1 })
	cfg := fastConfig(Customized, MethodLSTM)
	_, groups, err := ClusterFleet(ds, cfg, ds.MonthStart(0), ds.MonthStart(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainGroups(ds, cfg, groups, ds.MonthStart(0), ds.MonthStart(1)); err != nil {
			b.Fatal(err)
		}
	}
}
