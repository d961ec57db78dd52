package scenario

import (
	"reflect"
	"testing"

	"nfvpredict/internal/eval"
)

// TestBoundsNameMetrics: every floor/ceiling tag on an assertion field
// names a row of the metrics table.
func TestBoundsNameMetrics(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(AssertSpec{}), reflect.TypeOf(LifecycleAssert{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			for _, tag := range []string{"floor", "ceiling"} {
				if name := f.Tag.Get(tag); name != "" {
					if _, ok := metricByName(name); !ok {
						t.Errorf("%s.%s: %s:%q names no metric", typ.Name(), f.Name, tag, name)
					}
				}
			}
		}
	}
}

// TestEvaluate pins each assertion's name, verdict and detail against a
// hand-made report.
func TestEvaluate(t *testing.T) {
	spec, err := Load([]byte(`
name: evaluate
lifecycle:
  enabled: true
timeline:
  - at: 40d
    checkpoint:
assert:
  min_warnings: 3
  max_warnings: 3
  max_far_per_day: 0.5
  min_precision: 0.9
  min_detected: 2
  min_mean_lead_minutes: 30
  checkpoint_parity: true
  lifecycle:
    min_cycles: 2
    min_promotions: 1
    breaker: closed
  chaos:
    - point: shard.score
  metrics:
    - name: monitor_anomalies
      min: 10
      max: 20
`))
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		Serve:     ServeReport{Anomalies: 12, CheckpointSaves: 1, CheckpointParity: true},
		Eval:      &eval.Summary{Warnings: 3, Precision: 2.0 / 3, FalseAlarmsPerDay: 0.25, DetectedTickets: 1, MeanLeadMinutes: 45.5},
		Lifecycle: &LifecycleReport{Cycles: 2, Promotions: 1, Breaker: "open"},
		Chaos:     []PointReport{{Point: "shard.score", Hits: 9, Fired: 1}},
	}
	want := []AssertionResult{
		{"zero_drops", true, "malformed=0 shard_dropped=0"},
		{"min_warnings", true, "eval_warnings=3 want>=3"},
		{"max_warnings", true, "eval_warnings=3 want<=3"},
		{"max_far_per_day", true, "far_per_day=0.250 want<=0.500"},
		{"min_precision", false, "precision=0.667 want>=0.900"},
		{"min_detected", false, "eval_detected=1 want>=2"},
		{"min_mean_lead_minutes", true, "mean_lead_minutes=45.500 want>=30"},
		{"checkpoint_parity", true, "saves=1 parity=true"},
		{"lifecycle.min_cycles", true, "lifecycle_cycles=2 want>=2"},
		{"lifecycle.min_promotions", true, "lifecycle_promotions=1 want>=1"},
		{"lifecycle.breaker", false, "breaker=open want=closed"},
		{"chaos.shard.score", true, "fired=1 want>=1"},
		{"metric.monitor_anomalies", true, "monitor_anomalies=12 want>=10 want<=20"},
	}
	if got := evaluate(spec, rep); !reflect.DeepEqual(got, want) {
		t.Errorf("evaluate:\n got %v\nwant %v", got, want)
	}

	// With no lifecycle report the block fails as a whole.
	rep.Lifecycle = nil
	want = append(append(want[:8:8], AssertionResult{"lifecycle", false, "no lifecycle ran"}), want[11:]...)
	if got := evaluate(spec, rep); !reflect.DeepEqual(got, want) {
		t.Errorf("evaluate without a lifecycle:\n got %v\nwant %v", got, want)
	}
}
