package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/obs"
	"nfvpredict/internal/resilience"
)

// TestSLOBurnShedsLearning pins the SLO → degrader chain: an induced
// drop burst flips the shard_drop_ratio fast window (visible at /slo)
// while the degrader is still in normal mode, and the next controller
// sample sheds learning with the SLO burn as its reason — the early
// warning fires before the shed, not after. The -profile-on-burn hook
// captures its CPU profile on the same tick.
func TestSLOBurnShedsLearning(t *testing.T) {
	a, mux := testApp(t, nil)
	a.Profiler = obs.NewBurnProfiler(t.TempDir(), 50*time.Millisecond, time.Hour, a.log)
	a.Profiler.Export(a.Registry)
	a.SampleDegrade() // prime the controller's delta baselines

	if got := a.Degrader.Mode(); got != resilience.ModeNormal {
		t.Fatalf("baseline mode = %v", got)
	}
	// An overload burst: the ingest server would record every shard-queue
	// refusal as a bad admission event. 30% bad over a 1% budget is burn
	// 30 — past the 14.4 fast threshold.
	a.SLODrops.RecordN(70, 30)

	// The burn is already visible on /slo while the degrader still reads
	// normal: the SLO surface leads the shed.
	code, body := get(t, mux, "/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo: %d", code)
	}
	var doc struct {
		SLOs []obs.SLOStatus `json:"slos"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/slo JSON: %v\n%s", err, body)
	}
	var drop *obs.SLOStatus
	for i := range doc.SLOs {
		if doc.SLOs[i].Name == "shard_drop_ratio" {
			drop = &doc.SLOs[i]
		}
	}
	if drop == nil || !drop.Fast.Burning {
		t.Fatalf("/slo does not show the drop burn: %s", body)
	}
	if got := a.Degrader.Mode(); got != resilience.ModeNormal {
		t.Fatalf("degrader shed before its sampling tick: %v", got)
	}

	// The controller's next sample consumes the burn: learning shed,
	// reason naming the SLO, burn profile captured.
	a.SampleDegrade()
	if got := a.Degrader.Mode(); got != resilience.ModeShedLearning {
		t.Fatalf("mode after burn sample = %v, want shed-learning", got)
	}
	if reason := a.Degrader.Reason(); !strings.Contains(reason, "SLO") {
		t.Fatalf("shed reason = %q, want the SLO burn named", reason)
	}
	if got := a.Registry.Snapshot().Counters["slo_burn_profiles_total"]; got != 1 {
		t.Fatalf("burn profiles captured = %d, want 1", got)
	}
	// Scoring still runs at shed-learning, so warning availability stays
	// good — both availability ticks so far were sheddable-free.
	if st := a.SLOAvail.Status(); st.Fast.Good != 2 || st.Fast.Bad != 0 {
		t.Fatalf("availability SLO = %+v", st.Fast)
	}

	// The burning objective's exported gauge flipped with the Statuses
	// refresh the /slo render performed.
	if v := a.Registry.Snapshot().Gauges["shard_drop_ratio_slo_fast_burning"]; v != 1 {
		t.Fatalf("burning gauge = %v", v)
	}
}

// TestStatuszObservabilitySections checks /statusz gained the PR's
// sections: build info from the running binary, the SLO evaluations, and
// the span-ring total.
func TestStatuszObservabilitySections(t *testing.T) {
	a, mux := testApp(t, nil)
	a.Spans.Add(obs.Span{TraceID: 1, Kind: obs.KindDecision, Sampled: true, TotalNS: 100})
	_, body := get(t, mux, "/statusz")
	var doc struct {
		Build struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
		Spans uint64          `json:"spans_total"`
		SLOs  []obs.SLOStatus `json:"slos"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	if doc.Build.GoVersion == "" {
		t.Fatalf("statusz build section empty: %s", body)
	}
	if doc.Spans != 1 {
		t.Fatalf("spans_total = %d", doc.Spans)
	}
	names := map[string]bool{}
	for _, s := range doc.SLOs {
		names[s.Name] = true
	}
	for _, want := range []string{"accept_verdict_latency", "shard_drop_ratio", "warning_availability"} {
		if !names[want] {
			t.Fatalf("statusz slos missing %q: %v", want, names)
		}
	}
}

// TestOneInferenceEngineSurface pins that serving precision is not a
// setting: /statusz and /metrics report no precision or packed-weight
// figure, and -precision is an undefined flag, not an accepted no-op.
func TestOneInferenceEngineSurface(t *testing.T) {
	_, mux := testApp(t, nil)
	_, body := get(t, mux, "/statusz")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"precision", "model_packed_bytes"} {
		if _, ok := doc[key]; ok {
			t.Errorf("statusz still carries %q", key)
		}
	}
	_, metrics := get(t, mux, "/metrics")
	for _, series := range []string{"serving_precision_info", "model_packed_bytes"} {
		if strings.Contains(metrics, series) {
			t.Errorf("/metrics still exports %s", series)
		}
	}
	fs := flag.NewFlagSet("nfvmonitor", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs, new(options))
	if err := fs.Parse([]string{"-precision", "f64"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-precision f64 must fail as an undefined flag, got: %v", err)
	}
}

// TestWarningLogRateLimited checks the app-level logger wiring: the stack
// arms the per-key token bucket and exports the suppression counter.
func TestWarningLogRateLimited(t *testing.T) {
	a, _ := testApp(t, nil)
	for i := 0; i < 20; i++ {
		a.log.WarnLimited("vpe01", "warning signature", "i", i)
	}
	if got := a.Registry.Snapshot().Counters["log_suppressed_total"]; got != 15 {
		t.Fatalf("suppressed = %d, want 15 of 20 past the burst of 5", got)
	}
}
