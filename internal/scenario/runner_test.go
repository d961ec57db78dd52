package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// e2eDoc is a compact full-stack scenario: a small fleet, an injected
// regional fault plus a ticketless burst, a chaos panic, a checkpoint
// parity probe, and a degrade excursion. Tuned to run in seconds.
const e2eDoc = `
name: e2e-test
description: runner end-to-end exercise
seed: 11
fleet:
  vpes: 4
  months: 2
  start: 2017-01-01
  base_rate_per_hour: 1.0
  mean_fault_gap_hours: 2000
train:
  months: 1
  epochs: 2
  max_vocab: 32
serve:
  shards: 2
  threshold: 5
  admin: true
timeline:
  - at: 38d
    fault:
      cause: circuit
      fraction: 0.5
      duration: 3h
      duplicates: 1
  - at: 42d
    burst:
      vpes: vpe01
      messages: 6
  - at: 45d
    chaos:
      point: shard.score
      mode: panic
      count: 1
  - at: 50d
    checkpoint:
  - at: 54d
    degrade:
      mode: shed-learning
  - at: 55d
    degrade:
      mode: normal
assert:
  min_warnings: 1
  checkpoint_parity: true
  chaos:
    - point: shard.score
      min_fired: 1
  metrics:
    - name: serve_received
      min: 1000
`

func TestRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scenario run")
	}
	spec, err := Load([]byte(e2eDoc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var statusBody []byte
	rep, err := Run(spec, Options{
		AdminUp: func(addr net.Addr) {
			resp, aerr := http.Get(fmt.Sprintf("http://%s/statusz", addr))
			if aerr != nil {
				t.Errorf("statusz: %v", aerr)
				return
			}
			defer resp.Body.Close()
			statusBody, _ = io.ReadAll(resp.Body)
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Passed {
		t.Fatalf("scenario failed: %+v", rep.Assertions)
	}
	if rep.Sim.Injections != 2 {
		t.Fatalf("injections %d, want 2", rep.Sim.Injections)
	}
	if rep.Serve.Received == 0 || rep.Serve.Messages == 0 {
		t.Fatalf("nothing served: %+v", rep.Serve)
	}
	if rep.Serve.Malformed != 0 || rep.Serve.ShardDropped != 0 {
		t.Fatalf("lossy serve: %+v", rep.Serve)
	}
	if rep.Serve.CheckpointSaves != 1 || !rep.Serve.CheckpointParity {
		t.Fatalf("checkpoint: %+v", rep.Serve)
	}
	if rep.Eval == nil || rep.Eval.Warnings < 1 {
		t.Fatalf("eval: %+v", rep.Eval)
	}
	if len(rep.Events) != 4 {
		t.Fatalf("runner events %d, want 4 (chaos, checkpoint, 2 degrade): %+v", len(rep.Events), rep.Events)
	}
	// /statusz is the stack's own document, nfvmonitor's: readiness, the
	// monitor's counters and the run's checkpoint file.
	var status struct {
		Ready      *bool           `json:"ready"`
		Monitor    json.RawMessage `json:"monitor"`
		Checkpoint struct {
			Path string `json:"path"`
		} `json:"checkpoint"`
	}
	if err := json.Unmarshal(statusBody, &status); err != nil {
		t.Fatalf("statusz decode: %v (%s)", err, statusBody)
	}
	if status.Ready == nil || !*status.Ready || len(status.Monitor) == 0 ||
		filepath.Base(status.Checkpoint.Path) != "monitor.nfvc" || !strings.Contains(status.Checkpoint.Path, "nfvscen-") {
		t.Fatalf("statusz is not the stack's document: %s", statusBody)
	}
	// The report is the -json surface: it must round-trip.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report marshal: %v", err)
	}
	if !strings.Contains(string(b), `"scenario":"e2e-test"`) {
		t.Fatalf("report JSON missing name: %s", b)
	}
}

// determinismDoc avoids chaos faults (panics can eat in-flight batches)
// and the lifecycle (spool interleaving varies) so two runs must agree on
// every eval number.
const determinismDoc = `
name: determinism-test
seed: 23
fleet:
  vpes: 4
  months: 2
  start: 2017-01-01
  base_rate_per_hour: 1.0
  mean_fault_gap_hours: 2000
train:
  months: 1
  epochs: 2
  max_vocab: 32
serve:
  shards: 3
  threshold: 5
timeline:
  - at: 40d
    fault:
      cause: software
      fraction: 0.5
      duration: 2h
assert:
  min_warnings: 1
`

func TestRunnerDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scenario run")
	}
	spec, err := Load([]byte(determinismDoc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	run := func() string {
		rep, rerr := Run(spec, Options{})
		if rerr != nil {
			t.Fatalf("run: %v", rerr)
		}
		if !rep.Passed {
			t.Fatalf("scenario failed: %+v", rep.Assertions)
		}
		b, merr := json.Marshal(rep.Eval)
		if merr != nil {
			t.Fatalf("marshal: %v", merr)
		}
		return string(b)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("eval summaries diverge across identical runs:\n%s\n%s", a, b)
	}
}

// promotedRestartDoc promotes a forced candidate and then checkpoints, so
// the restart probe must resume the promoted generation's streams: it
// serves the generation Stack.Checkpoint saved beside the checkpoint, not
// the trained bundle, whose weights the streams were not cut under.
const promotedRestartDoc = `
name: promoted-restart-test
seed: 31
fleet:
  vpes: 4
  months: 2
  start: 2017-01-01
  base_rate_per_hour: 1.0
  mean_fault_gap_hours: 2000
train:
  months: 1
  epochs: 2
  max_vocab: 32
serve:
  shards: 2
  threshold: 5
lifecycle:
  enabled: true
  gate_budget: 1.0
  window_len: 16
  min_windows: 2
timeline:
  - at: 45d
    adapt:
      forced: true
  - at: 50d
    checkpoint:
assert:
  checkpoint_parity: true
  lifecycle:
    min_promotions: 1
`

func TestRunnerRestartAfterPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scenario run")
	}
	spec, err := Load([]byte(promotedRestartDoc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Passed || rep.Serve.CheckpointSaves != 1 || !rep.Serve.CheckpointParity {
		t.Fatalf("restart after a promotion: %+v %+v", rep.Serve, rep.Assertions)
	}
}

// TestRunnerAdminIsLive checks that a scenario's admin surface is the
// serving stack's own: while e2eDoc's serve phase runs,
// /spans?anomalous=1 explains the burst host's verdicts, /spans holds
// pipeline spans, and /slo lists the three standing objectives with the
// two per-message ones counting. The phase keeps the surface open until
// the poller returns, which it does the first time all three hold.
func TestRunnerAdminIsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scenario run")
	}
	spec, err := Load([]byte(e2eDoc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	verdict := make(chan string, 1)
	if _, err := Run(spec, Options{AdminUp: func(addr net.Addr) {
		verdict <- pollAdmin(fmt.Sprintf("http://%s", addr))
	}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if missing := <-verdict; missing != "" {
		t.Fatal(missing)
	}
}

// pollAdmin polls the three endpoints until each shows live data ("") or
// 10 s pass or the surface goes away (what was still missing).
func pollAdmin(base string) string {
	var traces struct {
		Spans []struct{ Explain *json.RawMessage }
	}
	var spans struct{ Spans []json.RawMessage }
	var slo struct {
		SLOs []struct {
			Name string
			Fast struct{ Good, Bad uint64 }
		}
	}
	missing := "never polled"
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for path, into := range map[string]any{"/spans?host=vpe01&anomalous=1": &traces, "/spans": &spans, "/slo": &slo} {
			resp, err := http.Get(base + path)
			if err != nil {
				return fmt.Sprintf("admin surface closed with %s (%v)", missing, err)
			}
			err = json.NewDecoder(resp.Body).Decode(into)
			resp.Body.Close()
			if err != nil {
				return fmt.Sprintf("%s: %v", path, err)
			}
		}
		events := map[string]uint64{}
		for _, s := range slo.SLOs {
			events[s.Name] = s.Fast.Good + s.Fast.Bad
		}
		// warning_availability is sampled by the controller tick, which a
		// scenario has none of: listed, not counting.
		_, listed := events["warning_availability"]
		switch {
		case len(traces.Spans) == 0 || traces.Spans[0].Explain == nil:
			missing = "no explained span for the burst host"
		case len(spans.Spans) == 0:
			missing = "/spans empty"
		case events["accept_verdict_latency"] == 0 || events["shard_drop_ratio"] == 0 || !listed:
			missing = fmt.Sprintf("/slo not live: %+v", slo.SLOs)
		default:
			return ""
		}
	}
	return "10 s with " + missing
}

// divergenceBound is the ceiling on how far injected faults may move the
// warnings: the per-host symmetric difference of warning counts between
// the faulted run and a fault-free one, over the fault-free total. Faults
// may cost the drains that were in flight when a worker died (at most 16
// messages each, well under one warning burst per incident);
// anything above the bound means fault handling is eating the stream.
const divergenceBound = 0.2

// TestFaultSoakDivergence runs scenarios/fault-soak.yaml as written — it
// must pass — and again with its chaos events removed, on the same stack,
// and bounds the warning divergence between the two.
func TestFaultSoakDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scenario run")
	}
	spec, err := LoadFile(filepath.Join("..", "..", "scenarios", "fault-soak.yaml"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	soak, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	if !soak.Passed {
		t.Fatalf("fault-soak failed: %+v", soak.Assertions)
	}
	clean := *spec
	clean.Timeline = nil
	for _, ev := range spec.Timeline {
		if ev.Kind != EventChaos {
			clean.Timeline = append(clean.Timeline, ev)
		}
	}
	ref, err := Run(&clean, Options{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref.Warnings) == 0 {
		t.Fatal("reference run raised no warnings; the scenario is broken")
	}
	perHost := map[string]int{}
	for _, w := range ref.Warnings {
		perHost[w.VPE]++
	}
	for _, w := range soak.Warnings {
		perHost[w.VPE]--
	}
	diff := 0
	for _, d := range perHost {
		diff += max(d, -d)
	}
	div := float64(diff) / float64(len(ref.Warnings))
	t.Logf("warnings: reference %d, soak %d, divergence %.3f", len(ref.Warnings), len(soak.Warnings), div)
	if div > divergenceBound {
		t.Errorf("warning divergence %.3f exceeds bound %.2f", div, divergenceBound)
	}
}
