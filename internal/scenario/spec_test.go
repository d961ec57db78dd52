package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/nfvsim"
)

const specDoc = `
name: spec-test
description: exercises every DSL block
seed: 7
fleet:
  vpes: 6
  months: 3
  start: 2017-01-01
  base_rate_per_hour: 1.2
  mean_fault_gap_hours: 250
train:
  months: 1
  clusters: 1
  hidden: [16]
  epochs: 2
  max_vocab: 32
serve:
  shards: 4
  threshold: 5
  admin: true
lifecycle:
  enabled: true
  min_windows: 2
timeline:
  - at: 40d
    fault:
      cause: circuit
      fraction: 0.5
      duration: 3h
      duplicates: 2
  - at: 45d
    burst:
      vpes: vpe01
      messages: 5
      repeat: 3
      every: 2h
  - at: 50d
    chaos:
      point: shard.score
      mode: panic
      count: 1
  - at: 55d
    adapt:
      forced: true
  - at: 60d
    checkpoint:
  - at: 65d
    degrade:
      mode: shed-scoring
assert:
  min_warnings: 1
  max_far_per_day: 100
  checkpoint_parity: true
  lifecycle:
    min_cycles: 1
  chaos:
    - point: shard.score
      min_fired: 1
  metrics:
    - name: monitor_shard_panics
      min: 1
`

func TestLoadSpec(t *testing.T) {
	spec, err := Load([]byte(specDoc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if spec.Name != "spec-test" || spec.Seed != 7 {
		t.Fatalf("header: %+v", spec)
	}
	if spec.Fleet.VPEs != 6 || spec.Fleet.Months != 3 {
		t.Fatalf("fleet: %+v", spec.Fleet)
	}
	if !spec.Fleet.Start.Equal(time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("start: %v", spec.Fleet.Start)
	}
	if spec.Train.Months != 1 || spec.Train.Epochs != 2 || len(spec.Train.Hidden) != 1 || spec.Train.Hidden[0] != 16 {
		t.Fatalf("train: %+v", spec.Train)
	}
	if !spec.Serve.Admin || spec.Serve.Shards != 4 || spec.Serve.Threshold != 5 {
		t.Fatalf("serve: %+v", spec.Serve)
	}
	if !spec.Lifecycle.Enabled || spec.Lifecycle.MinWindows != 2 {
		t.Fatalf("lifecycle: %+v", spec.Lifecycle)
	}
	if len(spec.Timeline) != 6 {
		t.Fatalf("timeline len %d: %+v", len(spec.Timeline), spec.Timeline)
	}
	kinds := make([]string, len(spec.Timeline))
	for i, ev := range spec.Timeline {
		kinds[i] = ev.Kind
	}
	want := []string{EventFault, EventBurst, EventChaos, EventAdapt, EventCheckpoint, EventDegrade}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("timeline order %v, want %v", kinds, want)
		}
	}
	if spec.Timeline[0].At != 40*24*time.Hour || spec.Timeline[0].Cause != "circuit" || spec.Timeline[0].Duplicates != 2 {
		t.Fatalf("fault event: %+v", spec.Timeline[0])
	}
	if spec.Timeline[1].Repeat != 3 || spec.Timeline[1].Every != 2*time.Hour || len(spec.Timeline[1].VPEs) != 1 {
		t.Fatalf("burst event: %+v", spec.Timeline[1])
	}
	if spec.Timeline[2].Point != "shard.score" || spec.Timeline[2].Mode != "panic" {
		t.Fatalf("chaos event: %+v", spec.Timeline[2])
	}
	if !spec.Timeline[3].Forced {
		t.Fatalf("adapt event: %+v", spec.Timeline[3])
	}
	if spec.Timeline[5].DegradeMode != "shed-scoring" {
		t.Fatalf("degrade event: %+v", spec.Timeline[5])
	}
	if spec.Assert.MinWarnings == nil || *spec.Assert.MinWarnings != 1 {
		t.Fatalf("assert: %+v", spec.Assert)
	}
	if !spec.Assert.CheckpointParity || spec.Assert.Lifecycle == nil || len(spec.Assert.Chaos) != 1 || len(spec.Assert.Metrics) != 1 {
		t.Fatalf("assert blocks: %+v", spec.Assert)
	}

	cfg, err := spec.SimConfig()
	if err != nil {
		t.Fatalf("sim config: %v", err)
	}
	if len(cfg.Injections) != 2 {
		t.Fatalf("injections %d, want 2 (fault + burst)", len(cfg.Injections))
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("compiled config invalid: %v", err)
	}
	if got := spec.ServeStart(); !got.Equal(time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("serve start: %v", got)
	}
}

// TestPaperFleetIsDefault: scenarios/fleet/paper.yaml compiles to the
// paper-scale nfvsim.DefaultConfig(), so a dump of it is the paper-scale
// trace byte for byte.
func TestPaperFleetIsDefault(t *testing.T) {
	spec, err := LoadFile(filepath.Join("..", "..", "scenarios", "fleet", "paper.yaml"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	got, err := spec.SimConfig()
	if err != nil {
		t.Fatalf("sim config: %v", err)
	}
	want := nfvsim.DefaultConfig()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s = %v, want %v", gv.Type().Field(i).Name, g, w)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown top key", "name: x\nflee:\n  vpes: 3\n", "unknown key \"flee\""},
		{"unknown fleet key", "name: x\nfleet:\n  vpe_count: 3\n", "unknown key \"vpe_count\""},
		{"missing name", "seed: 1\n", "must have a name"},
		{"bad cause", "name: x\ntimeline:\n  - at: 40d\n    fault:\n      cause: gremlins\n", "unknown fault cause"},
		{"two kinds", "name: x\ntimeline:\n  - at: 40d\n    checkpoint:\n    degrade:\n      mode: normal\n", "one event kind per entry"},
		{"no at", "name: x\ntimeline:\n  - checkpoint:\n", "needs an \"at:\""},
		{"bad duration", "name: x\ntimeline:\n  - at: soon\n    checkpoint:\n", "not a duration"},
		{"bad chaos point", "name: x\ntimeline:\n  - at: 40d\n    chaos:\n      point: nope\n      mode: panic\n", "unknown chaos point"},
		{"year boundary", "name: x\nfleet:\n  start: 2017-11-01\n  months: 3\n", "crosses a calendar year"},
		{"train too long", "name: x\nfleet:\n  months: 3\ntrain:\n  months: 3\n", "train.months"},
		{"adapt without lifecycle", "name: x\ntimeline:\n  - at: 40d\n    adapt:\n      forced: true\n", "requires lifecycle.enabled"},
		{"event in training window", "name: x\ntimeline:\n  - at: 1d\n    checkpoint:\n", "inside the training window"},
		{"event past horizon", "name: x\ntimeline:\n  - at: 1000d\n    checkpoint:\n", "outside the"},
		{"parity without checkpoint", "name: x\nassert:\n  checkpoint_parity: true\n", "requires at least one checkpoint event"},
		{"bad metric", "name: x\nassert:\n  metrics:\n    - name: bogus\n      min: 1\n", "unknown metric"},
		{"bad vpe name", "name: x\ntimeline:\n  - at: 40d\n    fault:\n      cause: circuit\n      vpes: [vpe99]\n", "vpe99"},
		{"degrade bad mode", "name: x\ntimeline:\n  - at: 40d\n    degrade:\n      mode: sideways\n", "degrade.mode"},
		{"unfired point bundle.load", "name: x\ntimeline:\n  - at: 40d\n    chaos:\n      point: bundle.load\n      mode: error\n", "unknown chaos point \"bundle.load\""},
		{"unfired point spool.read", "name: x\nassert:\n  chaos:\n    - point: spool.read\n", "unknown chaos point \"spool.read\""},
		{"negative min_fired", "name: x\nassert:\n  chaos:\n    - point: shard.score\n      min_fired: -1\n", "min_fired: not a non-negative integer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
