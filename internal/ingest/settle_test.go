package ingest

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/resilience"
)

// settle waits until mon has judged every message it accepted.
func settle(t testing.TB, mon *Monitor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mon.Settle(ctx); err != nil {
		t.Fatalf("settle: %v; stats %+v", err, mon.Stats())
	}
}

// TestSettle covers every way a drain ends: scored (after a 400 ms
// shard.score stall too), shed, lost to a scoring error or panic, a worker
// panic before the take, and scored late by a worker the watchdog
// superseded. Once Settle returns, the counters and the OnScored hook
// account for every message, and a running monitor serves the next one.
// It also covers Settle before Start and after Stop, which answer at once
// (an error there is not the deadline's), and ctx expiry.
func TestSettle(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	slow := faultinject.Arming{Mode: faultinject.ModeSlow, Delay: 400 * time.Millisecond, Count: 1}
	cases := []struct {
		name     string
		point    string // armed before Start
		arming   faultinject.Arming
		watchdog time.Duration
		shed     bool
		start    bool // workers run while the messages are enqueued
		stopped  bool // Stop before Settle
		msgs     int
		wait     time.Duration // Settle's deadline, 10 s when 0
		err      string        // a substring of Settle's error, "" for nil
		// What Settle leaves: OnScored calls (each an anomaly here),
		// messages counted, shed, shard panics; then worker restarts.
		verdicts, messages, shedN, panics, restarts uint64
	}{
		{name: "scored", start: true, msgs: 3, verdicts: 3, messages: 3},
		{name: "scored after a slow drain", point: "shard.score", arming: slow, start: true, msgs: 1,
			verdicts: 1, messages: 1},
		{name: "shed", shed: true, start: true, msgs: 2, messages: 2, shedN: 2},
		{name: "score error", point: "shard.score", arming: faultinject.Arming{Mode: faultinject.ModeError, Count: 1},
			start: true, msgs: 1, panics: 1},
		{name: "score panic", point: "shard.score", arming: faultinject.Arming{Mode: faultinject.ModePanic, Count: 1},
			start: true, msgs: 1, panics: 1, restarts: 1},
		{name: "worker panic", point: "shard.worker", arming: faultinject.Arming{Mode: faultinject.ModePanic, Count: 2},
			start: true, msgs: 1, verdicts: 1, messages: 1, panics: 2, restarts: 2},
		// The first drain wedges with at least one message still queued, so
		// the watchdog supersedes its worker: the replacement scores the
		// rest at once, the wedged worker its drain 400 ms later.
		{name: "superseded worker", point: "shard.score", arming: slow, watchdog: 50 * time.Millisecond,
			start: true, msgs: DefaultMaxBatch + 1, verdicts: DefaultMaxBatch + 1, messages: DefaultMaxBatch + 1},
		{name: "before Start, empty"},
		{name: "before Start, queued", msgs: 1, err: "no shard worker running"},
		{name: "after Stop", start: true, stopped: true, msgs: 2, verdicts: 2, messages: 2},
		{name: "ctx expiry", point: "shard.score", arming: slow, start: true, msgs: 1,
			wait: 20 * time.Millisecond, err: context.DeadlineExceeded.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := faultinject.NewRegistry()
			var verdicts atomic.Uint64
			cfg := DefaultMonitorConfig()
			cfg.Threshold = -1 // a score is a negative log-likelihood: every verdict is an anomaly
			cfg.Watchdog = tc.watchdog
			cfg.Faults = faults
			cfg.OnScored = func(string, int, features.Event, float64, bool, bool) { verdicts.Add(1) }
			mon := NewMonitor(cfg, cloneTree(t, tree), det, nil)
			if tc.point != "" {
				if err := faults.Arm(tc.point, tc.arming); err != nil {
					t.Fatal(err)
				}
			}
			if tc.shed {
				mon.SetDegrade(resilience.ModeShedScoring)
			}
			if tc.start {
				mon.Start()
				defer mon.Stop()
			}
			at := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
			enqueue := func() {
				at = at.Add(time.Second)
				if !mon.Enqueue(superviseMsg("vpe01", "never seen template while the monitor settles", at)) {
					t.Fatal("enqueue refused")
				}
			}
			for i := 0; i < tc.msgs; i++ {
				enqueue()
			}
			if tc.stopped {
				mon.Stop()
			}
			wait := tc.wait
			if wait == 0 {
				wait = 10 * time.Second
			}
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			defer cancel()
			err := mon.Settle(ctx)
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("Settle: %v, want %q", err, tc.err)
			}
			if tc.err != "" {
				return
			}
			st := mon.Stats()
			if got := verdicts.Load(); got != tc.verdicts || st.Anomalies != tc.verdicts || st.Messages != tc.messages ||
				st.ShedMessages != tc.shedN || st.ShardPanics != tc.panics {
				t.Fatalf("after Settle: %d verdicts, stats %+v; want %d verdicts and anomalies, %d messages, %d shed, %d panics",
					got, st, tc.verdicts, tc.messages, tc.shedN, tc.panics)
			}
			if tc.watchdog > 0 && st.WatchdogKicks == 0 {
				t.Fatalf("no watchdog kick: %+v", st)
			}
			if tc.start && !tc.stopped {
				enqueue() // served after the supervisor's restarts, if any
				settle(t, mon)
				if st := mon.Stats(); st.Messages != tc.messages+1 || st.WorkerRestarts != tc.restarts {
					t.Fatalf("one more message: %+v; want %d messages, %d restarts", st, tc.messages+1, tc.restarts)
				}
			}
		})
	}
}
