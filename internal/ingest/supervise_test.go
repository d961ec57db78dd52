package ingest

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/resilience"
)

// superviseMonitor builds an async monitor wired to a private fault
// registry, trained on the shared corpus.
func superviseMonitor(t *testing.T, shards int, watchdog time.Duration) (*Monitor, *faultinject.Registry) {
	t.Helper()
	tree, det := trainMonitorDetector(t)
	reg := faultinject.NewRegistry()
	cfg := DefaultMonitorConfig()
	cfg.Threshold = 4
	cfg.Shards = shards
	cfg.Watchdog = watchdog
	cfg.Faults = reg
	return NewMonitor(cfg, tree, det, nil), reg
}

func superviseMsg(host, text string, at time.Time) logfmt.Message {
	return logfmt.Message{Time: at, Host: host, Facility: logfmt.FacDaemon, Severity: logfmt.Info, Tag: "rpd", Text: text}
}

// feedUntil enqueues messages (retrying full queues) until cond holds or
// the deadline lapses.
func feedUntil(t *testing.T, mon *Monitor, cond func() bool, deadline time.Duration) {
	t.Helper()
	base := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
	}
	limit := time.After(deadline)
	for i := 0; ; i++ {
		if cond() {
			return
		}
		select {
		case <-limit:
			t.Fatalf("condition not reached; stats %+v", mon.Stats())
		default:
		}
		msg := superviseMsg("vpe01", texts[i%len(texts)], base.Add(time.Duration(i)*10*time.Second))
		if !mon.Enqueue(msg) {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWatchdogClockSkewFault injects a skewed watchdog clock and checks a
// healthy-but-idle-looking worker is kicked — the chaos drill for the
// watchdog machinery itself — and that the kick is harmless.
//
// The watchdog only kicks a worker whose beat stood still across a tick
// (25 ms here), and a healthy worker beats every few microseconds, so the
// skew alone kicks nothing unless the scheduler happens to park the worker
// for a whole tick. A 35 ms slow batch makes the beat stand still across a
// tick every few batches while staying under the 50 ms deadline: without
// the skew no kick is possible, with it the next stalled tick kicks.
func TestWatchdogClockSkewFault(t *testing.T) {
	mon, faults := superviseMonitor(t, 1, 50*time.Millisecond)
	mon.Start()
	defer mon.Stop()
	if err := faults.Arm("shard.score", faultinject.Arming{Mode: faultinject.ModeSlow, Delay: 35 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := faults.Arm("heartbeat.skew", faultinject.Arming{Mode: faultinject.ModeSkew, Skew: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// Keep the queue non-empty so the skewed age check applies.
	feedUntil(t, mon, func() bool { return mon.Stats().WatchdogKicks >= 1 }, 10*time.Second)
	faults.Disarm("heartbeat.skew")
	faults.Disarm("shard.score")
	// The monitor still consumes after the spurious kick.
	before := mon.Stats().Messages
	feedUntil(t, mon, func() bool { return mon.Stats().Messages > before+8 }, 10*time.Second)
}

// parkedWorkers counts the goroutines waiting in a shard worker's park, read
// from the goroutine dump: a worker's park is the only select in runOnce.
func parkedWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, " [select]:") && strings.Contains(g, "(*shard).runOnce") {
			n++
		}
	}
	return n
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogReplacesParkedWorker supersedes a parked worker through
// heartbeat.skew and checks the next handoff is still served. A message
// queued without its wake-up (the moment between a handoff and the worker
// waking) makes the parked worker look wedged, and the skewed clock gets it
// replaced. The superseded worker stays parked, ahead of its replacement in
// the wait for the next wake-up, so that wake-up reaches the worker that
// is retiring: unless it passes the wake-up on, the next message waits for
// a second watchdog kick.
func TestWatchdogReplacesParkedWorker(t *testing.T) {
	mon, faults := superviseMonitor(t, 1, time.Second)
	others := parkedWorkers() // monitors other tests left running
	mon.Start()
	defer mon.Stop()
	waitUntil(t, "the worker parks", func() bool { return parkedWorkers() == others+1 })

	if err := faults.Arm("heartbeat.skew", faultinject.Arming{Mode: faultinject.ModeSkew, Skew: time.Hour}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	mon.shards[0].q.pushQuiet(superviseMsg("vpe01", "bgp keepalive exchanged with peer 10.0.0.1 hold 90", at))
	settle(t, mon) // a replacement serves the queued message
	if st := mon.Stats(); st.WatchdogKicks != 1 || st.Messages != 1 {
		t.Fatalf("the queued message was served after %d watchdog kicks: %+v", st.WatchdogKicks, st)
	}
	faults.Disarm("heartbeat.skew")
	waitUntil(t, "both workers park", func() bool { return parkedWorkers() == others+2 })

	if !mon.Enqueue(superviseMsg("vpe01", "interface statistics poll completed for ge-0/0/1 in 12 ms", at.Add(time.Minute))) {
		t.Fatal("enqueue refused")
	}
	settle(t, mon)
	if st := mon.Stats(); st.WatchdogKicks != 1 || st.Messages != 2 {
		t.Fatalf("the next handoff was served only after %d watchdog kicks: %+v", st.WatchdogKicks, st)
	}
}

// TestShedScoringMode pins the shed-scoring contract: messages are counted
// and templates learned, but nothing is scored until the mode lifts.
func TestShedScoringMode(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	cfg := DefaultMonitorConfig()
	cfg.Threshold = 4
	mon := NewMonitor(cfg, tree, det, nil)

	base := time.Date(2018, 5, 2, 0, 0, 0, 0, time.UTC)
	mon.SetDegrade(resilience.ModeShedScoring)
	if got := mon.DegradeMode(); got != resilience.ModeShedScoring {
		t.Fatalf("mode = %v", got)
	}
	tplsBefore := tree.Len()
	for i := 0; i < 8; i++ {
		mon.HandleMessage(superviseMsg("vpe09", "never seen template while shedding scores", base.Add(time.Duration(i)*time.Second)))
	}
	st := mon.Stats()
	if st.Messages != 8 || st.ShedMessages != 8 {
		t.Fatalf("shed accounting: %+v", st)
	}
	if st.Anomalies != 0 {
		t.Fatalf("scored while shedding: %+v", st)
	}
	if mon.hasHost("vpe09") {
		t.Fatal("host state created while shedding scoring")
	}
	if tree.Len() <= tplsBefore {
		t.Fatal("template learning stopped while shedding scoring")
	}

	// Lifting the mode resumes scoring.
	mon.SetDegrade(resilience.ModeNormal)
	mon.HandleMessage(superviseMsg("vpe09", "bgp keepalive exchanged with peer 10.0.0.3 hold 90", base.Add(time.Minute)))
	if !mon.hasHost("vpe09") {
		t.Fatal("scoring did not resume after shed mode lifted")
	}
	if st := mon.Stats(); st.DegradeMode != "normal" {
		t.Fatalf("stats mode = %q", st.DegradeMode)
	}
}

// TestQueueFrac pins the overload signal the degradation controller reads.
func TestQueueFrac(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	cfg := DefaultMonitorConfig()
	mon := NewMonitor(cfg, tree, det, nil)
	mon.capQueues(4)
	if f := mon.QueueFrac(); f != 0 {
		t.Fatalf("empty queue frac = %v", f)
	}
	base := time.Date(2018, 5, 3, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		mon.Enqueue(superviseMsg("vpe01", "x", base))
	}
	if f := mon.QueueFrac(); f != 0.75 {
		t.Fatalf("queue frac = %v, want 0.75", f)
	}
}
