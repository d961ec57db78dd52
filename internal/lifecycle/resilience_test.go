package lifecycle

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/ingest"
)

// TestBreakerOpensAndRecovers drives the adaptation breaker through its full
// arc with injected cycle failures: consecutive failures open it, timer-style
// cycles are then skipped, a forced cycle still runs (the operator probe),
// and after the cooldown a clean half-open probe closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	sb, tree := testBundle(t)
	reg := faultinject.NewRegistry()
	lcfg := testLifecycleConfig()
	lcfg.Faults = reg
	lm, _ := buildStack(t, lcfg, sb, tree)
	lm.breaker.Threshold, lm.breaker.Cooldown = 2, time.Millisecond

	if err := reg.Arm("lifecycle.cycle", faultinject.Arming{Mode: faultinject.ModeError}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res := lm.TriggerCycle(false); res.Skipped {
			t.Fatalf("cycle %d skipped before breaker opened: %+v", i, res)
		}
	}
	if st := lm.Status(); st.Breaker.StateName != "open" {
		t.Fatalf("breaker after %d failures = %q, want open", 2, st.Breaker.StateName)
	}

	// Open breaker: an unforced cycle is skipped without running the body.
	res := lm.TriggerCycle(false)
	if !res.Skipped || res.SkipReason != "breaker-open" {
		t.Fatalf("open-breaker cycle = %+v, want skipped breaker-open", res)
	}
	if got := lm.skippedC.Value(); got != 1 {
		t.Fatalf("skipped counter = %d, want 1", got)
	}

	// A forced cycle bypasses the breaker — and, still faulted, fails.
	if res := lm.TriggerCycle(true); res.Skipped {
		t.Fatalf("forced cycle skipped: %+v", res)
	}

	// Fault cleared + cooldown elapsed: the half-open probe closes it.
	reg.Disarm("lifecycle.cycle")
	time.Sleep(5 * time.Millisecond)
	if res := lm.TriggerCycle(false); res.Skipped {
		t.Fatalf("probe cycle skipped: %+v", res)
	}
	st := lm.Status()
	if st.Breaker.StateName != "closed" {
		t.Fatalf("breaker after clean probe = %q, want closed", st.Breaker.StateName)
	}
	if st.Breaker.Opens < 1 {
		t.Fatalf("breaker opens = %d, want >= 1", st.Breaker.Opens)
	}
}

// TestCyclePanicFeedsBreaker pins that a panicking cycle is recovered,
// counted, and treated as a breaker failure — the process never dies to an
// adaptation bug.
func TestCyclePanicFeedsBreaker(t *testing.T) {
	sb, tree := testBundle(t)
	reg := faultinject.NewRegistry()
	lcfg := testLifecycleConfig()
	lcfg.Faults = reg
	lm, _ := buildStack(t, lcfg, sb, tree)
	lm.breaker.Threshold = 1

	if err := reg.Arm("lifecycle.cycle", faultinject.Arming{Mode: faultinject.ModePanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	res := lm.TriggerCycle(false)
	if !res.Panicked {
		t.Fatalf("cycle result = %+v, want Panicked", res)
	}
	if got := lm.panicsC.Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	if st := lm.Status(); st.Breaker.StateName != "open" {
		t.Fatalf("breaker after panic (threshold 1) = %q, want open", st.Breaker.StateName)
	}
}

// TestShedLearningMode pins the shed-learning degradation lever: spooling
// and timer cycles stop, scoring state is untouched, and lifting the mode
// resumes both.
func TestShedLearningMode(t *testing.T) {
	sb, tree := testBundle(t)
	lm, mon := buildStack(t, testLifecycleConfig(), sb, tree)

	lm.SetShedLearning(true, "test overload")
	if !lm.Status().ShedLearning {
		t.Fatal("shed-learning not set")
	}
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	if st := lm.Status(); st.SpoolWindows[0] != 0 {
		t.Fatalf("spooled %d windows while shedding learning", st.SpoolWindows[0])
	}
	res := lm.TriggerCycle(false)
	if !res.Skipped || res.SkipReason != "shed-learning" {
		t.Fatalf("shed cycle = %+v, want skipped shed-learning", res)
	}
	if !lm.Status().ShedLearning {
		t.Fatal("status does not report shed-learning")
	}

	lm.SetShedLearning(false, "recovered")
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 2, 0, 0, 0, 0, time.UTC))
	if st := lm.Status(); st.SpoolWindows[0] == 0 {
		t.Fatal("spooling did not resume after shed-learning lifted")
	}
	if res := lm.TriggerCycle(false); res.Skipped {
		t.Fatalf("post-recovery cycle skipped: %+v", res)
	}
}

// TestSpoolTornWriteKeepsPrevious pins the atomic-write guarantee under an
// injected torn write: the checkpoint the spool rides along with fails,
// but the previous file is untouched and its spool still restores.
func TestSpoolTornWriteKeepsPrevious(t *testing.T) {
	sb, tree := testBundle(t)
	reg := faultinject.NewRegistry()
	lcfg := testLifecycleConfig()
	lm := New(lcfg, sb)
	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold, mcfg.ClusterOf, mcfg.OnScored, mcfg.Faults = sb.Threshold, sb.ClusterOf, lm.Observe, reg
	mon := ingest.NewMonitorWithResolver(mcfg, tree, sb.DetectorFor, nil)
	lm.Attach(mon)
	at := feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	path := filepath.Join(t.TempDir(), "monitor.nfvc")
	checkpoint := func() error {
		c, err := lm.Cut()
		if err != nil {
			return err
		}
		return c.WriteFile(path)
	}
	if err := checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := lm.Status().SpoolWindows[0]

	feedNormal(mon, "vpe01", 100, at)
	if err := reg.Arm("checkpoint.write", faultinject.Arming{Mode: faultinject.ModeTorn, Bytes: 16, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint(); err == nil {
		t.Fatal("torn save reported success")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved, err := ingest.LoadCheckpoint(f)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after torn save: %v", err)
	}
	sp, err := DecodeSpool(saved.Spool)
	if err != nil {
		t.Fatal(err)
	}
	lm2, _ := buildStack(t, lcfg, sb, tree)
	lm2.Seed(sp)
	if got := lm2.Status().SpoolWindows[0]; got != want {
		t.Fatalf("restored %d windows, want previous generation's %d", got, want)
	}
}

// TestReloadRacesAdaptation is satellite #3: a hot reload (SetServing,
// which swaps the monitor, the SIGHUP path) racing in-flight forced
// cycles, checkpoint cuts with the spool riding along, and live scoring
// traffic. Run under -race; the invariant beyond
// race-freedom is that cycles against the replaced lineage abort rather than
// promote.
func TestReloadRacesAdaptation(t *testing.T) {
	sb, tree := testBundle(t)
	lcfg := testLifecycleConfig()
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	path := filepath.Join(t.TempDir(), "monitor.nfvc")

	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // live traffic
		defer wg.Done()
		at := time.Date(2018, 3, 5, 0, 0, 0, 0, time.UTC)
		for {
			select {
			case <-stop:
				return
			default:
				at = feedNormal(mon, "vpe01", 8, at)
			}
		}
	}()

	wg.Add(1)
	go func() { // adaptation cycles
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				lm.TriggerCycle(true)
			}
		}
	}()

	wg.Add(1)
	go func() { // checkpoints
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if c, err := lm.Cut(); err == nil {
					c.WriteFile(path)
				}
			}
		}
	}()

	// Hot reloads, as nfvmonitor does them on SIGHUP.
	for i := 0; i < 6; i++ {
		next := lm.Serving().Clone()
		lm.SetServing(next)
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// The audit log records every reload; generation moved at least 6 times.
	if gen := lm.Generation(); gen < 6 {
		t.Fatalf("generation = %d, want >= 6", gen)
	}
	// And a final cycle on the settled state still works.
	if res := lm.TriggerCycle(true); res.Aborted {
		t.Fatalf("settled cycle aborted: %+v", res)
	}
}
