package lifecycle

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nfvpredict/internal/faultinject"
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

// TestSpoolCorruptQuarantine pins satellite #4: a truncated (torn) spool is
// quarantined — renamed aside with the evidence preserved — and the manager
// cold-starts instead of failing the process.
func TestSpoolCorruptQuarantine(t *testing.T) {
	sb, tree := testBundle(t)
	lcfg := testLifecycleConfig()
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	path := filepath.Join(t.TempDir(), "spool.nfvs")
	if err := lm.SaveSpool(path); err != nil {
		t.Fatal(err)
	}

	// Tear the file: keep the header, drop the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	lm2, _ := buildStack(t, lcfg, sb, tree)
	if err := lm2.LoadSpool(path); err != nil {
		t.Fatalf("corrupt spool load = %v, want nil (cold start)", err)
	}
	if got := lm2.spoolQuarC.Value(); got != 1 {
		t.Fatalf("quarantine counter = %d, want 1", got)
	}
	if st := lm2.Status(); st.SpoolWindows[0] != 0 {
		t.Fatalf("cold start expected, got %d windows", st.SpoolWindows[0])
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined evidence missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt spool still in place: %v", err)
	}

	// The path is clear: the next save and load round-trip cleanly.
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 2, 0, 0, 0, 0, time.UTC))
	if err := lm.SaveSpool(path); err != nil {
		t.Fatal(err)
	}
	lm3, _ := buildStack(t, lcfg, sb, tree)
	if err := lm3.LoadSpool(path); err != nil {
		t.Fatal(err)
	}
	if st := lm3.Status(); st.SpoolWindows[0] == 0 {
		t.Fatal("post-quarantine spool did not restore")
	}
}

// TestSpoolTornWriteKeepsPrevious pins the atomic-write guarantee under an
// injected torn write: the save fails, but the previous spool generation is
// untouched and still restores.
func TestSpoolTornWriteKeepsPrevious(t *testing.T) {
	sb, tree := testBundle(t)
	reg := faultinject.NewRegistry()
	lcfg := testLifecycleConfig()
	lcfg.Faults = reg
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 100, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	path := filepath.Join(t.TempDir(), "spool.nfvs")
	if err := lm.SaveSpool(path); err != nil {
		t.Fatal(err)
	}
	want := lm.Status().SpoolWindows[0]

	if err := reg.Arm("spool.write", faultinject.Arming{Mode: faultinject.ModeTorn, Bytes: 16, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := lm.SaveSpool(path); err == nil {
		t.Fatal("torn save reported success")
	}

	lm2, _ := buildStack(t, lcfg, sb, tree)
	if err := lm2.LoadSpool(path); err != nil {
		t.Fatalf("previous spool unreadable after torn save: %v", err)
	}
	if got := lm2.Status().SpoolWindows[0]; got != want {
		t.Fatalf("restored %d windows, want previous generation's %d", got, want)
	}
}

// TestReloadRacesAdaptation is satellite #3: a hot reload (monitor swap +
// SetServing, the SIGHUP path) racing in-flight forced cycles, spool saves,
// and live scoring traffic. Run under -race; the invariant beyond
// race-freedom is that cycles against the replaced lineage abort rather than
// promote.
func TestReloadRacesAdaptation(t *testing.T) {
	sb, tree := testBundle(t)
	lcfg := testLifecycleConfig()
	lm, mon := buildStack(t, lcfg, sb, tree)
	feedNormal(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	spool := filepath.Join(t.TempDir(), "spool.nfvs")

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
	go func() { // spool persistence
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				lm.SaveSpool(spool)
			}
		}
	}()

	// Hot reloads: swap the monitor, then realign the lifecycle — the order
	// nfvmonitor uses on SIGHUP.
	for i := 0; i < 6; i++ {
		next := lm.Serving().Clone()
		mon.SwapModel(next)
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
