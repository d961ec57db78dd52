package obs

import (
	"testing"
	"time"
)

// fakeClock is a controllable monotonic clock for SLO tests.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64              { return c.ns }
func (c *fakeClock) advance(d time.Duration) { c.ns += int64(d) }

func TestSLOBurnMath(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)} // away from epoch edge effects
	s := NewSLO(SLOConfig{Name: "latency", Target: 0.99, NowNS: clk.now})

	// 98 good + 2 bad: badRatio 0.02 over a 0.01 budget = burn 2.0 on both
	// windows — above nothing.
	s.RecordN(98, 2)
	st := s.Status()
	if st.Name != "latency" || st.Target != 0.99 {
		t.Fatalf("status header = %+v", st)
	}
	if st.Fast.Good != 98 || st.Fast.Bad != 2 {
		t.Fatalf("fast counts = %+v", st.Fast)
	}
	if got := st.Fast.BurnRate; got < 1.99 || got > 2.01 {
		t.Fatalf("fast burn = %v, want 2.0", got)
	}
	if st.Fast.Burning || st.Slow.Burning || st.Burning {
		t.Fatalf("burning at burn 2.0: %+v", st)
	}
	if st.Fast.BurnThreshold != fastBurn || st.Slow.BurnThreshold != slowBurn {
		t.Fatalf("thresholds = %v/%v", st.Fast.BurnThreshold, st.Slow.BurnThreshold)
	}

	// Push the bad ratio to 0.2: burn 20 > 14.4 fast and > 6 slow.
	s.RecordN(0, 23)
	st = s.Status()
	if !st.Fast.Burning || !st.Slow.Burning || !st.Burning {
		t.Fatalf("not burning at ratio 0.2: %+v", st)
	}
	if !s.FastBurning() {
		t.Fatal("FastBurning() = false while fast window burns")
	}

	// The fast window forgets: advance past it and the fast burn clears
	// while the slow window still remembers.
	clk.advance(6 * time.Minute)
	s.RecordN(100, 0)
	st = s.Status()
	if st.Fast.Burning {
		t.Fatalf("fast window did not expire: %+v", st.Fast)
	}
	if !st.Slow.Burning {
		t.Fatalf("slow window forgot too early: %+v", st.Slow)
	}
	if st.Burning {
		t.Fatal("paging condition needs both windows")
	}
}

func TestSLOEmptyWindow(t *testing.T) {
	s := NewSLO(SLOConfig{Name: "empty"})
	st := s.Status()
	if st.Fast.BadRatio != 0 || st.Fast.BurnRate != 0 || st.Fast.Burning {
		t.Fatalf("empty window = %+v", st.Fast)
	}
	// Zero events is marked inactive — "burn 0" here means "measuring
	// nothing" (e.g. the latency SLO with -span-sample 0), not healthy.
	if !st.Inactive {
		t.Fatalf("zero-event objective not marked inactive: %+v", st)
	}
	s.Record(true)
	if st := s.Status(); st.Inactive {
		t.Fatalf("objective with events marked inactive: %+v", st)
	}
	var nilS *SLO
	nilS.Record(true)
	nilS.RecordN(1, 2)
	if nilS.FastBurning() || nilS.Name() != "" {
		t.Fatal("nil SLO not inert")
	}
	if got := nilS.Status(); got.Name != "" {
		t.Fatalf("nil status = %+v", got)
	}
}

// TestSLOBucketRotation walks the fast window's 10s buckets on the fake
// clock: counts stay in the window for 29 more buckets, leave it on the
// 30th, and the recycled ring slot starts from zero.
func TestSLOBucketRotation(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	s := NewSLO(SLOConfig{Name: "rot", NowNS: clk.now})
	s.RecordN(0, 10)
	if st := s.Status(); st.Fast.Bad != 10 {
		t.Fatalf("bad = %d", st.Fast.Bad)
	}
	const bucket = fastWindow / bucketsPerWindow
	if bucket != 10*time.Second {
		t.Fatalf("fast-window bucket = %v, want 10s", bucket)
	}
	clk.advance(fastWindow - bucket)
	if st := s.Status(); st.Fast.Bad != 10 {
		t.Fatalf("bad = %d one bucket before the window closes", st.Fast.Bad)
	}
	// A full window later the old bucket is outside the range even before
	// any recorder recycles it.
	clk.advance(bucket)
	if st := s.Status(); st.Fast.Bad != 0 {
		t.Fatalf("expired bad = %d", st.Fast.Bad)
	}
	// Recycling the same ring slot resets its counts.
	s.RecordN(5, 0)
	if st := s.Status(); st.Fast.Good != 5 || st.Fast.Bad != 0 {
		t.Fatalf("recycled bucket = %+v", st.Fast)
	}
}

func TestSLOSet(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	reg := NewRegistry()
	ss := NewSLOSet()
	ss.Export(reg)
	lat := ss.Add(SLOConfig{Name: "latency", NowNS: clk.now})
	drop := ss.Add(SLOConfig{Name: "drops", NowNS: clk.now})

	lat.RecordN(50, 50) // burn 50 — burning
	drop.RecordN(100, 0)
	sts := ss.Statuses()
	if len(sts) != 2 || sts[0].Name != "latency" || sts[1].Name != "drops" {
		t.Fatalf("statuses = %+v", sts)
	}
	if !sts[0].Fast.Burning || sts[1].Fast.Burning {
		t.Fatalf("burning flags = %v/%v", sts[0].Fast.Burning, sts[1].Fast.Burning)
	}
	if got := ss.FastBurning(); len(got) != 1 || got[0] != "latency" {
		t.Fatalf("FastBurning = %v", got)
	}

	// Statuses refreshed the exported burn gauges.
	snap := reg.Snapshot()
	if v := snap.Gauges[`latency_slo_burn_rate{window="fast"}`]; v < 49 || v > 51 {
		t.Fatalf("burn gauge = %v", v)
	}
	if v := snap.Gauges["latency_slo_fast_burning"]; v != 1 {
		t.Fatalf("burning gauge = %v", v)
	}
	if v := snap.Gauges["drops_slo_fast_burning"]; v != 0 {
		t.Fatalf("drops burning gauge = %v", v)
	}

	var nilSet *SLOSet
	if nilSet.Add(SLOConfig{}) != nil || nilSet.Statuses() != nil || nilSet.FastBurning() != nil {
		t.Fatal("nil set not inert")
	}
}

// TestSLODefaults reads the default target and the shared window and
// burn constants back through Status.
func TestSLODefaults(t *testing.T) {
	st := NewSLO(SLOConfig{Name: "defaults"}).Status()
	if st.Target != 0.99 || st.Fast.Window != "5m0s" || st.Slow.Window != "1h0m0s" {
		t.Fatalf("defaults = %+v", st)
	}
	if st.Fast.BurnThreshold != 14.4 || st.Slow.BurnThreshold != 6.0 {
		t.Fatalf("defaults = %+v", st)
	}
}
