package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the SLO engine: declarative service-level objectives
// evaluated over multi-window burn rates, the surface behind /slo.
//
// An SLO is a named objective over a good/bad event stream with a target
// good-ratio (e.g. "99% of messages reach a verdict within 250ms"). The
// error budget is 1-target; the burn rate over a window is
//
//	burn = badRatio(window) / (1 - target)
//
// so burn 1.0 spends the budget exactly at the sustainable rate, and burn
// 14.4 over a 5-minute window — the classic fast-page threshold — spends a
// 30-day budget in ~2 days. Each SLO tracks two windows: a 5m fast window
// that catches sharp regressions within seconds, and a 1h slow window that
// confirms sustained ones; the degradation controller keys off the fast
// window, alert policy off both.
//
// Windows are rings of fixed-duration buckets in monotonic time (the
// process clock, immune to wall-clock steps). Recording is lock-free —
// one atomic epoch check plus two atomic adds — so the per-message
// latency objective can be recorded from every shard worker without a
// shared mutex. Bucket rotation is racy by design: two recorders hitting
// a stale bucket can each reset it, losing a handful of counts at a
// bucket boundary; burn rates are ratios over thousands of events and do
// not care.

// processEpoch anchors the package's monotonic clock; time.Since on a
// single base time.Time uses the runtime's monotonic reading.
var processEpoch = time.Now()

// monotonicNS returns nanoseconds since process start.
func monotonicNS() int64 { return int64(time.Since(processEpoch)) }

// Every objective is evaluated the same way: a fast window that catches
// sharp regressions within seconds and a slow window that confirms
// sustained ones, each burning above its threshold (the SRE-workbook
// multiwindow pair), each a ring of bucketsPerWindow buckets (10s buckets
// on the fast window).
const (
	fastWindow       = 5 * time.Minute
	slowWindow       = time.Hour
	fastBurn         = 14.4
	slowBurn         = 6.0
	bucketsPerWindow = 30
)

// SLOConfig declares one objective; zero fields take defaults.
type SLOConfig struct {
	// Name identifies the objective ("accept_verdict_latency").
	Name string
	// Description explains what good/bad mean for this objective.
	Description string
	// Target is the objective's good-ratio target in (0,1), e.g. 0.99
	// (the default).
	Target float64
	// NowNS overrides the monotonic clock (tests).
	NowNS func() int64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = 0.99
	}
	if c.NowNS == nil {
		c.NowNS = monotonicNS
	}
	return c
}

// sloBucket is one time slice of a burn window. epoch is the absolute
// bucket index it currently holds counts for; a recorder that observes a
// stale epoch resets the counts before adding.
type sloBucket struct {
	epoch     atomic.Int64
	good, bad atomic.Uint64
}

// burnWindow is a ring of buckets spanning one evaluation window.
type burnWindow struct {
	bucketNS int64
	buckets  []sloBucket
}

func newBurnWindow(window time.Duration) *burnWindow {
	return &burnWindow{bucketNS: int64(window) / bucketsPerWindow, buckets: make([]sloBucket, bucketsPerWindow)}
}

// record adds counts into the current bucket.
func (w *burnWindow) record(nowNS int64, good, bad uint64) {
	e := nowNS / w.bucketNS
	b := &w.buckets[e%int64(len(w.buckets))]
	if old := b.epoch.Load(); old != e {
		// Rotate: first recorder into a recycled bucket resets it. A
		// racing recorder may add into the bucket between the swap and
		// the stores — the loss is one bucket boundary's worth of counts.
		if b.epoch.CompareAndSwap(old, e) {
			b.good.Store(0)
			b.bad.Store(0)
		}
	}
	if good > 0 {
		b.good.Add(good)
	}
	if bad > 0 {
		b.bad.Add(bad)
	}
}

// totals sums the buckets still inside the window ending at nowNS.
func (w *burnWindow) totals(nowNS int64) (good, bad uint64) {
	e := nowNS / w.bucketNS
	min := e - int64(len(w.buckets)) + 1
	for i := range w.buckets {
		b := &w.buckets[i]
		be := b.epoch.Load()
		if be >= min && be <= e {
			good += b.good.Load()
			bad += b.bad.Load()
		}
	}
	return good, bad
}

// SLO is one live objective. Record* methods are safe for concurrent use
// and cheap enough for per-message paths; a nil SLO is a no-op.
type SLO struct {
	cfg        SLOConfig
	fast, slow *burnWindow
}

// NewSLO builds one objective outside a set (tests, ad-hoc use).
func NewSLO(cfg SLOConfig) *SLO {
	cfg = cfg.withDefaults()
	return &SLO{
		cfg:  cfg,
		fast: newBurnWindow(fastWindow),
		slow: newBurnWindow(slowWindow),
	}
}

// Name returns the objective's name ("" on nil).
func (s *SLO) Name() string {
	if s == nil {
		return ""
	}
	return s.cfg.Name
}

// Record counts one event.
func (s *SLO) Record(good bool) {
	if good {
		s.RecordN(1, 0)
	} else {
		s.RecordN(0, 1)
	}
}

// RecordN counts a batch of events in one clock read.
func (s *SLO) RecordN(good, bad uint64) {
	if s == nil || (good == 0 && bad == 0) {
		return
	}
	now := s.cfg.NowNS()
	s.fast.record(now, good, bad)
	s.slow.record(now, good, bad)
}

// WindowStatus reports one evaluation window of an objective.
type WindowStatus struct {
	// Window is the evaluation span ("5m0s").
	Window string `json:"window"`
	Good   uint64 `json:"good"`
	Bad    uint64 `json:"bad"`
	// BadRatio is bad/(good+bad), 0 when the window is empty.
	BadRatio float64 `json:"bad_ratio"`
	// BurnRate is BadRatio over the error budget (1-target).
	BurnRate float64 `json:"burn_rate"`
	// BurnThreshold is the configured burning cutoff for this window.
	BurnThreshold float64 `json:"burn_threshold"`
	// Burning reports BurnRate >= BurnThreshold.
	Burning bool `json:"burning"`
}

// SLOStatus is one objective's full evaluation, the /slo document entry.
type SLOStatus struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Target      float64      `json:"target"`
	Fast        WindowStatus `json:"fast"`
	Slow        WindowStatus `json:"slow"`
	// Burning is the paging condition: both windows burning at once
	// (fast alone can be a blip; slow alone is an old burn draining).
	Burning bool `json:"burning"`
	// Inactive marks an objective whose windows saw zero events: it is
	// measuring nothing, not reporting health. The latency objective goes
	// inactive when span sampling is off (-span-sample 0), since only
	// sampled verdicts feed it.
	Inactive bool `json:"inactive,omitempty"`
}

func (s *SLO) windowStatus(w *burnWindow, span time.Duration, threshold, budget float64, nowNS int64) WindowStatus {
	good, bad := w.totals(nowNS)
	st := WindowStatus{Window: span.String(), Good: good, Bad: bad, BurnThreshold: threshold}
	if total := good + bad; total > 0 {
		st.BadRatio = float64(bad) / float64(total)
	}
	st.BurnRate = st.BadRatio / budget
	st.Burning = st.BurnRate >= threshold
	return st
}

// Status evaluates the objective now.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOStatus{}
	}
	now := s.cfg.NowNS()
	budget := 1 - s.cfg.Target
	st := SLOStatus{
		Name:        s.cfg.Name,
		Description: s.cfg.Description,
		Target:      s.cfg.Target,
		Fast:        s.windowStatus(s.fast, fastWindow, fastBurn, budget, now),
		Slow:        s.windowStatus(s.slow, slowWindow, slowBurn, budget, now),
	}
	st.Burning = st.Fast.Burning && st.Slow.Burning
	st.Inactive = st.Fast.Good+st.Fast.Bad+st.Slow.Good+st.Slow.Bad == 0
	return st
}

// FastBurning reports whether the fast window alone is burning — the
// earliest signal, what the degradation controller consumes.
func (s *SLO) FastBurning() bool {
	if s == nil {
		return false
	}
	now := s.cfg.NowNS()
	st := s.windowStatus(s.fast, fastWindow, fastBurn, 1-s.cfg.Target, now)
	return st.Burning
}

// SLOSet is the process's objective collection: what /slo serves and the
// degradation controller polls. A nil set is empty and inert.
type SLOSet struct {
	mu   sync.Mutex
	slos []*SLO

	// Per-objective labelled gauges, refreshed on Statuses; nil when the
	// set is not exported into a registry.
	reg *Registry
}

// NewSLOSet returns an empty set.
func NewSLOSet() *SLOSet { return &SLOSet{} }

// Export attaches a registry: every objective (present and future) gets
// slo_burn_rate{slo,window} and slo_burning{slo} gauges, refreshed on
// each Statuses call (i.e. each /slo or degradation-controller poll).
func (ss *SLOSet) Export(reg *Registry) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	ss.reg = reg
	ss.mu.Unlock()
}

// Add registers one objective and returns its live handle.
func (ss *SLOSet) Add(cfg SLOConfig) *SLO {
	if ss == nil {
		return nil
	}
	s := NewSLO(cfg)
	ss.mu.Lock()
	ss.slos = append(ss.slos, s)
	ss.mu.Unlock()
	return s
}

// Statuses evaluates every objective (registration order) and refreshes
// the exported gauges.
func (ss *SLOSet) Statuses() []SLOStatus {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	slos := append([]*SLO(nil), ss.slos...)
	reg := ss.reg
	ss.mu.Unlock()
	out := make([]SLOStatus, 0, len(slos))
	for _, s := range slos {
		st := s.Status()
		out = append(out, st)
		if reg != nil {
			reg.Gauge(LabelName(st.Name+"_slo_burn_rate", "window", "fast"),
				"SLO burn rate (bad ratio over error budget) per window.").Set(st.Fast.BurnRate)
			reg.Gauge(LabelName(st.Name+"_slo_burn_rate", "window", "slow"),
				"SLO burn rate (bad ratio over error budget) per window.").Set(st.Slow.BurnRate)
			burning := 0.0
			if st.Fast.Burning {
				burning = 1
			}
			reg.Gauge(st.Name+"_slo_fast_burning",
				"1 while the SLO's fast window burns above threshold.").Set(burning)
		}
	}
	return out
}

// FastBurning returns the names of objectives whose fast window is
// burning — the degradation controller's shed signal.
func (ss *SLOSet) FastBurning() []string {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	slos := append([]*SLO(nil), ss.slos...)
	ss.mu.Unlock()
	var out []string
	for _, s := range slos {
		if s.FastBurning() {
			out = append(out, s.cfg.Name)
		}
	}
	return out
}
