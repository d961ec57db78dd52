// Package lifecycle closes the paper's adaptation loop online. Offline,
// the pipeline retrains monthly and reaches for transfer learning after a
// disruptive software update (§4.3–§4.4); lifecycle runs the same loop
// inside the monitor process. A Manager spools recent normal scored
// windows per cluster (fault-burst traffic excluded), watches the live
// template distribution for drift against the training-time distribution
// (§3.3's update signature: month-over-month cosine similarity collapsing),
// fine-tunes a *candidate* detector in the background when drift or a
// schedule demands it — transfer adaptation with frozen bottom layers when
// the drift is disruptive, a plain incremental update otherwise — and
// shadow-evaluates the candidate by replaying held-out spooled traffic
// through both models. Promotion is gated on the candidate's false-alarm
// rate fitting a budget, goes through the monitor's SwapModel lockAll path
// (no message ever scores against a half-swapped model), and keeps the
// previous generation for one-step rollback.
package lifecycle

import (
	"errors"
	"fmt"
	"log"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/resilience"
)

// Config parameterizes a lifecycle Manager.
type Config struct {
	// Interval is the cycle period; each cycle checks drift and, when
	// triggered, adapts and gates a candidate. <= 0 disables the timer —
	// cycles then run only via TriggerCycle (tests, admin).
	Interval time.Duration
	// GateBudget is the promotion gate: a candidate is promoted only if
	// its false-alarm rate on held-out spooled normal windows is <= this.
	GateBudget float64
	// WindowLen is the number of events per spooled window.
	WindowLen int
	// SpoolPerCluster bounds the completed windows retained per cluster.
	SpoolPerCluster int
	// MinWindows is the spool floor below which a cluster never adapts
	// (too little data to fine-tune or gate on).
	MinWindows int
	// AdaptEveryCycles schedules a fine-tune every N cycles even without
	// drift (the paper's monthly incremental update, §4.3); 0 disables
	// scheduled adaptation (drift-triggered only).
	AdaptEveryCycles int
	// Faults, when set, registers the lifecycle's chaos fault points
	// (lifecycle.cycle, spool.write, spool.read) in this registry.
	Faults *faultinject.Registry
	// Metrics, when set, receives the lifecycle_* instrument family and
	// the candidate detectors' candidate_lstm_* training metrics.
	Metrics *obs.Registry
	// Tracer, when set, emits one adaptation span per executed cycle
	// (skipped cycles excluded), so a serving-latency tail can be
	// attributed to an adaptation cycle holding the swap locks.
	Tracer *obs.Tracer
	// Log, when set, receives one line per lifecycle decision.
	Log *log.Logger
}

// The drift rule, the shadow gate's split and the adaptation breaker are
// fixed. Every cycle compares each cluster's live template histogram with
// its training-time one once the live one holds minDriftEvents events (a
// near-empty histogram is all noise): cosine below driftThreshold (as
// pipeline.Config.DriftThreshold offline) triggers adaptation, and below
// disruptiveThreshold the update is read as having rewritten the template
// distribution (§3.3 observes >0.8 collapsing to <0.4), so the candidate
// uses transfer adaptation (Adapt: vocabulary extension + frozen bottom
// layers) instead of a plain incremental update. holdoutFraction of the
// pooled windows is held out from candidate training for the shadow gate.
// breakerThreshold consecutive failed cycles (panic, injected fault, or a
// cluster adaptation error) open the adaptation circuit breaker; timer
// cycles are then skipped until breakerCooldown admits a half-open probe.
// Forced cycles (TriggerCycle(true), POST /models/adapt) bypass the breaker
// — they are the operator's probe.
const (
	driftThreshold      = 0.7
	disruptiveThreshold = 0.4
	minDriftEvents      = 128
	holdoutFraction     = 0.25
	breakerThreshold    = 3
	breakerCooldown     = time.Minute
)

// DefaultConfig returns the serving-scale defaults.
func DefaultConfig() Config {
	return Config{
		Interval:        10 * time.Minute,
		GateBudget:      0.02,
		WindowLen:       32,
		SpoolPerCluster: 256,
		MinWindows:      24,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.WindowLen < 2 {
		c.WindowLen = d.WindowLen
	}
	if c.SpoolPerCluster <= 0 {
		c.SpoolPerCluster = d.SpoolPerCluster
	}
	if c.MinWindows <= 0 {
		c.MinWindows = d.MinWindows
	}
	if c.GateBudget < 0 {
		c.GateBudget = d.GateBudget
	}
	return c
}

// ModelSetFromBundle returns b. It is kept only for bench/, which still
// names it; a generation is a *bundle.Bundle.
func ModelSetFromBundle(b *bundle.Bundle) *bundle.Bundle { return b }

// Generation is one entry in the lifecycle's audit log: every adaptation
// attempt, promotion, rejection, rollback, and reload.
type Generation struct {
	ID   int       `json:"id"`
	Time time.Time `json:"time"`
	// Cluster is the cluster the record concerns, or -1 for whole-set
	// events (rollback, reload, forced promotion).
	Cluster int `json:"cluster"`
	// Reason is what initiated the cycle or event: "drift", "scheduled",
	// "forced", "rollback", "reload".
	Reason string `json:"reason"`
	// Mode is the adaptation mode used, "adapt" (transfer) or "update"
	// (incremental); empty for non-adaptation records.
	Mode string `json:"mode,omitempty"`
	// DriftCos is the live-vs-reference cosine similarity at decision
	// time (NaN serialized as -1 when unknown).
	DriftCos float64 `json:"drift_cos"`
	// CandidateFAR and StaleFAR are the shadow false-alarm rates of the
	// candidate and the then-serving detector on the held-out windows.
	CandidateFAR float64 `json:"candidate_far"`
	StaleFAR     float64 `json:"stale_far"`
	// GatePassed reports whether CandidateFAR fit the budget.
	GatePassed bool `json:"gate_passed"`
	// Promoted reports whether this record changed the serving set.
	Promoted bool `json:"promoted"`
	// Fingerprint identifies the candidate detector's weights.
	Fingerprint uint64 `json:"fingerprint,omitempty"`
}

// ClusterCycle is one cluster's outcome within a cycle.
type ClusterCycle struct {
	Cluster      int
	Windows      int     // clean windows spooled at cycle time
	Quarantined  int     // burst-containing windows held in quarantine
	DriftCos     float64 // NaN when not computed
	Drifted      bool
	Disruptive   bool
	Adapted      bool
	Mode         string
	CandidateFAR float64
	StaleFAR     float64
	GatePassed   bool
	Err          error
}

// CycleResult summarizes one lifecycle cycle.
type CycleResult struct {
	Time     time.Time
	Forced   bool
	Aborted  bool // serving set changed mid-cycle; candidates discarded
	Promoted bool
	// Skipped reports a cycle that never ran its body — learning shed or
	// breaker open; SkipReason says which.
	Skipped    bool
	SkipReason string
	// Panicked reports a cycle whose body panicked (recovered; counts as a
	// breaker failure).
	Panicked bool
	Clusters []ClusterCycle
}

// Manager runs the online lifecycle. Construct with New, feed it scored
// traffic by installing Observe as the monitor's OnScored hook, Attach the
// monitor, then Start the cycle timer (or drive cycles explicitly with
// TriggerCycle).
type Manager struct {
	cfg Config
	reg *obs.Registry

	// spools is swapped wholesale on reload; Observe only ever touches
	// the spoolSet and its per-cluster mutexes, never mu — it runs under
	// a monitor shard lock, and mu is held around SwapModel (which takes
	// every shard lock), so taking mu here would deadlock.
	spools atomic.Pointer[spoolSet]

	// mu guards the generation state below.
	// serving and prev are generations: immutable bundles, cloned on
	// promotion. serving.Tree is the attached monitor's live tree.
	mu         sync.Mutex
	mon        *ingest.Monitor
	serving    *bundle.Bundle
	prev       *bundle.Bundle
	pending    map[int]*detect.LSTMDetector
	refs       []cluster.Histogram
	gens       []Generation
	genSeq     int
	generation int
	cycleNum   int

	// cycleMu serializes cycles (timer ticks, TriggerCycle, admin).
	cycleMu sync.Mutex
	// disruptive is disruptiveThreshold; a test raises it to send every
	// drifted cluster through transfer adaptation.
	disruptive float64

	// breaker circuit-breaks the adaptation cycle: consecutive failed
	// cycles open it, timer cycles are then skipped for the cooldown, one
	// probe runs half-open. shedLearning pauses spooling and timer cycles
	// wholesale (the degradation controller's lever under overload or
	// durable-I/O pressure).
	breaker      *resilience.Breaker
	shedLearning atomic.Bool

	// Chaos fault points; nil (never firing) without cfg.Faults.
	fpCycle  *faultinject.Point
	fpSpoolW *faultinject.Point
	fpSpoolR *faultinject.Point

	lifeMu  sync.Mutex
	running bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	cyclesC      *obs.Counter
	adaptsC      *obs.Counter
	promosC      *obs.Counter
	rejectsC     *obs.Counter
	rollbacksC   *obs.Counter
	driftC       *obs.Counter
	quarC        *obs.Counter
	skippedC     *obs.Counter
	panicsC      *obs.Counter
	breakerOpens *obs.Counter
	spoolQuarC   *obs.Counter
	breakerGauge *obs.Gauge
	adaptSeconds *obs.Histogram
	gateDelta    *obs.Histogram
	genGauge     *obs.Gauge
	spoolGauges  []*obs.Gauge
	driftGauges  []*obs.Gauge
}

// New builds a Manager serving b. Wire m.Observe into the monitor's
// MonitorConfig.OnScored before constructing the monitor, then call
// Attach. b.TrainHist, when present, is the drift reference; absent, the
// lifecycle captures a live baseline from the first full cycle.
func New(cfg Config, b *bundle.Bundle) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:        cfg,
		serving:    b,
		pending:    make(map[int]*detect.LSTMDetector),
		refs:       refsFrom(b),
		disruptive: disruptiveThreshold,
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m.reg = reg
	s := reg.Scope("lifecycle_")
	m.cyclesC = s.Counter("cycles_total", "Lifecycle cycles run (timer + forced).")
	m.adaptsC = s.Counter("adaptations_total", "Candidate fine-tunes started (adapt + update modes).")
	m.promosC = s.Counter("promotions_total", "Candidates promoted to serving.")
	m.rejectsC = s.Counter("rejections_total", "Candidates rejected by the false-alarm gate.")
	m.rollbacksC = s.Counter("rollbacks_total", "One-step rollbacks to the previous generation.")
	m.driftC = s.Counter("drift_total", "Cycles in which a cluster's live distribution read as drifted.")
	m.quarC = s.Counter("windows_quarantined_total", "Completed windows quarantined for containing burst (fault-proximate) traffic.")
	m.adaptSeconds = s.Histogram("adapt_seconds", "Wall time of one candidate fine-tune (training only).",
		obs.ExpBuckets(0.01, 4, 10))
	m.gateDelta = s.Histogram("gate_delta", "Candidate minus stale false-alarm rate at the gate (negative = candidate better).",
		obs.LinearBuckets(-0.5, 0.05, 21))
	m.genGauge = s.Gauge("generation", "Monotonic serving-model generation number.")
	m.skippedC = s.Counter("cycles_skipped_total", "Cycles skipped because learning was shed or the breaker was open.")
	m.panicsC = s.Counter("cycle_panics_total", "Adaptation cycles that panicked (recovered; breaker failure).")
	m.breakerOpens = s.Counter("breaker_opens_total", "Times the adaptation circuit breaker opened.")
	m.spoolQuarC = s.Counter("spool_quarantines_total", "Corrupt spool files quarantined at restore (cold start taken instead).")
	m.breakerGauge = s.Gauge("breaker_state", "Adaptation breaker state (0 closed, 1 open, 2 half-open).")
	m.breaker = &resilience.Breaker{Threshold: breakerThreshold, Cooldown: breakerCooldown}
	if cfg.Faults != nil {
		m.fpCycle = cfg.Faults.Point("lifecycle.cycle",
			"At the top of an adaptation cycle: error/panic failures feed the circuit breaker.")
		m.fpSpoolW = cfg.Faults.Point("spool.write",
			"Inside the atomic spool write: disk-full/torn failures that must never cost the previous spool.")
		m.fpSpoolR = cfg.Faults.Point("spool.read",
			"Before a spool restore: error/slow failures drill the retry-or-cold-start path.")
	}
	m.buildClusterInstruments(len(b.Detectors))
	m.spools.Store(newSpoolSet(len(b.Detectors), cfg.WindowLen, cfg.SpoolPerCluster))
	return m
}

func refsFrom(b *bundle.Bundle) []cluster.Histogram {
	refs := make([]cluster.Histogram, len(b.Detectors))
	for ci, h := range b.TrainHist {
		refs[ci] = h
	}
	return refs
}

func (m *Manager) buildClusterInstruments(n int) {
	m.spoolGauges = make([]*obs.Gauge, n)
	m.driftGauges = make([]*obs.Gauge, n)
	for i := 0; i < n; i++ {
		ci := strconv.Itoa(i)
		m.spoolGauges[i] = m.reg.Gauge(obs.LabelName("lifecycle_spool_windows", "cluster", ci),
			"Completed normal windows spooled for this cluster.")
		m.driftGauges[i] = m.reg.Gauge(obs.LabelName("lifecycle_drift_cosine", "cluster", ci),
			"Live-vs-training template-distribution cosine similarity at the last cycle.")
	}
}

// Attach hands the Manager the monitor it promotes into. Separate from New
// because construction is circular: the monitor needs Observe at build
// time, the Manager needs the monitor for SwapModel. The serving
// generation takes the monitor's live tree (after a checkpoint restore,
// the checkpoint's), the template space candidates are trained in.
func (m *Manager) Attach(mon *ingest.Monitor) {
	m.mu.Lock()
	m.mon = mon
	if tree := mon.Tree(); m.serving.Tree != tree {
		m.serving = m.serving.Clone()
		m.serving.Tree = tree
	}
	m.mu.Unlock()
}

// Observe is the ingest.MonitorConfig.OnScored hook. It runs under the
// host's shard lock: O(1), spool-local, and it must never call back into
// the Monitor or take m.mu.
func (m *Manager) Observe(host string, ci int, ev features.Event, score float64, anomalous, burst bool) {
	if m.shedLearning.Load() {
		return
	}
	ss := m.spools.Load()
	if ss == nil || len(ss.clusters) == 0 {
		return
	}
	if ci < 0 || ci >= len(ss.clusters) {
		ci = 0
	}
	ss.clusters[ci].observe(host, ev, burst)
}

// Start launches the cycle timer; no-op when Interval <= 0 or already
// running.
func (m *Manager) Start() {
	if m.cfg.Interval <= 0 {
		return
	}
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if m.running {
		return
	}
	m.running = true
	m.stopCh = make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.runCycle(false)
			case <-m.stopCh:
				return
			}
		}
	}()
}

// Stop halts the cycle timer and waits for an in-flight cycle to finish.
func (m *Manager) Stop() {
	m.lifeMu.Lock()
	if !m.running {
		m.lifeMu.Unlock()
		return
	}
	m.running = false
	close(m.stopCh)
	m.lifeMu.Unlock()
	m.wg.Wait()
	m.cycleMu.Lock() // barrier: a timer-fired cycle may still be draining
	m.cycleMu.Unlock()
}

// TriggerCycle runs one cycle synchronously. force makes every cluster
// with enough spooled windows adapt regardless of drift or schedule — the
// admin/test lever.
func (m *Manager) TriggerCycle(force bool) CycleResult {
	return m.runCycle(force)
}

func (m *Manager) runCycle(force bool) CycleResult {
	m.cycleMu.Lock()
	defer m.cycleMu.Unlock()

	// Degradation and breaker gates. Forced cycles bypass both: an
	// operator's TriggerCycle(true) is itself the breaker probe.
	if !force {
		if m.shedLearning.Load() {
			m.skippedC.Inc()
			return CycleResult{Time: time.Now(), Skipped: true, SkipReason: "shed-learning"}
		}
		if !m.breaker.Allow() {
			m.skippedC.Inc()
			m.breakerGauge.SetInt(int(m.breaker.State()))
			return CycleResult{Time: time.Now(), Skipped: true, SkipReason: "breaker-open"}
		}
	}
	m.cyclesC.Inc()
	var spanStart time.Time
	if m.cfg.Tracer != nil {
		spanStart = time.Now()
	}
	res, err := m.cycleBody(force)
	if m.cfg.Tracer != nil {
		id := m.cfg.Tracer.MintID()
		m.cfg.Tracer.Emit(obs.Span{
			TraceID: id,
			Kind:    obs.KindAdaptation,
			Time:    spanStart,
			Sampled: true,
			TotalNS: int64(time.Since(spanStart)),
		})
	}
	if err != nil {
		m.breaker.Failure()
		m.logf("lifecycle: cycle failed: %v", err)
	} else {
		m.breaker.Success()
	}
	st := m.breaker.Status()
	m.breakerGauge.SetInt(int(st.State))
	m.breakerOpens.Store(st.Opens)
	return res
}

// cycleBody is one adaptation cycle. It returns a non-nil error — a
// breaker failure — when the cycle panicked (recovered here), the
// lifecycle.cycle fault point fired, or any cluster's fine-tune errored.
// Caller holds cycleMu.
func (m *Manager) cycleBody(force bool) (res CycleResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panicsC.Inc()
			res.Panicked = true
			err = fmt.Errorf("lifecycle: cycle panic (recovered): %v", r)
		}
	}()
	if ferr := m.fpCycle.Fire(); ferr != nil {
		res.Time = time.Now()
		res.Forced = force
		return res, fmt.Errorf("lifecycle: cycle: %w", ferr)
	}

	m.mu.Lock()
	serving := m.serving
	cycle := m.cycleNum
	m.cycleNum++
	refs := append([]cluster.Histogram(nil), m.refs...)
	// Snapshot the per-cluster gauge slices: SetServing (hot reload) rebuilds
	// them under mu while this loop runs outside it.
	spoolGauges, driftGauges := m.spoolGauges, m.driftGauges
	m.mu.Unlock()

	res = CycleResult{Time: time.Now(), Forced: force}
	ss := m.spools.Load()
	scheduled := m.cfg.AdaptEveryCycles > 0 && cycle > 0 && cycle%m.cfg.AdaptEveryCycles == 0

	type outcome struct {
		cc        ClusterCycle
		candidate *detect.LSTMDetector
		liveHist  cluster.Histogram
		baseline  bool // liveHist captured as a new drift baseline only
	}
	var outs []outcome
	var quarSum uint64

	for ci, cs := range ss.clusters {
		clean, quar, hist := cs.snapshot(true)
		quarSum += cs.quarantinedTotal()
		if ci < len(spoolGauges) {
			spoolGauges[ci].SetInt(len(clean))
		}
		cc := ClusterCycle{Cluster: ci, Windows: len(clean), Quarantined: len(quar), DriftCos: math.NaN()}
		var ref cluster.Histogram
		if ci < len(refs) {
			ref = refs[ci]
		}
		enoughLive := hist.Total() >= minDriftEvents
		baseline := false
		if ref == nil {
			if enoughLive {
				// No training-time distribution shipped with the model:
				// adopt the first full live histogram as the baseline and
				// judge drift from the next cycle on. Forced and scheduled
				// adaptation still proceed below — only the drift signal
				// has nothing to compare against yet.
				baseline = true
				m.logf("lifecycle: cluster %d captured live drift baseline (%d events)", ci, int(hist.Total()))
			}
		} else if enoughLive {
			cc.DriftCos = cluster.Cosine(hist, ref)
			cc.Drifted = cc.DriftCos < driftThreshold
			cc.Disruptive = cc.DriftCos < m.disruptive
			if ci < len(driftGauges) {
				driftGauges[ci].Set(cc.DriftCos)
			}
			if cc.Drifted {
				m.driftC.Inc()
				m.logf("lifecycle: cluster %d drifted (cosine %.3f < %.3f, disruptive=%v)",
					ci, cc.DriftCos, driftThreshold, cc.Disruptive)
			}
		}

		// The adaptation pool: clean windows always; quarantined windows
		// only when the drift signal (or a forced cycle) attributes their
		// bursts to a distribution shift rather than a fault. Without
		// drift, quarantined traffic is presumed fault-proximate and never
		// trains anything.
		pool := clean
		if (force || cc.Drifted) && len(quar) > 0 {
			pool = append(append([][]features.Event{}, clean...), quar...)
		}
		trigger := force || cc.Drifted || scheduled
		if !trigger || len(pool) < m.cfg.MinWindows || ci >= len(serving.Detectors) {
			outs = append(outs, outcome{cc: cc, liveHist: hist, baseline: baseline})
			continue
		}

		// Fine-tune a candidate in the clear: the clone shares no mutable
		// state with the serving detector, so scoring continues unharmed.
		train, holdout := splitHoldout(pool, holdoutFraction)
		stale := serving.Detectors[ci]
		cand := stale.Clone()
		cand.SetMetrics(m.cfg.Metrics, "candidate_")
		cc.Mode = "update"
		if cc.Disruptive {
			cc.Mode = "adapt"
		}
		start := m.adaptSeconds.Start()
		var err error
		if cc.Mode == "adapt" {
			err = cand.Adapt(train)
		} else {
			err = cand.Update(train)
		}
		m.adaptSeconds.ObserveDuration(start)
		m.adaptsC.Inc()
		if err != nil {
			cc.Err = err
			m.logf("lifecycle: cluster %d %s failed: %v", ci, cc.Mode, err)
			outs = append(outs, outcome{cc: cc, liveHist: hist, baseline: baseline})
			continue
		}
		cc.Adapted = true
		cc.CandidateFAR = falseAlarmRate(cand, holdout, serving.Threshold)
		cc.StaleFAR = falseAlarmRate(stale, holdout, serving.Threshold)
		m.gateDelta.Observe(cc.CandidateFAR - cc.StaleFAR)
		cc.GatePassed = cc.CandidateFAR <= m.cfg.GateBudget
		m.logf("lifecycle: cluster %d %s candidate FAR %.4f (stale %.4f, budget %.4f) gate=%v",
			ci, cc.Mode, cc.CandidateFAR, cc.StaleFAR, m.cfg.GateBudget, cc.GatePassed)
		outs = append(outs, outcome{cc: cc, candidate: cand, liveHist: hist, baseline: baseline})
	}
	m.quarC.Store(quarSum)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.serving != serving {
		// A reload replaced the serving set mid-cycle; the candidates were
		// trained against a stale lineage. Drop everything.
		res.Aborted = true
		for _, o := range outs {
			res.Clusters = append(res.Clusters, o.cc)
		}
		return res, nil
	}
	reason := "drift"
	if scheduled {
		reason = "scheduled"
	}
	if force {
		reason = "forced"
	}
	var next *bundle.Bundle
	for _, o := range outs {
		res.Clusters = append(res.Clusters, o.cc)
		if o.baseline {
			m.refs[o.cc.Cluster] = o.liveHist
		}
		if !o.cc.Adapted {
			continue
		}
		gen := Generation{
			Time:         res.Time,
			Cluster:      o.cc.Cluster,
			Reason:       reason,
			Mode:         o.cc.Mode,
			DriftCos:     o.cc.DriftCos,
			CandidateFAR: o.cc.CandidateFAR,
			StaleFAR:     o.cc.StaleFAR,
			GatePassed:   o.cc.GatePassed,
			Fingerprint:  o.candidate.Fingerprint(),
		}
		if o.cc.GatePassed {
			if next == nil {
				next = serving.Clone()
			}
			next.Detectors[o.cc.Cluster] = o.candidate
			// The distribution we just adapted to is the new normal;
			// re-referencing it stops the drift signal from re-firing
			// every cycle against the pre-update histogram.
			m.refs[o.cc.Cluster] = o.liveHist
			delete(m.pending, o.cc.Cluster)
			gen.Promoted = true
		} else {
			m.rejectsC.Inc()
			// Retain the rejected candidate so an operator who disagrees
			// with the gate can still force it.
			m.pending[o.cc.Cluster] = o.candidate
		}
		m.recordLocked(gen)
	}
	if next != nil {
		m.promoteLocked(next, reason)
		res.Promoted = true
	}
	for _, cc := range res.Clusters {
		if cc.Err != nil {
			return res, fmt.Errorf("lifecycle: cluster %d %s: %w", cc.Cluster, cc.Mode, cc.Err)
		}
	}
	return res, nil
}

// installLocked makes next the serving generation, with prev as the
// rollback target, and swaps it into the monitor atomically (SwapModel
// holds every shard lock, so no message scores against a half-swapped
// model). Promotion, forced promotion and rollback all come through here.
// next.Tree is the monitor's live tree, so the template space is kept, and
// so is the host→cluster mapping, since a generation replaces detectors,
// never the assignment. Caller holds m.mu.
func (m *Manager) installLocked(next, prev *bundle.Bundle) {
	m.serving, m.prev = next, prev
	m.generation++
	if m.mon != nil {
		m.mon.SwapModel(next)
	}
	m.genGauge.SetInt(m.generation)
}

// promoteLocked installs next, keeping the serving generation for
// rollback. Caller holds m.mu.
func (m *Manager) promoteLocked(next *bundle.Bundle, reason string) {
	m.installLocked(next, m.serving)
	m.promosC.Inc()
	m.logf("lifecycle: promoted generation %d (%s)", m.generation, reason)
}

// ForcePromote promotes all pending (gate-failed) candidates as one new
// generation, bypassing the gate — the operator override behind POST
// /models/promote.
func (m *Manager) ForcePromote() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return errors.New("lifecycle: no pending candidates to promote")
	}
	next := m.serving.Clone()
	var fp uint64
	for ci, cand := range m.pending {
		if ci < len(next.Detectors) {
			next.Detectors[ci] = cand
			fp = cand.Fingerprint()
		}
	}
	m.pending = make(map[int]*detect.LSTMDetector)
	m.promoteLocked(next, "forced")
	m.recordLocked(Generation{
		Time: time.Now(), Cluster: -1, Reason: "forced",
		DriftCos: math.NaN(), Promoted: true, Fingerprint: fp,
	})
	return nil
}

// Rollback restores the previous generation (one step). Calling it twice
// toggles back.
func (m *Manager) Rollback() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prev == nil {
		return errors.New("lifecycle: no previous generation to roll back to")
	}
	m.installLocked(m.prev, m.serving)
	m.rollbacksC.Inc()
	m.recordLocked(Generation{
		Time: time.Now(), Cluster: -1, Reason: "rollback",
		DriftCos: math.NaN(), Promoted: true,
	})
	m.logf("lifecycle: rolled back to previous generation (now %d)", m.generation)
	return nil
}

// SetServing replaces the serving generation after an external reload
// (SIGHUP bundle reload in nfvmonitor). The caller has already swapped b
// into the monitor; SetServing realigns lifecycle state: spools are
// rebuilt (the new bundle's tree is a different template lineage), drift
// references reset from b, and pending/previous generations are dropped
// (they belong to the old lineage).
func (m *Manager) SetServing(b *bundle.Bundle) {
	m.mu.Lock()
	m.serving = b
	m.prev = nil
	m.pending = make(map[int]*detect.LSTMDetector)
	m.refs = refsFrom(b)
	m.generation++
	m.genGauge.SetInt(m.generation)
	m.buildClusterInstruments(len(b.Detectors))
	m.recordLocked(Generation{
		Time: time.Now(), Cluster: -1, Reason: "reload",
		DriftCos: math.NaN(), Promoted: true,
	})
	m.mu.Unlock()
	m.spools.Store(newSpoolSet(len(b.Detectors), m.cfg.WindowLen, m.cfg.SpoolPerCluster))
}

// BreakerStatus reports the adaptation circuit breaker's state.
func (m *Manager) BreakerStatus() resilience.BreakerStatus {
	return m.breaker.Status()
}

// SetShedLearning toggles shed-learning mode: spooling stops (Observe
// returns immediately) and timer cycles are skipped. The degradation
// controller's lever — scoring continues untouched.
func (m *Manager) SetShedLearning(v bool, reason string) {
	if m.shedLearning.Swap(v) != v {
		if v {
			m.logf("lifecycle: shedding learning (%s)", reason)
		} else {
			m.logf("lifecycle: learning resumed (%s)", reason)
		}
	}
}

// Serving returns the current serving generation (treat as read-only).
func (m *Manager) Serving() *bundle.Bundle {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.serving
}

// Generation returns the monotonic serving-generation number.
func (m *Manager) Generation() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.generation
}

// maxGenerations bounds the audit log; older entries roll off.
const maxGenerations = 256

// recordLocked appends one audit entry. Caller holds m.mu. An unknown
// drift cosine (NaN, which JSON cannot carry) is stored as -1.
func (m *Manager) recordLocked(g Generation) {
	if math.IsNaN(g.DriftCos) {
		g.DriftCos = -1
	}
	m.genSeq++
	g.ID = m.genSeq
	m.gens = append(m.gens, g)
	if len(m.gens) > maxGenerations {
		m.gens = m.gens[len(m.gens)-maxGenerations:]
	}
}

// Status is the lifecycle summary surfaced on /statusz.
type Status struct {
	Generation   int                      `json:"generation"`
	Cycles       int                      `json:"cycles"`
	Pending      []int                    `json:"pending_clusters"`
	SpoolWindows []int                    `json:"spool_windows"`
	CanRollback  bool                     `json:"can_rollback"`
	Breaker      resilience.BreakerStatus `json:"breaker"`
	ShedLearning bool                     `json:"shed_learning"`
}

// Status reports the lifecycle's current shape.
func (m *Manager) Status() Status {
	m.mu.Lock()
	st := Status{
		Generation:   m.generation,
		Cycles:       m.cycleNum,
		CanRollback:  m.prev != nil,
		Breaker:      m.breaker.Status(),
		ShedLearning: m.shedLearning.Load(),
	}
	for ci := range m.pending {
		st.Pending = append(st.Pending, ci)
	}
	m.mu.Unlock()
	sortInts(st.Pending)
	ss := m.spools.Load()
	for _, cs := range ss.clusters {
		st.SpoolWindows = append(st.SpoolWindows, cs.depth())
	}
	return st
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Log != nil {
		m.cfg.Log.Printf(format, args...)
	}
}
