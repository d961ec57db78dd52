package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"nfvpredict/internal/eval"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/resilience"
)

// result is one workload's report.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	FramesSent   int               `json:"frames_sent"`
	FramesFailed int               `json:"frames_failed"`
	Correct      bool              `json:"correct"`
	Errors       []string          `json:"errors,omitempty"`
	Warnings     []string          `json:"warnings,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	SpanFile     string            `json:"span_file,omitempty"`
}

// runner carries one workload run's inputs and accumulates its report.
type runner struct {
	w       *workload
	sc      scale
	seed    int64
	seconds float64
	outDir  string
	// quick is the smoke test's scale: one set-up, one sample per phase.
	quick bool

	res result
	// blocked and polls sum the generators' waits for the smoke test.
	blocked, polls int
}

// setups is how many times set-up is repeated for setup_s's median, and
// minSamples the fewest throughput samples a phase reports.
func (r *runner) setups() int {
	if r.quick {
		return 1
	}
	return 3
}

func (r *runner) minSamples() int { return r.setups() }

func (r *runner) fail(format string, args ...any) {
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

func (r *runner) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// count folds one generator's totals into the report.
func (r *runner) count(g *generator) {
	failed, err := g.settle()
	if err != nil {
		r.fail("%v", err)
	}
	r.res.FramesSent += g.sent
	r.res.FramesFailed += failed + g.inflight
	r.blocked += g.blocked
	r.polls += g.polls
}

// adaptResult is update_adapt's one pass through the drift story.
type adaptResult struct {
	serve, cpu   time.Duration // the serving segments, by wall clock and CPU
	cycles       []time.Duration
	promotions   int
	spoolWindows int
	ckpt         ckptResult
}

type ckptResult struct {
	save, restore time.Duration
	bytes, hosts  int
}

// checkpoint saves the monitor, restores the bytes into a fresh one and
// holds the copy to the live monitor's counters and warnings.
func checkpoint(s *stack) (ckptResult, error) {
	var c ckptResult
	var buf bytes.Buffer
	t0 := time.Now()
	if err := s.mon.Checkpoint(&buf); err != nil {
		return c, err
	}
	c.save = time.Since(t0)
	c.bytes = buf.Len()
	c.hosts = s.mon.Stats().ActiveHosts
	// Only what the snapshot does not carry is supplied again; a shared
	// registry would alias the live monitor's counters.
	rcfg := ingest.DefaultMonitorConfig()
	rcfg.Threshold = s.mcfg.Threshold
	rcfg.ClusterOf = s.mcfg.ClusterOf
	resolve := s.b.DetectorFor
	if s.lm != nil {
		if ms := s.lm.Serving(); ms != nil {
			resolve = ms.Resolver()
		}
	}
	t0 = time.Now()
	restored, err := ingest.RestoreMonitor(bytes.NewReader(buf.Bytes()), rcfg, resolve, nil)
	if err != nil {
		return c, fmt.Errorf("restoring the checkpoint: %w", err)
	}
	c.restore = time.Since(t0)
	if err := outcomeOf(restored).equal(outcomeOf(s.mon)); err != nil {
		return c, fmt.Errorf("checkpoint→restore parity: %w", err)
	}
	return c, nil
}

// adaptPass serves update_adapt's range once: at update+7/14/21 d it
// drains and forces a lifecycle cycle, and at the first of those cuts it
// first holds the monitor to the reference and round-trips a checkpoint.
func (r *runner) adaptPass(g *generator, ref outcome) (*adaptResult, error) {
	fx, s := g.fx, g.s
	a := &adaptResult{}
	baseGen := s.lm.Generation()
	cursor := 0
	serveTo := func(hi int) error {
		t0, c0 := time.Now(), cpuTime()
		if err := g.send(cursor, hi); err != nil {
			return err
		}
		if err := g.drain(); err != nil {
			return err
		}
		a.serve += time.Since(t0)
		a.cpu += cpuTime() - c0
		cursor = hi
		return nil
	}
	for ci, cut := range fx.cuts {
		if err := serveTo(cut); err != nil {
			return a, err
		}
		if ci == 0 {
			if err := outcomeOf(s.mon).equal(ref); err != nil {
				r.fail("wire run up to the first cycle differs from the reference: %v", err)
			}
			c, err := checkpoint(s)
			if err != nil {
				r.fail("%v", err)
			}
			a.ckpt = c
		}
		t0 := time.Now()
		if res := s.lm.TriggerCycle(true); res.Skipped {
			r.fail("forced cycle %d skipped: %s", ci, res.SkipReason)
		}
		a.cycles = append(a.cycles, time.Since(t0))
	}
	if err := serveTo(fx.n()); err != nil {
		return a, err
	}
	a.promotions = s.lm.Generation() - baseGen
	if a.promotions < 1 {
		r.fail("no candidate was promoted in %d forced cycles", len(a.cycles))
	}
	for _, n := range s.lm.Status().SpoolWindows {
		a.spoolWindows += n
	}
	return a, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// endToEnd is the --trace 0 run: set-up (repeated), the reference, then
// the wire phases with nothing of the benchmark's own tracing on.
func (r *runner) endToEnd() error {
	var fx *fixture
	var totals []time.Duration
	for i := 0; i < r.setups(); i++ {
		f, err := setup(r.w, r.sc, r.seed)
		if err != nil {
			return err
		}
		fx = f
		totals = append(totals, f.times.total)
	}
	msgs, _, err := parseAll(fx)
	if err != nil {
		return err
	}
	refN := fx.n()
	if r.w.adapt {
		refN = fx.cuts[0]
	}
	_, ref, _, _, err := reference(fx, msgs[:refN], 0)
	if err != nil {
		return err
	}
	msgs = nil

	done := make(chan struct{}, window)
	s, err := newStack(fx, stackOpts{done: done, lifecycle: r.w.adapt})
	if err != nil {
		return err
	}
	defer s.close()
	g := &generator{fx: fx, s: s, done: done}
	defer r.count(g)

	// Three set-ups and the reference leave a heap full of garbage; start
	// each timed phase from a collected one.
	runtime.GC()
	var rates, cpus []float64
	from := 0
	if r.w.adapt {
		a, err := r.adaptPass(g, ref)
		if err != nil {
			return err
		}
		// The story's serving segments are the first sample. What its
		// cycles cost depends on which clusters the seed's update disturbs
		// (8 fine-tune epochs against 1), so that is a per-layer number; the
		// samples after it serve the same range on the adapted model with
		// the lifecycle still spooling.
		rates = append(rates, float64(fx.n())/a.serve.Seconds())
		cpus = append(cpus, float64(a.cpu.Nanoseconds())/1e3/float64(fx.n()))
	} else {
		if r.w.shed {
			s.mon.SetDegrade(resilience.ModeShedScoring)
		}
		// The first sample starts cold (no host has a stream yet) and is
		// the one the oracle checks; only the warm ones after it are timed.
		if _, _, err := g.sample(); err != nil {
			return err
		}
		r.checkFirst(g, ref)
		from = s.meter.mark()
	}
	start := time.Now()
	for len(rates) < r.minSamples() || time.Since(start) < r.budget(0.85) {
		rate, cpu, err := g.sample()
		if err != nil {
			return err
		}
		rates, cpus = append(rates, rate), append(cpus, cpu)
	}
	// Read before anything else is served: the recovery pass and the round
	// trips below would tick the same meter.
	ceiling, windows := s.meter.ceiling(from, ceilingQuantile)
	if r.w.shed {
		// Recovery, as the degrader does it. OnScored, the round trip's
		// only verdict signal, is silent while shed; and one served pass
		// gives every host a stream again (a host's first message is not
		// scored, and 38 such round trips would sit below the floor). The
		// tree stayed warm, so that pass must warn exactly as a monitor
		// that never shed.
		s.mon.SetDegrade(resilience.ModeNormal)
		if err := g.pass(); err != nil {
			return err
		}
		got := outcomeOf(s.mon)
		got.messages = ref.messages
		if err := got.equal(ref); err != nil {
			r.fail("pass after recovery from shedding differs from the reference: %v", err)
		}
	}
	runtime.GC()
	rtts, err := g.rtt(r.budget(0.15), r.sc.rttFrames)
	if err != nil {
		return err
	}

	fmt.Printf("  %s: %d passes %.0f msgs/s at %.2f CPU us/msg, %d windows of %d messages, %d round trips\n",
		r.w.name, len(rates), rates, cpus, windows, r.w.windowMsgs(), len(rtts))
	e := newMetricSet(endToEnd)
	e.set("throughput_ceiling_msgs_s", ceiling)
	e.set("verdict_rtt_floor_us", float64(quantile(rtts, rttFloor).Nanoseconds())/1e3)
	e.set("setup_s", medianDuration(totals).Seconds())
	var bad []string
	r.res.EndToEnd, bad = e.out()
	for _, name := range bad {
		r.fail("metric %s is not finite", name)
	}
	return nil
}

// ceilingQuantile is the quantile of the window rates
// throughput_ceiling_msgs_s reports: high enough to sit among the windows a
// shared host left alone however few they are in a run, low enough to
// leave some fifteen windows above it.
const ceilingQuantile = 0.995

// rttFloor is the quantile verdict_rtt_floor_us reports: low enough to sit
// in the round trip's fast mode however small that mode's share is in a
// run, high enough to leave some twenty samples below it.
const rttFloor = 0.001

// checkFirst holds the state one sample left behind to the oracle.
func (r *runner) checkFirst(g *generator, ref outcome) {
	if r.w.shed {
		// The generator waited on the message counter, which a worker
		// bumps just before the shed counter.
		if !eventually(func() bool { return g.s.mon.Stats().ShedMessages == uint64(g.sent) }) {
			r.fail("shed %d of %d frames sent", g.s.mon.Stats().ShedMessages, g.sent)
		}
		return
	}
	if r.w.samplePasses != 1 {
		panic("bench: the reference covers one pass")
	}
	if err := outcomeOf(g.s.mon).equal(ref); err != nil {
		r.fail("wire run differs from the reference: %v", err)
	}
}

// lanesPerBatch reads the mean of the detectors' batch-lane histograms.
func lanesPerBatch(s *stack) float64 {
	var sum float64
	var n uint64
	for name, h := range s.reg.Snapshot().Histograms {
		if strings.HasSuffix(name, "lstm_batch_lanes") {
			sum += h.Sum
			n += h.Count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// layers is the --trace 1 run: one set-up, then each depth and each stage
// timed from outside through public functions, the traced replay, and the
// diagnostics too noisy to gate.
func (r *runner) layers() error {
	fx, err := setup(r.w, r.sc, r.seed)
	if err != nil {
		return err
	}
	L := newMetricSet(perLayer)
	n := float64(fx.n())
	tm := fx.times
	L.set("setup.sim_s", tm.sim.Seconds())
	L.set("setup.dataset_s", tm.dataset.Seconds())
	L.set("setup.cluster_s", tm.cluster.Seconds())
	L.set("setup.train_s", tm.train.Seconds())
	L.set("setup.train_tokens_s", float64(tm.trainTokens)/tm.train.Seconds())
	L.set("setup.encode_s", tm.encode.Seconds())
	L.set("setup.cpu_s", tm.cpu.Seconds())
	L.set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	L.set("env.nproc", float64(runtime.NumCPU()))

	// Stage costs: the bulk replay, then the same work inside the monitor.
	bulk, err := replay(fx, false)
	if err != nil {
		return err
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	L.set("logfmt.parse_ns", per(bulk.parse))
	L.set("sigtree.prepare_ns", per(bulk.prepare))
	L.set("sigtree.learn_ns", per(bulk.learn))
	L.set("detect.push_ns", per(bulk.push))
	L.set("sigtree.templates", float64(bulk.templates))
	L.set("sigtree.new_templates", float64(bulk.newTemplates))
	L.set("sigtree.syms", float64(bulk.syms))

	msgs, _, err := parseAll(fx)
	if err != nil {
		return err
	}
	cut := 0
	if r.w.adapt {
		cut = fx.cuts[0]
	}
	refAtCut, ref, st, el, err := reference(fx, msgs, cut)
	if err != nil {
		return err
	}
	if err := bulk.out.equal(ref); err != nil {
		r.fail("layer replay differs from the reference: %v", err)
	}
	sum := per(bulk.prepare + bulk.learn + bulk.push)
	L.set("monitor.handle_ns", per(el))
	L.set("monitor.verdict_rest_ns", per(el)-sum)
	L.set("monitor.evicted_hosts", float64(st.EvictedHosts))
	L.set("budget.sum_ns", sum)
	coverage := sum / per(el)
	L.set("budget.coverage", coverage)
	if coverage < 0.7 || coverage > 1.1 {
		r.res.Warnings = append(r.res.Warnings, fmt.Sprintf("budget.coverage %.2f is outside 0.7-1.1: the stage sum does not explain monitor.handle_ns", coverage))
	}

	traced, err := replay(fx, true)
	if err != nil {
		return err
	}
	if err := traced.out.equal(bulk.out); err != nil {
		r.fail("traced replay differs from the bulk replay: %v", err)
	}
	stages := bulk.parse + bulk.prepare + bulk.learn + bulk.push + bulk.verdict
	L.set("trace.overhead_ratio", traced.total.Seconds()/stages.Seconds())
	L.set("trace.spans", float64(len(traced.spans)))
	if r.res.SpanFile, err = writeSpans(r.outDir, r.w.name, r.seed, traced.spans); err != nil {
		return err
	}

	// Depths below the wire, and the kernels alone.
	passes, steps := 4, 20000
	if r.quick {
		passes, steps = 1, 2000
	}
	rate, err := nullSinkRate(fx, passes)
	if err != nil {
		return err
	}
	L.set("ingest_server.null_sink_msgs_s", rate)
	if rate, err = enqueueRate(fx, msgs); err != nil {
		return err
	}
	L.set("monitor.enqueue_msgs_s", rate)
	stepNS, laneNS, err := stepCosts(fx, steps)
	if err != nil {
		return err
	}
	L.set("nn.step_ns", stepNS)
	L.set("detect.pushbatch_ns_per_lane", laneNS)

	// The wire itself, with the detectors metered for the lane histogram.
	done := make(chan struct{}, window)
	s, err := newStack(fx, stackOpts{done: done, lifecycle: r.w.adapt, detMetrics: true})
	if err != nil {
		return err
	}
	defer s.close()
	g := &generator{fx: fx, s: s, done: done}
	defer r.count(g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if r.w.adapt {
		a, err := r.adaptPass(g, refAtCut)
		if err != nil {
			return err
		}
		L.set("lifecycle.cycle_s", medianDuration(a.cycles).Seconds())
		L.set("lifecycle.promotions", float64(a.promotions))
		L.set("lifecycle.spool_windows", float64(a.spoolWindows))
		L.set("lifecycle.serve_msgs_s", n/a.serve.Seconds())
		r.setCheckpoint(L, a.ckpt)
	} else {
		if r.w.shed {
			s.mon.SetDegrade(resilience.ModeShedScoring)
		}
		if _, _, err := g.sample(); err != nil {
			return err
		}
		r.checkFirst(g, ref)
	}
	runtime.ReadMemStats(&after)
	L.set("wire.allocs_per_msg", float64(after.Mallocs-before.Mallocs)/float64(g.sent))
	L.set("wire.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	L.set("detect.lanes_per_batch", lanesPerBatch(s))
	// Back to the shipped wiring (nothing is in flight): the detectors
	// serve unmetered from here on, as obs.overhead_pct's metered side.
	dets := s.b.Detectors
	if s.lm != nil {
		dets = s.lm.Serving().Detectors
	}
	for _, d := range dets {
		d.SetMetrics(nil, "")
	}
	mst := s.mon.Stats()
	L.set("monitor.anomalies", float64(mst.Anomalies))
	L.set("monitor.warnings", float64(mst.Warnings))
	L.set("monitor.shed", float64(mst.ShedMessages))
	if !r.w.adapt {
		c, err := checkpoint(s)
		if err != nil {
			r.fail("%v", err)
		}
		r.setCheckpoint(L, c)
	}

	final := outcomeOf(s.mon)

	// Quality of what was served, judged by the trace's tickets; after an
	// update, over the post-update range only (the §4.3 claim).
	from := fx.serveStart
	if !fx.update.IsZero() {
		from = fx.update
	}
	sm := eval.MapWarnings(final.warnings, fx.tickets, eval.DefaultConfig(), from, fx.serveEnd).Summary()
	L.set("eval.warn_f1", sm.F)
	L.set("eval.far_per_day", sm.FalseAlarmsPerDay)

	// Observability's own cost: the same passes with every handle nil.
	pct, rate, cpu, err := r.obsOverhead(fx, g)
	if err != nil {
		return err
	}
	L.set("obs.overhead_pct", pct)
	L.set("wire.throughput_msgs_s", rate)
	L.set("wire.cpu_us_per_msg", cpu)

	s.mon.SetDegrade(resilience.ModeNormal)
	rtts, err := g.rtt(r.budget(0.2), r.sc.rttFrames)
	if err != nil {
		return err
	}
	L.set("wire.rtt_p50_us", float64(quantile(rtts, 0.5).Nanoseconds())/1e3)
	L.set("wire.rtt_p99_us", float64(quantile(rtts, 0.99).Nanoseconds())/1e3)
	L.set("wire.rtt_p999_us", float64(quantile(rtts, 0.999).Nanoseconds())/1e3)
	L.set("wire.rtt_samples", float64(len(rtts)))

	var bad []string
	r.res.PerLayer, bad = L.out()
	for _, name := range bad {
		r.fail("metric %s is not finite", name)
	}
	return nil
}

func (r *runner) setCheckpoint(L *metricSet, c ckptResult) {
	L.set("checkpoint.save_us", float64(c.save.Nanoseconds())/1e3)
	L.set("checkpoint.restore_us", float64(c.restore.Nanoseconds())/1e3)
	L.set("checkpoint.bytes", float64(c.bytes))
	if c.hosts > 0 {
		L.set("monitor.state_bytes_per_host", float64(c.bytes)/float64(c.hosts))
	}
}

// obsOverhead alternates samples between the metered stack (on, warm from
// the wire phase) and one with every obs handle nil, and returns how much
// slower the metered one is, in percent of the bare rate, with the metered
// stack's own median rate and CPU time per message.
func (r *runner) obsOverhead(fx *fixture, on *generator) (pct, rate, cpuUS float64, err error) {
	done := make(chan struct{}, window)
	s, err := newStack(fx, stackOpts{done: done, noObs: true, lifecycle: fx.w.adapt})
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.close()
	bare := &generator{fx: fx, s: s, done: done}
	defer r.count(bare)
	if fx.w.shed {
		s.mon.SetDegrade(resilience.ModeShedScoring)
	}
	// The bare stack's first sample only warms it, as the wire phase
	// warmed the other.
	if _, _, err := bare.sample(); err != nil {
		return 0, 0, 0, err
	}
	var onRates, onCPU, bareRates []float64
	for i := 0; i < min(2, r.minSamples()); i++ {
		a, cpu, err := on.sample()
		if err != nil {
			return 0, 0, 0, err
		}
		b, _, err := bare.sample()
		if err != nil {
			return 0, 0, 0, err
		}
		onRates, onCPU, bareRates = append(onRates, a), append(onCPU, cpu), append(bareRates, b)
	}
	return 100 * (median(bareRates) - median(onRates)) / median(bareRates), median(onRates), median(onCPU), nil
}
