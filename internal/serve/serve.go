// Package serve assembles the serving stack — registry, span ring and
// tracer, SLOs, health, sharded monitor (restored from its checkpoint when
// usable), optional lifecycle, degradation controller, syslog listeners —
// for cmd/nfvmonitor, the scenario runner, the example and their tests
// alike: what is tested and drilled is what ships, and only the traffic
// source differs. Every anomalous verdict leaves one decision span in the
// ring, carrying its explanation; the admin surface serves them on
// /spans?anomalous=1.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/resilience"
)

// Options says what to serve and the settings callers differ on. Start
// from DefaultOptions.
type Options struct {
	// Bundle is the serving model — signature tree, per-cluster detectors,
	// host assignment, threshold — as cmd/nfvtrain writes it, the
	// bootstrap trainer builds it and Reload swaps it. The stack takes it
	// over: New stamps its Lineage when unset, and its Tree is the live
	// tree a cold start grows. When Checkpoint+".model" holds a generation
	// of the same lineage, New serves that instead (see Checkpoint), at
	// this bundle's threshold.
	Bundle *bundle.Bundle

	// UDPAddr and TCPAddr are the syslog listen addresses ("" disables
	// one); Year resolves RFC 3164 timestamps.
	UDPAddr, TCPAddr string
	Year             int
	Shards           int           // scoring shards; 0 means GOMAXPROCS
	Watchdog         time.Duration // stuck-shard-worker deadline; 0 disables
	// SpanBuffer sizes the /spans ring; SpanSample is the 1-in-N
	// stage-clock sampling rate (0 samples nothing; anomalous verdicts
	// still get spans); LatencyBound is the accept→verdict bound of the
	// latency SLO.
	SpanBuffer, SpanSample int
	LatencyBound           time.Duration
	// Lifecycle, when set, attaches the online model lifecycle with this
	// configuration (its Metrics, Tracer and Faults are the stack's).
	Lifecycle *lifecycle.Config
	// Faults, when set, makes the stack's fault points live in this
	// registry and mounts it under /chaos/ on the admin surface.
	Faults *faultinject.Registry
	// Checkpoint is restored by New and written by Checkpoint; Spool is
	// the lifecycle spool that rides along with it ("" disables either).
	Checkpoint, Spool string
	Log               *obs.Logger          // operational lines; nil drops them
	OnWarning         func(detect.Warning) // fires once per warning signature
}

// DefaultOptions returns the shipped settings — the nfvmonitor flag
// defaults read their values from here.
func DefaultOptions() Options {
	return Options{
		UDPAddr:      "127.0.0.1:5514",
		Year:         time.Now().Year(),
		Watchdog:     30 * time.Second,
		SpanBuffer:   768,
		SpanSample:   16,
		LatencyBound: 250 * time.Millisecond,
	}
}

const sloTarget = 0.99 // the objective of each standing SLO

// ioRetry is the retry policy for durable writes (checkpoint and spool):
// transient faults are absorbed here, and the atomic write underneath
// keeps the previous artifact through every failed attempt.
var ioRetry = resilience.RetryPolicy{Attempts: 3, Base: 50 * time.Millisecond, Max: 2 * time.Second}

// Stack is the assembled serving runtime; the exported fields are its
// long-lived components.
type Stack struct {
	Registry *obs.Registry
	Spans    *obs.SpanRing
	Tracer   *obs.Tracer
	Health   *obs.Health
	// SLOs is the set behind /slo; the three standing objectives follow.
	SLOs                           *obs.SLOSet
	SLOLatency, SLODrops, SLOAvail *obs.SLO

	Monitor    *ingest.Monitor
	RestoredAt time.Time // when New resumed Monitor from the checkpoint; zero after a cold start
	// ModelFile is Checkpoint+".model" when New served the generation saved
	// there in place of Options.Bundle, "" when it served Options.Bundle.
	ModelFile string
	Server    *ingest.Server
	Lifecycle *lifecycle.Manager // nil unless Options.Lifecycle was set
	// Degrader steps the stack between normal / shed-learning /
	// shed-scoring from the samples SampleDegrade feeds it.
	Degrader *resilience.Degrader
	// Profiler, when the caller sets it, captures a CPU profile when an
	// SLO fast window starts burning.
	Profiler *obs.BurnProfiler

	opts                                  Options
	log                                   *obs.Logger
	reloads, reloadFailures, ckptFailures *obs.Counter
	lastCkptUnix                          *obs.Gauge

	// genMu guards gen, the serving generation when no lifecycle is
	// attached, and saved, the generation a restart would serve: the one
	// last written beside the checkpoint, or the one New served.
	genMu      sync.Mutex
	gen, saved *bundle.Bundle
}

// New assembles the stack around opts.Bundle; listeners are
// bound but nothing runs until Start. A checkpoint that cannot be restored
// is quarantined and the monitor starts cold: never a refusal to serve.
func New(opts Options) (*Stack, error) {
	reg := obs.NewRegistry()
	s := &Stack{
		Registry: reg,
		Spans:    obs.NewSpanRing(opts.SpanBuffer),
		SLOs:     obs.NewSLOSet(),
		Health:   obs.NewHealth(),
		opts:     opts,
		log:      opts.Log,
		reloads:  reg.Counter("monitor_bundle_reloads_total", "Successful SIGHUP bundle hot reloads."),
		reloadFailures: reg.Counter("monitor_bundle_reload_failures_total",
			"Rejected bundle hot reloads (load or validation failure)."),
		ckptFailures: reg.Counter("monitor_checkpoint_failures_total", "Checkpoint writes that failed."),
		lastCkptUnix: reg.Gauge("monitor_checkpoint_last_unix",
			"Unix time of the last successful checkpoint write (0 = never)."),
	}
	n := 1
	if opts.SpanSample <= 0 {
		n = 0
	}
	s.Tracer = obs.NewTracer(s.Spans, n, opts.SpanSample)
	s.Tracer.Export(reg)
	s.SLOs.Export(reg)
	slo := func(name, desc string) *obs.SLO {
		return s.SLOs.Add(obs.SLOConfig{Name: name, Description: desc, Target: sloTarget})
	}
	s.SLOLatency = slo("accept_verdict_latency", "Scored messages reaching a verdict within the latency bound.")
	s.SLODrops = slo("shard_drop_ratio", "Accepted messages admitted to a shard queue (not dropped on overflow).")
	s.SLOAvail = slo("warning_availability",
		"Degradation-controller ticks during which warnings could still be emitted (scoring not shed).")
	// Hot-path warning lines (one per warning signature, keyed by vPE) are
	// token-bucket limited so a flapping host cannot flood the log.
	s.log.SetRateLimit(1, 5, reg.Counter("log_suppressed_total",
		"Hot-path warning log lines suppressed by the per-key rate limiter."))

	mcfg := ingest.DefaultMonitorConfig()
	b := stamp(opts.Bundle)
	if g := s.savedGeneration(b.Lineage); g != nil {
		// A generation replaces detectors, never the threshold: the one
		// this run was given (-threshold or the bundle's recommendation)
		// applies.
		g.Threshold = b.Threshold
		b = g
	}
	mcfg.Threshold = b.Threshold
	mcfg.ClusterOf = b.ClusterOf
	mcfg.Metrics, mcfg.Tracer = reg, s.Tracer
	mcfg.LatencySLO, mcfg.LatencyBound = s.SLOLatency, opts.LatencyBound
	mcfg.Watchdog, mcfg.Faults = opts.Watchdog, opts.Faults
	if mcfg.Shards = opts.Shards; mcfg.Shards <= 0 {
		mcfg.Shards = runtime.GOMAXPROCS(0)
	}
	// The lifecycle manager is built before the monitor because the monitor
	// config needs its Observe hook; the monitor is attached just after.
	if opts.Lifecycle != nil {
		lcfg := *opts.Lifecycle
		lcfg.Metrics, lcfg.Tracer, lcfg.Faults = reg, s.Tracer, opts.Faults
		s.Lifecycle = lifecycle.New(lcfg, b)
		mcfg.OnScored = s.Lifecycle.Observe
	}
	if _, serr := os.Stat(opts.Checkpoint); opts.Checkpoint != "" && serr == nil {
		s.Monitor = s.restore(mcfg, b.DetectorFor)
	}
	if s.Monitor == nil {
		s.Monitor = ingest.NewMonitorWithResolver(mcfg, b.Tree, b.DetectorFor, opts.OnWarning)
	}
	s.Degrader = resilience.NewDegrader(func(from, to resilience.Mode, reason string) {
		s.SetDegrade(to, reason)
		s.log.Warn("degradation mode change", "from", from.String(), "to", to.String(), "reason", reason)
	})
	if s.Lifecycle != nil {
		s.Lifecycle.Attach(s.Monitor)
		if lerr := s.Lifecycle.LoadSpool(opts.Spool); lerr != nil {
			s.log.Warn("spool unusable, starting cold", "path", opts.Spool, "err", lerr)
		}
	}
	s.gen = b
	s.saved = s.Serving()

	// The listeners route each parsed message straight to its host's shard
	// queue. Trace IDs are minted at frame accept so spans cover decode and
	// queue wait; every queue admission/refusal feeds shard_drop_ratio.
	scfg := ingest.DefaultServerConfig()
	scfg.UDPAddr, scfg.TCPAddr, scfg.Year = opts.UDPAddr, opts.TCPAddr, opts.Year
	scfg.Metrics, scfg.Sharded, scfg.Tracer, scfg.DropSLO = reg, s.Monitor, s.Tracer, s.SLODrops
	var err error
	if s.Server, err = ingest.NewServer(scfg, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// stamp records b's lineage, the whole bundle's fingerprint, the first
// time a stack serves it: from then on the tree grows and the detectors
// may be promoted as the stack serves. A generation saved with a
// tree-only lineage, as older builds stamped it, matches no bundle.
func stamp(b *bundle.Bundle) *bundle.Bundle {
	if b.Lineage == 0 {
		b.Lineage = b.Fingerprint()
	}
	return b
}

// savedGeneration returns the generation a previous run saved at
// Checkpoint+".model" when it descends from the bundle of this lineage,
// else nil: no file, a file of another lineage (a redeploy: a stale
// generation must not outlive it), or a file that does not load. Either
// kind of file is quarantined like an unusable checkpoint.
func (s *Stack) savedGeneration(lineage uint64) *bundle.Bundle {
	if s.opts.Checkpoint == "" {
		return nil
	}
	path := s.opts.Checkpoint + ".model"
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	g, err := bundle.Load(f)
	if err == nil && g.Lineage != lineage {
		err = fmt.Errorf("descends from bundle %016x, serving %016x", g.Lineage, lineage)
	}
	if err != nil {
		if qpath, qerr := resilience.Quarantine(path); qerr != nil {
			s.log.Warn("saved generation not served", "path", path, "err", err, "quarantine_err", qerr)
		} else {
			s.log.Warn("saved generation not served", "path", path, "err", err, "quarantined", qpath)
		}
		return nil
	}
	s.ModelFile = path
	s.log.Info("serving the generation saved beside the checkpoint", "path", path,
		"detectors", len(g.Detectors), "threshold", g.Threshold)
	return g
}

// Serving returns the serving generation: the lifecycle's when one is
// attached, else the bundle New or the last Reload installed.
func (s *Stack) Serving() *bundle.Bundle {
	if s.Lifecycle != nil {
		return s.Lifecycle.Serving()
	}
	s.genMu.Lock()
	defer s.genMu.Unlock()
	return s.gen
}

// restore resumes from the checkpoint file, or moves an unusable one aside
// (so the next save does not overwrite the evidence) and returns nil.
func (s *Stack) restore(mcfg ingest.MonitorConfig, resolve func(string) *detect.LSTMDetector) *ingest.Monitor {
	path := s.opts.Checkpoint
	mon, rerr := ingest.RestoreMonitorFile(path, mcfg, resolve, s.opts.OnWarning)
	if rerr != nil {
		if qpath, qerr := resilience.Quarantine(path); qerr != nil {
			s.log.Warn("checkpoint unusable, starting cold", "path", path, "err", rerr, "quarantine_err", qerr)
		} else {
			s.log.Warn("checkpoint unusable, starting cold", "path", path, "err", rerr, "quarantined", qpath)
		}
		return nil
	}
	s.RestoredAt = time.Now()
	st := mon.Stats()
	s.log.Info("restored checkpoint", "path", path,
		"hosts", st.ActiveHosts, "messages", st.Messages, "warnings", st.Warnings)
	return mon
}

// Start launches the lifecycle timer, the shard workers and the
// listeners; cancelling ctx closes the listeners.
func (s *Stack) Start(ctx context.Context) {
	if s.Lifecycle != nil {
		s.Lifecycle.Start()
	}
	s.Monitor.Start()
	s.Server.Start(ctx)
}

// Close stops the listeners, drains the shard queues and stops the
// lifecycle timer; a Checkpoint after it snapshots the drained state.
func (s *Stack) Close() {
	s.Server.Close()
	s.Monitor.Stop()
	if s.Lifecycle != nil {
		s.Lifecycle.Stop()
	}
}

// Checkpoint writes Options.Checkpoint with retries and counts the outcome
// ("" is a no-op). When the serving generation is not the one a restart
// would serve (a promotion, rollback or reload happened since), it is
// first written to Checkpoint+".model", stamped with its lineage, so the
// weights the checkpointed streams ran under are on disk before the
// streams are; New serves that file when the bundle it is given is of the
// same lineage. The spool rides along so the artifacts agree on tree
// lineage; a spool failure is logged and never fails the checkpoint.
func (s *Stack) Checkpoint(reason string) error {
	path := s.opts.Checkpoint
	if path == "" {
		return nil
	}
	err := s.saveGeneration()
	if err == nil {
		err = resilience.Retry(nil, ioRetry, func() error { return s.Monitor.CheckpointFile(path) })
	}
	if err != nil {
		s.ckptFailures.Inc()
		s.log.Error("checkpoint failed", "path", path, "reason", reason, "err", err)
		return err
	}
	s.lastCkptUnix.SetTime(time.Now())
	s.log.Debug("checkpoint written", "path", path, "reason", reason)
	if spool := s.opts.Spool; s.Lifecycle != nil && spool != "" {
		if serr := resilience.Retry(nil, ioRetry, func() error { return s.Lifecycle.SaveSpool(spool) }); serr != nil {
			s.log.Error("spool save failed", "path", spool, "err", serr)
		} else {
			s.log.Debug("spool written", "path", spool, "reason", reason)
		}
	}
	return nil
}

// Reload swaps a validated bundle in: the monitor first, then the
// lifecycle is realigned to the new template lineage (spools rebuilt,
// drift references reset, pending and previous generations dropped). The
// stack takes b over as New does Options.Bundle.
func (s *Stack) Reload(b *bundle.Bundle) {
	s.Monitor.SwapModel(stamp(b))
	if s.Lifecycle != nil {
		s.Lifecycle.SetServing(b)
	}
	s.genMu.Lock()
	s.gen = b
	s.genMu.Unlock()
	s.reloads.Inc()
	s.Health.SetCondition("bundle", true, "")
}

// saveGeneration writes the serving generation to Checkpoint+".model"
// unless it is the one a restart would already serve. Its tree is a copy
// of the monitor's live tree, taken under the tree lock; the file is
// written outside it. A promotion landing between this write and the
// checkpoint's leaves streams cut under weights the file does not hold:
// the restart refuses them and starts cold on the saved generation, and
// the next checkpoint saves the new one.
func (s *Stack) saveGeneration() error {
	g := s.Serving()
	s.genMu.Lock()
	saved := s.saved
	s.genMu.Unlock()
	if g == saved {
		return nil
	}
	snap := g.Clone()
	var err error
	if snap.Tree, err = s.Monitor.TreeCopy(); err != nil {
		return fmt.Errorf("serve: copying the serving tree: %w", err)
	}
	path := s.opts.Checkpoint + ".model"
	if err := resilience.Retry(nil, ioRetry, func() error { return snap.SaveFile(path) }); err != nil {
		return err
	}
	s.genMu.Lock()
	s.saved = g
	s.genMu.Unlock()
	s.log.Info("serving generation saved", "path", path, "detectors", len(g.Detectors))
	return nil
}

// RejectReload records a bundle that failed to load or validate: counted,
// and the "bundle" readiness condition is off until a Reload succeeds.
func (s *Stack) RejectReload(reason string) {
	s.reloadFailures.Inc()
	s.Health.SetCondition("bundle", false, reason)
}

// SetDegrade fans a degradation mode out to the monitor (shed-scoring
// short-circuits scoring), the lifecycle (shed-learning stops spooling and
// timer cycles) and the "degradation" health condition: critical at
// shed-scoring, where warnings stop and /readyz must go 503; informational
// at shed-learning, which load balancers should not route around.
func (s *Stack) SetDegrade(mode resilience.Mode, reason string) {
	s.Monitor.SetDegrade(mode)
	if s.Lifecycle != nil {
		s.Lifecycle.SetShedLearning(mode >= resilience.ModeShedLearning, reason)
	}
	switch mode {
	case resilience.ModeShedScoring:
		s.Health.SetCondition("degradation", false, "scoring shed: "+reason)
	case resilience.ModeShedLearning:
		s.Health.SetDegraded("degradation", true, "learning shed: "+reason)
	default:
		s.Health.SetDegraded("degradation", false, "")
	}
}

// SampleDegrade feeds the degradation controller one observation (queue
// pressure plus cumulative fault counters, which it reads as deltas) and
// refreshes the adaptation-breaker condition. Call it on a fixed cadence.
func (s *Stack) SampleDegrade() {
	// Warning availability is sampled on the controller cadence: a tick
	// spent in shed-scoring is a tick the monitor could not have warned.
	s.SLOAvail.Record(s.Monitor.DegradeMode() != resilience.ModeShedScoring)
	burning := s.SLOs.FastBurning()
	if len(burning) > 0 {
		s.Profiler.MaybeCapture(strings.Join(burning, ","))
	}
	s.Degrader.Eval(resilience.Sample{
		QueueFrac:     s.Monitor.QueueFrac(),
		ScoringFaults: s.Monitor.Stats().ShardPanics,
		IOFaults:      s.ckptFailures.Value(),
		SLOFastBurn:   len(burning) > 0,
	})
	if s.Lifecycle != nil {
		bst := s.Lifecycle.BreakerStatus()
		s.Health.SetDegraded("adaptation", bst.StateName != "closed", "adaptation breaker "+bst.StateName)
	}
}

// AdminMux assembles the admin surface over the stack's own registry,
// rings, SLO set and health, with status as the /statusz document; plus
// /models, /models/{adapt,promote,rollback} with the lifecycle and
// /chaos/, /chaos/{arm,disarm} with a fault registry.
func (s *Stack) AdminMux(status func() any) *http.ServeMux {
	mux := obs.NewAdminMux(obs.AdminConfig{Registry: s.Registry, Spans: s.Spans,
		SLO: s.SLOs, Health: s.Health, Status: status})
	if s.Lifecycle != nil {
		h := s.Lifecycle.Handler()
		mux.Handle("/models", h)
		mux.Handle("/models/", h)
	}
	if s.opts.Faults != nil {
		mux.Handle("/chaos/", http.StripPrefix("/chaos", s.opts.Faults.Handler()))
	}
	return mux
}
