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
	// tree a cold start grows. When the checkpoint carries a generation
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
	// Checkpoint is the restart file, restored by New and written by
	// Checkpoint ("" disables both).
	Checkpoint string
	Log        *obs.Logger          // operational lines; nil drops them
	OnWarning  func(detect.Warning) // fires once per warning signature
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

// ioRetry is the retry policy for checkpoint writes: transient faults are
// absorbed here, and the atomic write underneath keeps the previous file
// through every failed attempt.
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
	Server     *ingest.Server
	Lifecycle  *lifecycle.Manager // nil unless Options.Lifecycle was set
	// Degrader steps the stack between normal / shed-learning /
	// shed-scoring from the samples SampleDegrade feeds it.
	Degrader *resilience.Degrader
	// Profiler, when the caller sets it, captures a CPU profile when an
	// SLO fast window starts burning.
	Profiler *obs.BurnProfiler

	opts                                               Options
	log                                                *obs.Logger
	reloads, reloadFailures, ckptFailures, quarantines *obs.Counter
	lastCkptUnix                                       *obs.Gauge
	started                                            time.Time // New's start: /statusz uptime

	// mu guards what /statusz reports of the last Reload and Checkpoint.
	mu                sync.Mutex
	loadedAt, savedAt time.Time
	saveErr           string
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
		quarantines: reg.Counter("monitor_checkpoint_quarantines_total",
			"Checkpoints set aside at startup (undecodable, another lineage, or streams of other weights); a cold start was taken."),
		lastCkptUnix: reg.Gauge("monitor_checkpoint_last_unix",
			"Unix time of the last successful checkpoint write (0 = never)."),
		started: time.Now(),
	}
	s.loadedAt = s.started
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
	mcfg.Threshold = b.Threshold
	mcfg.ClusterOf = b.ClusterOf
	mcfg.Metrics, mcfg.Tracer = reg, s.Tracer
	mcfg.LatencySLO, mcfg.LatencyBound = s.SLOLatency, opts.LatencyBound
	mcfg.Watchdog, mcfg.Faults = opts.Watchdog, opts.Faults
	if mcfg.Shards = opts.Shards; mcfg.Shards <= 0 {
		mcfg.Shards = runtime.GOMAXPROCS(0)
	}
	// The lifecycle manager is built before the monitor because the monitor
	// config needs its Observe hook; the monitor is attached just after,
	// and its generation, of b's lineage, becomes the lifecycle's.
	if opts.Lifecycle != nil {
		lcfg := *opts.Lifecycle
		lcfg.Metrics, lcfg.Tracer, lcfg.Faults = reg, s.Tracer, opts.Faults
		s.Lifecycle = lifecycle.New(lcfg, b)
		mcfg.OnScored = s.Lifecycle.Observe
	}
	if _, serr := os.Stat(opts.Checkpoint); opts.Checkpoint != "" && serr == nil {
		s.Monitor = s.restore(mcfg, b)
	}
	if s.Monitor == nil {
		s.Monitor = ingest.NewMonitorWithBundle(mcfg, b, opts.OnWarning)
	}
	s.Degrader = resilience.NewDegrader(func(from, to resilience.Mode, reason string) {
		s.SetDegrade(to, reason)
		s.log.Warn("degradation mode change", "from", from.String(), "to", to.String(), "reason", reason)
	})
	if s.Lifecycle != nil {
		s.Lifecycle.Attach(s.Monitor)
	}

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
// may be promoted as the stack serves.
func stamp(b *bundle.Bundle) *bundle.Bundle {
	if b.Lineage == 0 {
		b.Lineage = b.Fingerprint()
	}
	return b
}

// Serving returns the serving generation, the monitor's: the lifecycle
// installs each of its generations there.
func (s *Stack) Serving() *bundle.Bundle {
	return s.Monitor.Generation()
}

// restore resumes the monitor, and the spool when the lifecycle is on,
// from the checkpoint file. Anything that keeps the file from restoring
// whole moves it aside once (so the next save does not overwrite the
// evidence), is counted, and returns nil: New starts cold.
func (s *Stack) restore(mcfg ingest.MonitorConfig, b *bundle.Bundle) *ingest.Monitor {
	path := s.opts.Checkpoint
	mon, err := s.resume(path, mcfg, b)
	if err != nil {
		s.quarantines.Inc()
		if qpath, qerr := resilience.Quarantine(path); qerr != nil {
			s.log.Warn("checkpoint unusable, starting cold", "path", path, "err", err, "quarantine_err", qerr)
		} else {
			s.log.Warn("checkpoint unusable, starting cold", "path", path, "err", err, "quarantined", qpath)
		}
		return nil
	}
	s.RestoredAt = time.Now()
	st := mon.Stats()
	s.log.Info("restored checkpoint", "path", path,
		"hosts", st.ActiveHosts, "messages", st.Messages, "warnings", st.Warnings)
	return mon
}

// resume restores what the checkpoint at path holds. Its generation
// serves when it descends from b (a redeployed bundle of another lineage
// refuses it: a stale generation never outlives the deployment that
// replaced it), at b's threshold: a generation replaces detectors, never
// the threshold; its Source is then path. A checkpoint that carries none
// serves b's detectors over its tree, and its streams restore only if
// they were cut under those.
func (s *Stack) resume(path string, mcfg ingest.MonitorConfig, b *bundle.Bundle) (*ingest.Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	saved, err := ingest.LoadCheckpoint(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	gen := saved.Generation
	switch {
	case gen == nil:
		gen = b.Clone()
		gen.Tree = saved.Tree
	case gen.Lineage != b.Lineage:
		return nil, fmt.Errorf("generation descends from bundle %016x, serving %016x", gen.Lineage, b.Lineage)
	case gen.Threshold != b.Threshold:
		gen = gen.Clone()
		gen.Threshold = b.Threshold
	}
	var spool *lifecycle.Spool
	if s.Lifecycle != nil && saved.Spool != nil {
		if spool, err = lifecycle.DecodeSpool(saved.Spool); err != nil {
			return nil, err
		}
	}
	if saved.Generation != nil {
		gen.Source = path
	}
	mcfg.ClusterOf = gen.ClusterOf
	mon, err := saved.Restore(mcfg, gen, s.opts.OnWarning)
	if err != nil {
		return nil, err
	}
	if spool != nil {
		s.Lifecycle.Seed(spool)
	}
	return mon, nil
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

// Checkpoint writes Options.Checkpoint, the one restart file, with
// retries, and counts the outcome and records it for Status ("" is a
// no-op). The file holds one cut: the monitor's state, the generation it
// served and, with the lifecycle on, the spool and drift references
// (lifecycle.Manager.Cut). Every retry writes the same cut; when all
// fail, the previous file survives whole.
func (s *Stack) Checkpoint(reason string) error {
	path := s.opts.Checkpoint
	if path == "" {
		return nil
	}
	cut := s.Monitor.Cut
	if s.Lifecycle != nil {
		cut = s.Lifecycle.Cut
	}
	c, err := cut()
	if err == nil {
		err = resilience.Retry(nil, ioRetry, func() error { return c.WriteFile(path) })
	}
	now := time.Now()
	s.mu.Lock()
	if err != nil {
		s.saveErr = err.Error()
	} else {
		s.savedAt, s.saveErr = now, ""
	}
	s.mu.Unlock()
	if err != nil {
		s.ckptFailures.Inc()
		s.log.Error("checkpoint failed", "path", path, "reason", reason, "err", err)
		return err
	}
	s.lastCkptUnix.SetTime(now)
	s.log.Debug("checkpoint written", "path", path, "reason", reason)
	return nil
}

// Reload swaps a validated bundle in: through the lifecycle when one is
// attached, which realigns itself to the new template lineage (spools
// rebuilt, drift references reset, pending and previous generations
// dropped), else straight into the monitor. The stack takes b over as New
// does Options.Bundle.
func (s *Stack) Reload(b *bundle.Bundle) {
	stamp(b)
	if s.Lifecycle != nil {
		s.Lifecycle.SetServing(b)
	} else {
		s.Monitor.SwapModel(b)
	}
	s.reloads.Inc()
	s.Health.SetCondition("bundle", true, "")
	s.mu.Lock()
	s.loadedAt = time.Now()
	s.mu.Unlock()
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

// Status is the /statusz document. Stack.Status builds it from the live
// components on every request, so no part of it is a copy that can go
// stale.
type Status struct {
	Now       time.Time `json:"now"`
	UptimeSec float64   `json:"uptime_sec"`
	// Build identifies the running binary (module version, VCS revision,
	// go version) so a fleet operator can tell instances apart.
	Build  obs.BuildInfo `json:"build"`
	Ready  bool          `json:"ready"`
	Reason string        `json:"reason,omitempty"`
	// Bundle is the serving generation: the file it came from ("" and
	// Bootstrap when it was trained in process), when it was installed,
	// and its live template count and threshold.
	Bundle struct {
		Path          string    `json:"path,omitempty"`
		FormatVersion uint32    `json:"format_version,omitempty"`
		LoadedAt      time.Time `json:"loaded_at,omitempty"`
		Detectors     int       `json:"detectors"`
		Templates     int       `json:"templates"`
		Threshold     float64   `json:"threshold"`
		Bootstrap     bool      `json:"bootstrap,omitempty"`
	} `json:"bundle"`
	Checkpoint struct {
		Path       string    `json:"path,omitempty"`
		LastSave   time.Time `json:"last_saved_at,omitempty"`
		LastError  string    `json:"last_error,omitempty"`
		RestoredAt time.Time `json:"restored_at,omitempty"`
	} `json:"checkpoint"`
	Monitor   ingest.MonitorStats `json:"monitor"`
	Ingest    ingest.Stats        `json:"ingest"`
	Spans     uint64              `json:"spans_total"`
	SLOs      []obs.SLOStatus     `json:"slos,omitempty"`
	Lifecycle *lifecycle.Status   `json:"lifecycle,omitempty"`
	// Resilience is the degrade mode the monitor enforces (with the
	// Degrader's reason while the Degrader is off normal), the
	// supervision counters, the named health conditions, and whether
	// fault injection is armed into this process.
	Resilience struct {
		DegradeMode    string          `json:"degrade_mode"`
		DegradeReason  string          `json:"degrade_reason,omitempty"`
		WorkerRestarts uint64          `json:"worker_restarts"`
		WatchdogKicks  uint64          `json:"watchdog_kicks"`
		ShardPanics    uint64          `json:"shard_panics"`
		Conditions     []obs.Condition `json:"conditions"`
		ChaosEnabled   bool            `json:"chaos_enabled,omitempty"`
	} `json:"resilience"`
}

// Status builds the /statusz document.
func (s *Stack) Status() Status {
	st := Status{Now: time.Now(), Build: obs.GetBuildInfo(), Monitor: s.Monitor.Stats(),
		Ingest: s.Server.Stats(), Spans: s.Spans.Total(), SLOs: s.SLOs.Statuses()}
	st.UptimeSec = st.Now.Sub(s.started).Seconds()
	st.Ready, st.Reason = s.Health.Ready()

	gen := s.Serving()
	b := &st.Bundle
	b.Path, b.Bootstrap = gen.Source, gen.Source == ""
	if gen.Source != "" {
		b.FormatVersion = bundle.Version
	}
	b.Detectors, b.Templates, b.Threshold = len(gen.Detectors), s.Monitor.Templates(), s.Monitor.Threshold()

	c := &st.Checkpoint
	c.Path, c.RestoredAt = s.opts.Checkpoint, s.RestoredAt
	s.mu.Lock()
	b.LoadedAt, c.LastSave, c.LastError = s.loadedAt, s.savedAt, s.saveErr
	s.mu.Unlock()

	if s.Lifecycle != nil {
		lst := s.Lifecycle.Status()
		st.Lifecycle = &lst
	}
	r := &st.Resilience
	r.DegradeMode = st.Monitor.DegradeMode
	if s.Degrader.Mode() != resilience.ModeNormal {
		r.DegradeReason = s.Degrader.Reason()
	}
	r.WorkerRestarts, r.WatchdogKicks, r.ShardPanics = st.Monitor.WorkerRestarts, st.Monitor.WatchdogKicks, st.Monitor.ShardPanics
	r.Conditions = s.Health.Conditions()
	r.ChaosEnabled = s.opts.Faults != nil
	return st
}

// AdminMux assembles the admin surface over the stack's own registry,
// rings, SLO set and health, with Status as the /statusz document; plus
// /models, /models/{adapt,promote,rollback} with the lifecycle and
// /chaos/, /chaos/{arm,disarm} with a fault registry.
func (s *Stack) AdminMux() *http.ServeMux {
	mux := obs.NewAdminMux(obs.AdminConfig{Registry: s.Registry, Spans: s.Spans,
		SLO: s.SLOs, Health: s.Health, Status: func() any { return s.Status() }})
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
