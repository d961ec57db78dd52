// Command nfvmonitor is the runtime deployment mode of the reproduction:
// it bootstraps the detector on a simulated fleet (standing in for a
// training archive), then listens for live syslog on UDP/TCP and prints a
// warning signature whenever a vPE emits a cluster of anomalous messages
// (§5.1's ≥2-within-a-minute rule).
//
// The monitor is built to run continuously. With -checkpoint it snapshots
// its online state (grown signature tree, per-vPE LSTM streams, warning
// history, counters) atomically on an interval and at shutdown, and resumes
// from the snapshot on the next start — a restart costs no warm-up. With
// -model it serves a trained bundle and hot-reloads it on SIGHUP: a new
// bundle that fails validation is rejected and the serving bundle stays
// active (§4.4's monthly retraining loop, minus the downtime).
//
// With -admin the monitor serves an HTTP observability surface: /metrics
// (Prometheus text; ?format=json for JSON), /statusz (JSON status snapshot
// including the serving bundle and last checkpoint), /traces (recent
// decision traces explaining each anomaly verdict), /healthz + /readyz
// (503 while degraded, e.g. after a rejected hot reload), and the pprof
// suite under /debug/pprof/.
//
// Usage:
//
//	nfvmonitor -udp 127.0.0.1:5514 -tcp 127.0.0.1:5514 -threshold 6 \
//	           -model model.bundle -checkpoint monitor.ckpt -admin :9090
//
// Point any RFC 3164 syslog sender at it, e.g.:
//
//	logger -n 127.0.0.1 -P 5514 --rfc3164 -t rpd "invalid response from peer chassis-control"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"nfvpredict"
	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/sigtree"
)

// options collects the flag values.
type options struct {
	udp, tcp   string
	threshold  float64
	year       int
	seed       int64
	shards     int
	model      string
	ckpt       string
	ckptEvery  time.Duration
	admin      string
	traceBuf   int
	spanBuf    int
	spanSample int
	sloLatency time.Duration
	burnDir    string
	verbose    bool
	watchdog   time.Duration
	chaos      bool

	adapt         bool
	adaptInterval time.Duration
	adaptGate     float64
	adaptSpool    string
}

// registerFlags declares every nfvmonitor flag on fs, bound to o.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.udp, "udp", "127.0.0.1:5514", "UDP listen address (empty disables)")
	fs.StringVar(&o.tcp, "tcp", "", "TCP listen address (empty disables)")
	fs.Float64Var(&o.threshold, "threshold", 6, "anomaly threshold (negative log-likelihood; overridden by a bundle's recommendation)")
	fs.IntVar(&o.year, "year", time.Now().Year(), "year for RFC 3164 timestamps")
	fs.Int64Var(&o.seed, "seed", 1, "bootstrap-simulation seed (when no -model)")
	fs.IntVar(&o.shards, "shards", 0, "scoring shards: hosts are hashed onto shards, each owning its vPEs' LSTM streams and scored by its own worker (0 = GOMAXPROCS)")
	fs.StringVar(&o.model, "model", "", "trained bundle from cmd/nfvtrain (empty: bootstrap on simulation); SIGHUP hot-reloads it")
	fs.StringVar(&o.ckpt, "checkpoint", "", "checkpoint file: online state is saved here periodically and restored at startup (empty disables)")
	fs.DurationVar(&o.ckptEvery, "checkpoint-interval", time.Minute, "how often to write the checkpoint")
	fs.StringVar(&o.admin, "admin", "", "admin HTTP listen address serving /metrics, /statusz, /traces, /healthz, /readyz, /debug/pprof (empty disables)")
	fs.IntVar(&o.traceBuf, "trace-buffer", 256, "decision traces retained for /traces")
	fs.IntVar(&o.spanBuf, "span-buffer", 512, "pipeline spans retained for /spans")
	fs.IntVar(&o.spanSample, "span-sample", 16, "stage-clock sampling: 1 in N accepted messages carries a full span stage breakdown (warnings always get a span); 0 disables sampling — and with it the accept_verdict_latency SLO, which only observes sampled verdicts (/slo marks it inactive)")
	fs.DurationVar(&o.sloLatency, "slo-latency", 250*time.Millisecond, "accept→verdict latency bound for the accept_verdict_latency SLO")
	fs.StringVar(&o.burnDir, "profile-on-burn", "", "directory for CPU profiles captured when an SLO fast window starts burning (empty disables)")
	fs.BoolVar(&o.verbose, "v", false, "verbose (debug-level) logging")
	fs.DurationVar(&o.watchdog, "watchdog", 30*time.Second, "stuck-shard-worker deadline: a worker with queued work and no heartbeat progress for this long is abandoned and replaced (0 disables)")
	fs.BoolVar(&o.chaos, "chaos", false, "enable runtime fault injection: registers the process-wide fault points and mounts the /chaos admin endpoint (drills only — never in production)")
	fs.BoolVar(&o.adapt, "adapt", false, "enable the online model lifecycle: drift detection, background fine-tuning, shadow-gated promotion (adds /models to the admin surface)")
	fs.DurationVar(&o.adaptInterval, "adapt-interval", 10*time.Minute, "lifecycle cycle period (drift check + possible adaptation)")
	fs.Float64Var(&o.adaptGate, "adapt-gate", 0.02, "promotion gate: max false-alarm rate a candidate may show on held-out spooled traffic")
	fs.StringVar(&o.adaptSpool, "adapt-spool", "", "spool file: recent normal windows are persisted here with the checkpoint and restored at startup (empty disables)")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "nfvmonitor:", err)
		os.Exit(1)
	}
}

// app is the assembled runtime: every long-lived component of the monitor
// process plus the mutable status the admin surface reports. It exists (as
// opposed to locals in run) so the admin endpoints and the hot-reload path
// can be driven by tests without a process or signals.
type app struct {
	log     *obs.Logger
	reg     *obs.Registry
	traces  *obs.TraceRing
	health  *obs.Health
	mon     *ingest.Monitor
	srv     *ingest.Server
	life    *lifecycle.Manager
	spool   string
	started time.Time

	// spans/tracer are the pipeline-tracing layer behind /spans; slos is
	// the objective set behind /slo, with the three standing objectives
	// held out as direct handles. profiler captures a CPU profile when a
	// fast window starts burning (-profile-on-burn).
	spans      *obs.SpanRing
	tracer     *obs.Tracer
	slos       *obs.SLOSet
	sloLatency *obs.SLO
	sloDrops   *obs.SLO
	sloAvail   *obs.SLO
	profiler   *obs.BurnProfiler

	// degrader is the degradation controller: it samples queue pressure and
	// fault counters (sampleDegrade, on a timer in run) and steps the stack
	// between normal / shed-learning / shed-scoring. chaos mirrors -chaos.
	degrader *resilience.Degrader
	chaos    bool

	reloads        *obs.Counter
	reloadFailures *obs.Counter
	ckptFailures   *obs.Counter
	lastCkptUnix   *obs.Gauge

	mu     sync.Mutex
	bundle bundleStatus
	ckpt   ckptStatus
}

// bundleStatus describes the serving model for /statusz.
type bundleStatus struct {
	Path          string    `json:"path,omitempty"`
	FormatVersion uint32    `json:"format_version,omitempty"`
	LoadedAt      time.Time `json:"loaded_at,omitempty"`
	Detectors     int       `json:"detectors"`
	Templates     int       `json:"templates"`
	Threshold     float64   `json:"threshold"`
	Bootstrap     bool      `json:"bootstrap,omitempty"`
}

// ckptStatus describes checkpoint activity for /statusz.
type ckptStatus struct {
	Path        string    `json:"path,omitempty"`
	LastSavedAt time.Time `json:"last_saved_at,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	RestoredAt  time.Time `json:"restored_at,omitempty"`
}

// resilienceStatus is the /statusz section describing the runtime
// resilience layer: the active degradation mode and why, supervision
// counters, the full named health-condition set, and whether chaos fault
// injection is armed into this process.
type resilienceStatus struct {
	DegradeMode    string          `json:"degrade_mode"`
	DegradeReason  string          `json:"degrade_reason,omitempty"`
	WorkerRestarts uint64          `json:"worker_restarts"`
	WatchdogKicks  uint64          `json:"watchdog_kicks"`
	ShardPanics    uint64          `json:"shard_panics"`
	Conditions     []obs.Condition `json:"conditions"`
	ChaosEnabled   bool            `json:"chaos_enabled,omitempty"`
}

// statusDoc is the /statusz document.
type statusDoc struct {
	Now       time.Time `json:"now"`
	UptimeSec float64   `json:"uptime_sec"`
	// Build identifies the running binary (module version, VCS revision,
	// go version) so a fleet operator can tell instances apart.
	Build      obs.BuildInfo       `json:"build"`
	Ready      bool                `json:"ready"`
	Reason     string              `json:"reason,omitempty"`
	Bundle     bundleStatus        `json:"bundle"`
	Checkpoint ckptStatus          `json:"checkpoint"`
	Monitor    ingest.MonitorStats `json:"monitor"`
	Ingest     ingest.Stats        `json:"ingest"`
	Traces     uint64              `json:"traces_total"`
	Spans      uint64              `json:"spans_total"`
	SLOs       []obs.SLOStatus     `json:"slos,omitempty"`
	Lifecycle  *lifecycle.Status   `json:"lifecycle,omitempty"`
	Resilience resilienceStatus    `json:"resilience"`
}

// newApp builds the observability plumbing shared by every code path.
// spanSample is the 1-in-N stage-clock sampling rate (0 samples nothing;
// warnings still get spans).
func newApp(log *obs.Logger, traceBuf, spanBuf, spanSample int) *app {
	reg := obs.NewRegistry()
	a := &app{
		log:     log,
		reg:     reg,
		traces:  obs.NewTraceRing(traceBuf),
		spans:   obs.NewSpanRing(spanBuf),
		slos:    obs.NewSLOSet(),
		health:  obs.NewHealth(),
		started: time.Now(),
		reloads: reg.Counter("monitor_bundle_reloads_total",
			"Successful SIGHUP bundle hot reloads."),
		reloadFailures: reg.Counter("monitor_bundle_reload_failures_total",
			"Rejected bundle hot reloads (load or validation failure)."),
		ckptFailures: reg.Counter("monitor_checkpoint_failures_total",
			"Checkpoint writes that failed."),
		lastCkptUnix: reg.Gauge("monitor_checkpoint_last_unix",
			"Unix time of the last successful checkpoint write (0 = never)."),
	}
	n := 1
	if spanSample <= 0 {
		n = 0
	}
	a.tracer = obs.NewTracer(a.spans, n, spanSample)
	a.tracer.Export(reg)
	a.slos.Export(reg)
	a.sloLatency = a.slos.Add(obs.SLOConfig{
		Name:        "accept_verdict_latency",
		Description: "Scored messages reaching a verdict within the latency bound.",
		Target:      0.99,
	})
	a.sloDrops = a.slos.Add(obs.SLOConfig{
		Name:        "shard_drop_ratio",
		Description: "Accepted messages admitted to a shard queue (not dropped on overflow).",
		Target:      0.99,
	})
	a.sloAvail = a.slos.Add(obs.SLOConfig{
		Name:        "warning_availability",
		Description: "Degradation-controller ticks during which warnings could still be emitted (scoring not shed).",
		Target:      0.99,
	})
	// Hot-path warning lines (one per warning signature, keyed by vPE) are
	// token-bucket limited so a flapping host cannot flood the log.
	log.SetRateLimit(1, 5, reg.Counter("log_suppressed_total",
		"Hot-path warning log lines suppressed by the per-key rate limiter."))
	return a
}

// status builds the /statusz document.
func (a *app) status() any {
	a.mu.Lock()
	b, c := a.bundle, a.ckpt
	a.mu.Unlock()
	ready, reason := a.health.Ready()
	doc := statusDoc{
		Now:        time.Now(),
		UptimeSec:  time.Since(a.started).Seconds(),
		Build:      obs.GetBuildInfo(),
		Ready:      ready,
		Reason:     reason,
		Bundle:     b,
		Checkpoint: c,
		Traces:     a.traces.Total(),
		Spans:      a.spans.Total(),
		SLOs:       a.slos.Statuses(),
	}
	if a.mon != nil {
		doc.Monitor = a.mon.Stats()
		doc.Bundle.Threshold = a.mon.Threshold()
	}
	if a.srv != nil {
		doc.Ingest = a.srv.Stats()
	}
	if a.life != nil {
		st := a.life.Status()
		doc.Lifecycle = &st
	}
	doc.Resilience = resilienceStatus{
		DegradeMode:    doc.Monitor.DegradeMode,
		WorkerRestarts: doc.Monitor.WorkerRestarts,
		WatchdogKicks:  doc.Monitor.WatchdogKicks,
		ShardPanics:    doc.Monitor.ShardPanics,
		Conditions:     a.health.Conditions(),
		ChaosEnabled:   a.chaos,
	}
	if a.degrader != nil {
		rm := a.degrader.Mode()
		doc.Resilience.DegradeMode = rm.String()
		if rm != resilience.ModeNormal {
			doc.Resilience.DegradeReason = a.degrader.Reason()
		}
	}
	return doc
}

// adminMux assembles the admin surface. With the lifecycle enabled it also
// mounts the model-management endpoints: GET /models, POST /models/adapt,
// POST /models/promote, POST /models/rollback. With -chaos it mounts the
// fault-point registry: GET /chaos/ (point listing), POST /chaos/arm,
// POST /chaos/disarm.
func (a *app) adminMux() *http.ServeMux {
	mux := obs.NewAdminMux(obs.AdminConfig{
		Registry: a.reg,
		Traces:   a.traces,
		Spans:    a.spans,
		SLO:      a.slos,
		Health:   a.health,
		Status:   a.status,
	})
	if a.life != nil {
		h := a.life.Handler()
		mux.Handle("/models", h)
		mux.Handle("/models/", h)
	}
	if a.chaos {
		mux.Handle("/chaos/", http.StripPrefix("/chaos", faultinject.Default.Handler()))
	}
	return mux
}

// initDegrader builds the degradation controller. Mode transitions fan out
// to every consumer: the monitor (shed-scoring short-circuits the scoring
// hot path), the lifecycle (shed-learning stops spooling and timer cycles),
// and the health conditions (/readyz goes 503 only at shed-scoring — the
// point where warnings can no longer be emitted; shed-learning is an
// informational degradation, the monitor still warns).
func (a *app) initDegrader() {
	a.degrader = resilience.NewDegrader(resilience.DegraderConfig{}, func(from, to resilience.Mode, reason string) {
		a.mon.SetDegrade(to)
		if a.life != nil {
			a.life.SetShedLearning(to >= resilience.ModeShedLearning, reason)
		}
		// One write per transition — the same named condition flips between
		// critical (shed-scoring: warnings stop, readiness must go red) and
		// informational (shed-learning: still warning, operators should see
		// it but load balancers should not route around it).
		switch to {
		case resilience.ModeShedScoring:
			a.health.SetCondition("degradation", false, "scoring shed: "+reason)
		case resilience.ModeShedLearning:
			a.health.SetDegraded("degradation", true, "learning shed: "+reason)
		default:
			a.health.SetDegraded("degradation", false, "")
		}
		a.log.Warn("degradation mode change", "from", from.String(), "to", to.String(), "reason", reason)
	})
}

// sampleDegrade feeds the degradation controller one observation (queue
// pressure plus cumulative fault counters; the controller works in deltas)
// and refreshes the adaptation-breaker health condition. Called on a timer
// from run and directly by tests.
func (a *app) sampleDegrade() {
	if a.degrader == nil || a.mon == nil {
		return
	}
	st := a.mon.Stats()
	// Warning availability is sampled here, on the controller cadence: a tick
	// spent in shed-scoring is a tick the monitor could not have warned.
	a.sloAvail.Record(a.mon.DegradeMode() != resilience.ModeShedScoring)
	burning := a.slos.FastBurning()
	if len(burning) > 0 {
		a.profiler.MaybeCapture(strings.Join(burning, ","))
	}
	a.degrader.Eval(resilience.Sample{
		QueueFrac:     a.mon.QueueFrac(),
		ScoringFaults: st.ShardPanics,
		IOFaults:      a.ckptFailures.Value(),
		SLOFastBurn:   len(burning) > 0,
	})
	if a.life != nil {
		bst := a.life.BreakerStatus()
		a.health.SetDegraded("adaptation", bst.StateName != "closed",
			"adaptation breaker "+bst.StateName)
	}
}

// setBundle records the serving model in /statusz.
func (a *app) setBundle(b bundleStatus) {
	a.mu.Lock()
	a.bundle = b
	a.mu.Unlock()
}

// reload re-reads the bundle file and swaps it in. Transient load failures
// are retried; a bundle that still fails to load or validate is rejected:
// the serving model stays active, the failure is counted, and the "bundle"
// readiness condition flips off (with the error as reason) until a reload
// succeeds — exactly the state an operator should see on /readyz while a
// bad bundle sits on disk.
func (a *app) reload(model string) error {
	var b *bundle.Bundle
	err := resilience.Retry(nil, resilience.RetryPolicy{Attempts: 3, Base: 50 * time.Millisecond}, func() error {
		var lerr error
		b, lerr = bundle.LoadFile(model)
		return lerr
	})
	if err != nil {
		a.reloadFailures.Inc()
		a.health.SetCondition("bundle", false, fmt.Sprintf("hot-reload of %s rejected: %v", model, err))
		a.log.Error("hot-reload rejected, keeping serving bundle", "model", model, "err", err)
		return err
	}
	a.mon.SwapModel(b.Tree, b.DetectorFor, b.Threshold)
	a.mon.SetClusterOf(func(host string) int {
		if ci, ok := b.Assign[host]; ok {
			return ci
		}
		return 0
	})
	if a.life != nil {
		// The monitor is already swapped; realign the lifecycle (new
		// template lineage: spools rebuilt, drift references reset,
		// pending/previous generations dropped).
		a.life.SetServing(lifecycle.ModelSetFromBundle(b))
	}
	a.reloads.Inc()
	a.health.SetCondition("bundle", true, "")
	a.setBundle(bundleStatus{
		Path:          model,
		FormatVersion: bundle.Version,
		LoadedAt:      time.Now(),
		Detectors:     len(b.Detectors),
		Templates:     b.Tree.Len(),
		Threshold:     b.Threshold,
	})
	a.log.Info("hot-reloaded bundle", "model", model,
		"detectors", len(b.Detectors), "templates", b.Tree.Len(), "threshold", b.Threshold)
	return nil
}

// ioRetry is the retry policy for durable writes (checkpoint and spool):
// transient conditions — disk briefly full, an injected fault — are
// absorbed here, and the atomic-write discipline underneath guarantees the
// previous artifact survives every failed attempt.
var ioRetry = resilience.RetryPolicy{Attempts: 3, Base: 50 * time.Millisecond, Max: 2 * time.Second}

// saveCheckpoint writes the checkpoint file with retries, recording the
// outcome for /statusz and /metrics.
func (a *app) saveCheckpoint(path, reason string) {
	if path == "" {
		return
	}
	err := resilience.Retry(nil, ioRetry, func() error {
		return a.mon.CheckpointFile(path)
	})
	now := time.Now()
	a.mu.Lock()
	a.ckpt.Path = path
	if err != nil {
		a.ckpt.LastError = err.Error()
	} else {
		a.ckpt.LastSavedAt = now
		a.ckpt.LastError = ""
	}
	a.mu.Unlock()
	if err != nil {
		a.ckptFailures.Inc()
		a.log.Error("checkpoint failed", "path", path, "reason", reason, "err", err)
		return
	}
	a.lastCkptUnix.SetTime(now)
	a.log.Debug("checkpoint written", "path", path, "reason", reason)
	// The spool rides along with the checkpoint so the two artifacts agree
	// on tree lineage; a spool failure never blocks the checkpoint.
	if a.life != nil && a.spool != "" {
		serr := resilience.Retry(nil, ioRetry, func() error {
			return a.life.SaveSpool(a.spool)
		})
		if serr != nil {
			a.log.Error("spool save failed", "path", a.spool, "err", serr)
		} else {
			a.log.Debug("spool written", "path", a.spool, "reason", reason)
		}
	}
}

// loadServing builds the serving model (tree + resolver + cluster mapping +
// threshold) from a bundle file or, without one, by bootstrap-training on a
// simulated month. The returned ModelSet is the same model in the shape the
// lifecycle manages (nil Assign falls back to cluster 0, like a bundle).
func loadServing(a *app, model string, threshold float64, seed int64) (*sigtree.Tree, func(string) *detect.LSTMDetector, func(string) int, float64, *lifecycle.ModelSet, error) {
	if model != "" {
		b, err := bundle.LoadFile(model)
		if err != nil {
			return nil, nil, nil, 0, nil, err
		}
		if b.Threshold > 0 {
			threshold = b.Threshold
		}
		a.log.Info("loaded bundle", "model", model, "detectors", len(b.Detectors),
			"templates", b.Tree.Len(), "threshold", threshold)
		a.setBundle(bundleStatus{
			Path:          model,
			FormatVersion: bundle.Version,
			LoadedAt:      time.Now(),
			Detectors:     len(b.Detectors),
			Templates:     b.Tree.Len(),
			Threshold:     threshold,
		})
		clusterOf := func(host string) int {
			if ci, ok := b.Assign[host]; ok {
				return ci
			}
			return 0
		}
		ms := lifecycle.ModelSetFromBundle(b)
		ms.Threshold = threshold
		return b.Tree, b.DetectorFor, clusterOf, threshold, ms, nil
	}
	// Bootstrap: train on a simulated month of normal fleet traffic.
	a.log.Info("bootstrapping detector on simulated training archive")
	simCfg := nfvpredict.SmallSimConfig()
	simCfg.Seed = seed
	simCfg.Months = 1
	simCfg.UpdateMonth = -1
	trace, err := nfvpredict.Simulate(simCfg)
	if err != nil {
		return nil, nil, nil, 0, nil, err
	}
	ds := pipeline.BuildDataset(trace, simCfg.Start, simCfg.Months)
	var streams [][]features.Event
	for _, v := range ds.VPEs {
		if ev := ds.CleanEvents(v, ds.MonthStart(0), ds.MonthStart(1), 72*time.Hour); len(ev) > 0 {
			streams = append(streams, ev)
		}
	}
	det := detect.NewLSTMDetector(detect.DefaultLSTMConfig())
	det.SetMetrics(a.reg, "")
	if err := det.Train(streams); err != nil {
		return nil, nil, nil, 0, nil, err
	}
	a.log.Info("detector trained", "streams", len(streams), "templates", ds.Tree.Len())
	a.setBundle(bundleStatus{
		Bootstrap: true,
		LoadedAt:  time.Now(),
		Detectors: 1,
		Templates: ds.Tree.Len(),
		Threshold: threshold,
	})
	ms := &lifecycle.ModelSet{
		Detectors: []*detect.LSTMDetector{det},
		Threshold: threshold,
	}
	return ds.Tree, func(string) *detect.LSTMDetector { return det }, nil, threshold, ms, nil
}

func run(o options) error {
	level := obs.LevelInfo
	if o.verbose {
		level = obs.LevelDebug
	}
	a := newApp(obs.NewLogger(os.Stdout, level), o.traceBuf, o.spanBuf, o.spanSample)
	if o.burnDir != "" {
		a.profiler = obs.NewBurnProfiler(o.burnDir, 0, 0, a.log)
		a.profiler.Export(a.reg)
	}

	tree, resolve, clusterOf, threshold, ms, err := loadServing(a, o.model, o.threshold, o.seed)
	if err != nil {
		return err
	}
	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold = threshold
	mcfg.Metrics = a.reg
	mcfg.Traces = a.traces
	mcfg.Tracer = a.tracer
	mcfg.LatencySLO = a.sloLatency
	mcfg.LatencyBound = o.sloLatency
	mcfg.ClusterOf = clusterOf
	mcfg.Shards = o.shards
	if mcfg.Shards <= 0 {
		mcfg.Shards = runtime.GOMAXPROCS(0)
	}
	mcfg.Watchdog = o.watchdog
	a.chaos = o.chaos
	if o.chaos {
		// Fault drills: score/worker/heartbeat fault points become live and
		// operator-togglable through POST /chaos/arm.
		mcfg.Faults = faultinject.Default
	}
	// The lifecycle manager is built before the monitor because the monitor
	// config needs its Observe hook; the monitor is attached just after.
	if o.adapt {
		lcfg := lifecycle.DefaultConfig()
		lcfg.Interval = o.adaptInterval
		lcfg.GateBudget = o.adaptGate
		lcfg.Metrics = a.reg
		lcfg.Tracer = a.tracer
		lcfg.Log = log.New(os.Stdout, "", log.LstdFlags)
		if o.chaos {
			lcfg.Faults = faultinject.Default
		}
		a.life = lifecycle.New(lcfg, ms)
		a.spool = o.adaptSpool
		mcfg.OnScored = a.life.Observe
	}
	onWarning := func(w nfvpredict.Warning) {
		// Rate-limited per vPE: a host stuck in an anomalous state re-emits
		// its signature every cluster, and the log should not amplify that.
		a.log.WarnLimited(w.VPE, "warning signature", "vpe", w.VPE, "anomalies", w.Size, "first", w.Time)
	}

	// Resume from the last checkpoint when one exists; any failure —
	// missing file, corruption, model mismatch after a retrain — degrades
	// to a cold start, never a refusal to serve.
	if o.ckpt != "" {
		if _, serr := os.Stat(o.ckpt); serr == nil {
			restored, rerr := ingest.RestoreMonitorFile(o.ckpt, mcfg, resolve, onWarning)
			if rerr != nil {
				// Move the corrupt file aside so the next interval save does
				// not overwrite the evidence, then start cold.
				if qpath, qerr := resilience.Quarantine(o.ckpt); qerr != nil {
					a.log.Warn("checkpoint unusable, starting cold", "path", o.ckpt, "err", rerr, "quarantine_err", qerr)
				} else {
					a.log.Warn("checkpoint unusable, starting cold", "path", o.ckpt, "err", rerr, "quarantined", qpath)
				}
			} else {
				a.mon = restored
				st := a.mon.Stats()
				a.mu.Lock()
				a.ckpt.RestoredAt = time.Now()
				a.mu.Unlock()
				a.log.Info("restored checkpoint", "path", o.ckpt,
					"hosts", st.ActiveHosts, "messages", st.Messages, "warnings", st.Warnings)
			}
		}
	}
	if a.mon == nil {
		a.mon = ingest.NewMonitorWithResolver(mcfg, tree, resolve, onWarning)
	}
	a.initDegrader()
	if a.life != nil {
		a.life.Attach(a.mon)
		if lerr := a.life.LoadSpool(o.adaptSpool); lerr != nil {
			a.log.Warn("spool unusable, starting cold", "path", o.adaptSpool, "err", lerr)
		}
		a.life.Start()
		defer a.life.Stop()
		a.log.Info("lifecycle up", "interval", o.adaptInterval, "gate", o.adaptGate)
	}

	scfg := ingest.DefaultServerConfig()
	scfg.UDPAddr, scfg.TCPAddr, scfg.Year = o.udp, o.tcp, o.year
	scfg.Metrics = a.reg
	// The listeners route each parsed message straight to its host's shard
	// queue; shard workers do the scoring (batching distinct hosts).
	scfg.Sharded = a.mon
	// Trace IDs are minted at frame accept so spans cover decode and queue
	// wait; every queue admission/refusal feeds the shard_drop_ratio SLO.
	scfg.Tracer = a.tracer
	scfg.DropSLO = a.sloDrops
	srv, err := ingest.NewServer(scfg, nil)
	if err != nil {
		return err
	}
	a.srv = srv
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a.mon.Start()
	defer a.mon.Stop()
	srv.Start(ctx)
	defer srv.Close()
	a.log.Info("scoring shards up", "shards", a.mon.ShardCount())
	if addr := srv.UDPAddr(); addr != nil {
		a.log.Info("listening", "proto", "udp", "addr", addr)
	}
	if addr := srv.TCPAddr(); addr != nil {
		a.log.Info("listening", "proto", "tcp", "addr", addr)
	}

	// Admin surface: its own listener and mux, shut down with the monitor.
	if o.admin != "" {
		ln, lerr := net.Listen("tcp", o.admin)
		if lerr != nil {
			return fmt.Errorf("admin listener: %w", lerr)
		}
		admin := &http.Server{Handler: a.adminMux()}
		go func() {
			if serr := admin.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				a.log.Error("admin server failed", "err", serr)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			admin.Shutdown(sctx)
		}()
		a.log.Info("admin surface up", "addr", ln.Addr(),
			"endpoints", "/metrics /statusz /traces /spans /slo /healthz /readyz /debug/pprof")
	}

	// SIGHUP: hot-reload the bundle. A bundle that fails to load or
	// validate is rejected and the serving model stays active.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	status := time.NewTicker(10 * time.Second)
	defer status.Stop()
	degradeTick := time.NewTicker(5 * time.Second)
	defer degradeTick.Stop()
	ckptTick := make(<-chan time.Time) // nil channel: disabled
	if o.ckpt != "" && o.ckptEvery > 0 {
		t := time.NewTicker(o.ckptEvery)
		defer t.Stop()
		ckptTick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			// Stop the listeners, drain the shard queues, then checkpoint
			// the fully-drained state.
			srv.Close()
			a.mon.Stop()
			a.saveCheckpoint(o.ckpt, "shutdown")
			mst := a.mon.Stats()
			st := srv.Stats()
			a.log.Info("shutting down",
				"messages", mst.Messages, "malformed", st.Malformed,
				"dropped", st.Dropped, "sink_panics", st.SinkPanics,
				"anomalies", mst.Anomalies, "warnings", mst.Warnings,
				"evicted_hosts", mst.EvictedHosts)
			return nil
		case <-hup:
			if o.model == "" {
				a.log.Warn("SIGHUP ignored: no -model bundle to reload")
				continue
			}
			if a.reload(o.model) == nil {
				a.saveCheckpoint(o.ckpt, "post-reload")
			}
		case <-ckptTick:
			a.saveCheckpoint(o.ckpt, "interval")
		case <-degradeTick.C:
			a.sampleDegrade()
		case <-status.C:
			mst := a.mon.Stats()
			sst := srv.Stats()
			a.log.Info("status",
				"messages", mst.Messages, "anomalies", mst.Anomalies,
				"warnings", mst.Warnings, "hosts", mst.ActiveHosts,
				"malformed", sst.Malformed, "dropped", sst.Dropped)
		}
	}
}
