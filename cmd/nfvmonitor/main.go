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
// including the serving bundle and last checkpoint), /spans (recent
// decision spans; ?anomalous=1 keeps the ones explaining an anomaly
// verdict), /slo, /healthz + /readyz (503 while degraded, e.g. after a
// rejected hot reload), and the pprof suite under /debug/pprof/.
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
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"nfvpredict"
	"nfvpredict/internal/bundle"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/serve"
)

// options collects the flag values: the stack settings bind straight into
// serve.Options, the rest is what only this binary needs.
type options struct {
	serve.Options
	threshold float64
	seed      int64
	model     string
	ckptEvery time.Duration
	admin     string
	burnDir   string
	verbose   bool
	chaos     bool

	adapt         bool
	adaptInterval time.Duration
	adaptGate     float64
}

// registerFlags declares every nfvmonitor flag on fs, bound to o. Stack
// defaults are read from where they are written once (d, ld).
func registerFlags(fs *flag.FlagSet, o *options) {
	d, ld := serve.DefaultOptions(), lifecycle.DefaultConfig()
	fs.StringVar(&o.UDPAddr, "udp", d.UDPAddr, "UDP listen address (empty disables)")
	fs.StringVar(&o.TCPAddr, "tcp", d.TCPAddr, "TCP listen address (empty disables)")
	fs.Float64Var(&o.threshold, "threshold", 6, "anomaly threshold (negative log-likelihood; overridden by a bundle's recommendation)")
	fs.IntVar(&o.Year, "year", d.Year, "year for RFC 3164 timestamps")
	fs.Int64Var(&o.seed, "seed", 1, "bootstrap-simulation seed (when no -model)")
	fs.IntVar(&o.Shards, "shards", d.Shards, "scoring shards: hosts are hashed onto shards, each owning its vPEs' LSTM streams and scored by its own worker (0 = GOMAXPROCS)")
	fs.StringVar(&o.model, "model", "", "trained bundle from cmd/nfvtrain (empty: bootstrap on simulation); SIGHUP hot-reloads it")
	fs.StringVar(&o.Checkpoint, "checkpoint", "", "checkpoint file: online state is saved here periodically and restored at startup (empty disables)")
	fs.DurationVar(&o.ckptEvery, "checkpoint-interval", time.Minute, "how often to write the checkpoint")
	fs.StringVar(&o.admin, "admin", "", "admin HTTP listen address serving /metrics, /statusz, /spans, /slo, /healthz, /readyz, /debug/pprof (empty disables)")
	fs.IntVar(&o.SpanBuffer, "span-buffer", d.SpanBuffer, "pipeline spans retained for /spans")
	fs.IntVar(&o.SpanSample, "span-sample", d.SpanSample, "stage-clock sampling: 1 in N accepted messages carries a full span stage breakdown (warnings always get a span); 0 disables sampling — and with it the accept_verdict_latency SLO, which only observes sampled verdicts (/slo marks it inactive)")
	fs.DurationVar(&o.LatencyBound, "slo-latency", d.LatencyBound, "accept→verdict latency bound for the accept_verdict_latency SLO")
	fs.StringVar(&o.burnDir, "profile-on-burn", "", "directory for CPU profiles captured when an SLO fast window starts burning (empty disables)")
	fs.BoolVar(&o.verbose, "v", false, "verbose (debug-level) logging")
	fs.DurationVar(&o.Watchdog, "watchdog", d.Watchdog, "stuck-shard-worker deadline: a worker with queued work and no heartbeat progress for this long is abandoned and replaced (0 disables)")
	fs.BoolVar(&o.chaos, "chaos", false, "enable runtime fault injection: registers the process-wide fault points and mounts the /chaos admin endpoint (drills only — never in production)")
	fs.BoolVar(&o.adapt, "adapt", false, "enable the online model lifecycle: drift detection, background fine-tuning, shadow-gated promotion (adds /models to the admin surface)")
	fs.DurationVar(&o.adaptInterval, "adapt-interval", ld.Interval, "lifecycle cycle period (drift check + possible adaptation)")
	fs.Float64Var(&o.adaptGate, "adapt-gate", ld.GateBudget, "promotion gate: max false-alarm rate a candidate may show on held-out spooled traffic")
	fs.StringVar(&o.Spool, "adapt-spool", "", "spool file: recent normal windows are persisted here with the checkpoint and restored at startup (empty disables)")
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

// app is the running process: the assembled serving stack plus the status
// only this binary reports on /statusz. It exists (as opposed to locals in
// run) so tests can drive the admin endpoints and the hot-reload path.
type app struct {
	*serve.Stack
	log     *obs.Logger
	started time.Time
	chaos   bool // mirrors -chaos

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
	Path       string    `json:"path,omitempty"`
	LastSave   time.Time `json:"last_saved_at,omitempty"`
	LastError  string    `json:"last_error,omitempty"`
	RestoredAt time.Time `json:"restored_at,omitempty"`
}

// resilienceStatus is the /statusz resilience section: degradation mode
// and why, supervision counters, the named health conditions, and whether
// chaos fault injection is armed into this process.
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
	Spans      uint64              `json:"spans_total"`
	SLOs       []obs.SLOStatus     `json:"slos,omitempty"`
	Lifecycle  *lifecycle.Status   `json:"lifecycle,omitempty"`
	Resilience resilienceStatus    `json:"resilience"`
}

// status builds the /statusz document.
func (a *app) status() any {
	a.mu.Lock()
	b, c := a.bundle, a.ckpt
	a.mu.Unlock()
	c.RestoredAt = a.RestoredAt
	ready, reason := a.Health.Ready()
	mst := a.Monitor.Stats()
	b.Threshold = a.Monitor.Threshold()
	doc := statusDoc{
		Now:        time.Now(),
		UptimeSec:  time.Since(a.started).Seconds(),
		Build:      obs.GetBuildInfo(),
		Ready:      ready,
		Reason:     reason,
		Bundle:     b,
		Checkpoint: c,
		Monitor:    mst,
		Ingest:     a.Server.Stats(),
		Spans:      a.Spans.Total(),
		SLOs:       a.SLOs.Statuses(),
		Resilience: resilienceStatus{
			DegradeMode:    a.Degrader.Mode().String(),
			WorkerRestarts: mst.WorkerRestarts,
			WatchdogKicks:  mst.WatchdogKicks,
			ShardPanics:    mst.ShardPanics,
			Conditions:     a.Health.Conditions(),
			ChaosEnabled:   a.chaos,
		},
	}
	if a.Lifecycle != nil {
		st := a.Lifecycle.Status()
		doc.Lifecycle = &st
	}
	if a.Degrader.Mode() != resilience.ModeNormal {
		doc.Resilience.DegradeReason = a.Degrader.Reason()
	}
	return doc
}

// setLoaded records a loaded bundle as the serving model in /statusz.
func (a *app) setLoaded(path string, b *bundle.Bundle, threshold float64) {
	a.mu.Lock()
	a.bundle = bundleStatus{
		Path:          path,
		FormatVersion: bundle.Version,
		LoadedAt:      time.Now(),
		Detectors:     len(b.Detectors),
		Templates:     b.Tree.Len(),
		Threshold:     threshold,
	}
	a.mu.Unlock()
}

// reload re-reads the bundle file and swaps it in. Transient load failures
// are retried; a bundle that still fails to load or validate is rejected
// (serve.Stack.RejectReload) and the serving model stays active.
func (a *app) reload(model string) error {
	var b *bundle.Bundle
	err := resilience.Retry(nil, resilience.RetryPolicy{Attempts: 3, Base: 50 * time.Millisecond}, func() error {
		var lerr error
		b, lerr = bundle.LoadFile(model)
		return lerr
	})
	if err != nil {
		a.RejectReload(fmt.Sprintf("hot-reload of %s rejected: %v", model, err))
		a.log.Error("hot-reload rejected, keeping serving bundle", "model", model, "err", err)
		return err
	}
	a.Reload(b)
	a.setLoaded(model, b, b.Threshold)
	a.log.Info("hot-reloaded bundle", "model", model,
		"detectors", len(b.Detectors), "templates", b.Tree.Len(), "threshold", b.Threshold)
	return nil
}

// saveCheckpoint checkpoints the stack, recording the outcome for /statusz.
func (a *app) saveCheckpoint(path, reason string) {
	if path == "" {
		return
	}
	err := a.Checkpoint(reason)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ckpt.Path, a.ckpt.LastError = path, ""
	if err != nil {
		a.ckpt.LastError = err.Error()
	} else {
		a.ckpt.LastSave = time.Now()
	}
}

// loadServing returns the bundle to serve: the -model file, or without
// one a single fleet-wide model bootstrap-trained on a simulated month.
// Either way it serves at its own threshold when it recommends one (an
// nfvtrain bundle does), else at the -threshold flag.
func (a *app) loadServing(model string, threshold float64, seed int64) (*bundle.Bundle, error) {
	if model != "" {
		b, err := bundle.LoadFile(model)
		if err != nil {
			return nil, err
		}
		if b.Threshold <= 0 {
			b.Threshold = threshold
		}
		a.log.Info("loaded bundle", "model", model, "detectors", len(b.Detectors),
			"templates", b.Tree.Len(), "threshold", b.Threshold)
		a.setLoaded(model, b, b.Threshold)
		return b, nil
	}
	a.log.Info("bootstrapping detector on simulated training archive")
	simCfg := nfvpredict.SmallSimConfig()
	simCfg.Seed = seed
	simCfg.Months = 1
	simCfg.UpdateMonth = -1
	trace, err := nfvpredict.Simulate(simCfg)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Variant = pipeline.Baseline
	b, err := pipeline.TrainModels(pipeline.BuildDataset(trace, simCfg.Start, simCfg.Months), cfg, 1)
	if err != nil {
		return nil, err
	}
	b.Threshold = threshold
	a.log.Info("detector trained", "vpes", len(b.Assign), "templates", b.Tree.Len())
	a.mu.Lock()
	a.bundle = bundleStatus{Bootstrap: true, LoadedAt: time.Now(), Detectors: 1, Templates: b.Tree.Len(), Threshold: threshold}
	a.mu.Unlock()
	return b, nil
}

// newApp loads the serving bundle and assembles the stack around it,
// listeners bound but not started. /statusz names the file the stack
// serves: the -model bundle, or the generation a previous run saved
// beside the checkpoint when the stack serves that instead.
func newApp(o options, logOut io.Writer) (*app, error) {
	level := obs.LevelInfo
	if o.verbose {
		level = obs.LevelDebug
	}
	a := &app{log: obs.NewLogger(logOut, level), started: time.Now(), chaos: o.chaos}
	so := o.Options
	var err error
	if so.Bundle, err = a.loadServing(o.model, o.threshold, o.seed); err != nil {
		return nil, err
	}
	so.Log = a.log
	if o.chaos {
		// Fault drills: the stack's fault points become live and
		// operator-togglable through POST /chaos/arm.
		so.Faults = faultinject.Default
	}
	if o.adapt {
		lcfg := lifecycle.DefaultConfig()
		lcfg.Interval = o.adaptInterval
		lcfg.GateBudget = o.adaptGate
		lcfg.Log = log.New(logOut, "", log.LstdFlags)
		so.Lifecycle = &lcfg
	}
	so.OnWarning = func(w nfvpredict.Warning) {
		// Rate-limited per vPE: a host stuck in an anomalous state re-emits
		// its signature every cluster, and the log should not amplify that.
		a.log.WarnLimited(w.VPE, "warning signature", "vpe", w.VPE, "anomalies", w.Size, "first", w.Time)
	}
	if a.Stack, err = serve.New(so); err != nil {
		return nil, err
	}
	if a.ModelFile != "" {
		g := a.Serving()
		a.setLoaded(a.ModelFile, g, g.Threshold)
	}
	if o.model == "" {
		a.Serving().Detectors[0].SetMetrics(a.Registry, "")
	}
	if o.burnDir != "" {
		a.Profiler = obs.NewBurnProfiler(o.burnDir, 0, 0, a.log)
		a.Profiler.Export(a.Registry)
	}
	return a, nil
}

func run(o options) error {
	a, err := newApp(o, os.Stdout)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a.Start(ctx)
	defer a.Close()
	if o.adapt {
		a.log.Info("lifecycle up", "interval", o.adaptInterval, "gate", o.adaptGate)
	}
	a.log.Info("scoring shards up", "shards", a.Monitor.ShardCount())
	if addr := a.Server.UDPAddr(); addr != nil {
		a.log.Info("listening", "proto", "udp", "addr", addr)
	}
	if addr := a.Server.TCPAddr(); addr != nil {
		a.log.Info("listening", "proto", "tcp", "addr", addr)
	}

	// Admin surface: its own listener and mux, shut down with the monitor.
	if o.admin != "" {
		ln, lerr := net.Listen("tcp", o.admin)
		if lerr != nil {
			return fmt.Errorf("admin listener: %w", lerr)
		}
		admin := &http.Server{Handler: a.AdminMux(a.status)}
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
			"endpoints", "/metrics /statusz /spans /slo /healthz /readyz /debug/pprof")
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
	if o.Checkpoint != "" && o.ckptEvery > 0 {
		t := time.NewTicker(o.ckptEvery)
		defer t.Stop()
		ckptTick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			// Stop the listeners, drain the shard queues, then checkpoint
			// the fully-drained state.
			a.Close()
			a.saveCheckpoint(o.Checkpoint, "shutdown")
			a.logCounters("shutting down")
			return nil
		case <-hup:
			if o.model == "" {
				a.log.Warn("SIGHUP ignored: no -model bundle to reload")
				continue
			}
			if a.reload(o.model) == nil {
				a.saveCheckpoint(o.Checkpoint, "post-reload")
			}
		case <-ckptTick:
			a.saveCheckpoint(o.Checkpoint, "interval")
		case <-degradeTick.C:
			a.SampleDegrade()
		case <-status.C:
			a.logCounters("status")
		}
	}
}

// logCounters writes the status and shutdown lines. Listeners route into
// the shard queues, so a full one is the only drop there is: shard_dropped.
func (a *app) logCounters(msg string) {
	mst := a.Monitor.Stats()
	sst := a.Server.Stats()
	a.log.Info(msg,
		"messages", mst.Messages, "anomalies", mst.Anomalies,
		"warnings", mst.Warnings, "hosts", mst.ActiveHosts,
		"malformed", sst.Malformed, "shard_dropped", sst.ShardDropped,
		"evicted_hosts", mst.EvictedHosts)
}
