package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"strconv"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/obs"
)

// The stack below is cmd/nfvmonitor's run() with its flags at their
// defaults and -model, -tcp (and -adapt on update_adapt) given. Each line
// it mirrors, by line of cmd/nfvmonitor/main.go at the commit this
// benchmark was written against; a change there that is not made here
// means the benchmark no longer measures what ships:
//
//	233-278  newApp: one obs.Registry; TraceRing(-trace-buffer 256);
//	         SpanRing(-span-buffer 512); NewTracer(spans, 1, -span-sample 16)
//	         exported into the registry; SLOSet exported, with
//	         accept_verdict_latency, shard_drop_ratio and
//	         warning_availability at target 0.99; logger rate limit 1/s
//	         burst 5 per vPE.
//	555-580  loadServing with -model: bundle.Load, threshold from the bundle,
//	         ClusterOf from bundle.Assign falling back to 0, detectors
//	         served without a metrics registry (SetMetrics is only called on
//	         the bootstrap detector).
//	630-654  -precision f64: MonitorConfig.Precision stays the zero value.
//	656-669  DefaultMonitorConfig plus Threshold, Metrics, Traces, Tracer,
//	         LatencySLO, LatencyBound (-slo-latency 250ms), ClusterOf,
//	         Shards = GOMAXPROCS (-shards 0), Watchdog (-watchdog 30s).
//	         MaxBatch, ShardQueue, MaxHosts and TraceWindow are left zero so
//	         the monitor's own defaults apply.
//	678-691  -adapt: lifecycle.DefaultConfig, GateBudget (-adapt-gate 0.02),
//	         Metrics, Tracer, Log; OnScored = Manager.Observe; Attach after
//	         the monitor exists. Interval is 0 here: cycles are forced.
//	692-696  onWarning logs through WarnLimited, keyed by vPE.
//	737-757  DefaultServerConfig plus TCPAddr, Year, Metrics, Sharded = the
//	         monitor, Tracer, DropSLO; Monitor.Start then Server.Start.
//
// Not mirrored: the UDP listener (the roadmap's depth (a) is TCP with RFC
// 6587 framing), the admin HTTP surface, the checkpoint ticker, and the
// 5-second degrader tick — none sits on the message path.

// stackOpts selects the departures from the shipped wiring that a
// measurement needs.
type stackOpts struct {
	// noObs leaves every observability handle nil (obs.overhead_pct).
	noObs bool
	// shards overrides GOMAXPROCS; the reference replay uses 1.
	shards int
	// done, when set, receives one token per verdict from OnScored: the
	// generator's completion signal. It must have room for every frame in
	// flight, since the hook runs under a shard lock and may not block. The
	// stack then also carries a meter, ticked by the same hook.
	done chan struct{}
	// lifecycle attaches the adaptation manager (update_adapt).
	lifecycle bool
	// detMetrics attaches the detectors to the registry, which the shipped
	// monitor does not do; only the batch-lane histogram needs it.
	detMetrics bool
	// sink replaces the monitor behind the server (null-sink depth).
	sink ingest.ShardSink
	// noServer builds the monitor alone (in-process depths).
	noServer bool
}

// stack is one assembled serving process.
type stack struct {
	reg  *obs.Registry
	b    *bundle.Bundle
	mcfg ingest.MonitorConfig
	mon  *ingest.Monitor
	srv  *ingest.Server
	lm   *lifecycle.Manager

	conn net.Conn
	w    *bufio.Writer

	meter *meter // nil without stackOpts.done
}

func newStack(fx *fixture, o stackOpts) (*stack, error) {
	b, err := bundle.Load(bytes.NewReader(fx.bundle))
	if err != nil {
		return nil, err
	}
	s := &stack{b: b}

	var (
		traces     *obs.TraceRing
		tracer     *obs.Tracer
		sloLatency *obs.SLO
		sloDrops   *obs.SLO
		logger     *obs.Logger
	)
	if !o.noObs {
		s.reg = obs.NewRegistry()
		traces = obs.NewTraceRing(256)
		tracer = obs.NewTracer(obs.NewSpanRing(512), 1, 16)
		tracer.Export(s.reg)
		slos := obs.NewSLOSet()
		slos.Export(s.reg)
		sloLatency = slos.Add(obs.SLOConfig{Name: "accept_verdict_latency", Target: 0.99})
		sloDrops = slos.Add(obs.SLOConfig{Name: "shard_drop_ratio", Target: 0.99})
		slos.Add(obs.SLOConfig{Name: "warning_availability", Target: 0.99})
		logger = obs.NewLogger(io.Discard, obs.LevelInfo)
		logger.SetRateLimit(1, 5, s.reg.Counter("log_suppressed_total", "Suppressed warning log lines."))
	}
	if o.detMetrics && s.reg != nil {
		for ci, d := range b.Detectors {
			d.SetMetrics(s.reg, "cluster"+strconv.Itoa(ci)+"_")
		}
	}

	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold = b.Threshold
	mcfg.Metrics = s.reg
	mcfg.Traces = traces
	mcfg.Tracer = tracer
	mcfg.LatencySLO = sloLatency
	mcfg.LatencyBound = 250 * time.Millisecond
	mcfg.ClusterOf = func(host string) int {
		if ci, ok := b.Assign[host]; ok {
			return ci
		}
		return 0
	}
	mcfg.Shards = o.shards
	if mcfg.Shards <= 0 {
		mcfg.Shards = runtime.GOMAXPROCS(0)
	}
	mcfg.Watchdog = 30 * time.Second
	if o.lifecycle {
		lcfg := lifecycle.DefaultConfig()
		lcfg.Interval = 0
		lcfg.GateBudget = 0.02
		lcfg.Metrics = s.reg
		lcfg.Tracer = tracer
		lcfg.Log = log.New(io.Discard, "", log.LstdFlags)
		ms := lifecycle.ModelSetFromBundle(b)
		s.lm = lifecycle.New(lcfg, ms)
		mcfg.OnScored = s.lm.Observe
	}
	if o.done != nil {
		s.meter = newMeter(fx.w.windowMsgs())
		inner := mcfg.OnScored
		mcfg.OnScored = func(host string, ci int, ev features.Event, score float64, anomalous, burst bool) {
			if inner != nil {
				inner(host, ci, ev, score, anomalous, burst)
			}
			// The stamp is written before the token is sent, so whoever
			// has drained the tokens may read the stamps.
			s.meter.tick()
			o.done <- struct{}{}
		}
	}
	s.mcfg = mcfg
	var onWarning func(detect.Warning)
	if logger != nil {
		onWarning = func(w detect.Warning) {
			logger.WarnLimited(w.VPE, "warning signature", "vpe", w.VPE, "anomalies", w.Size, "first", w.Time)
		}
	}
	s.mon = ingest.NewMonitorWithResolver(mcfg, b.Tree, b.DetectorFor, onWarning)
	if s.lm != nil {
		s.lm.Attach(s.mon)
	}
	if o.noServer {
		return s, nil
	}

	scfg := ingest.DefaultServerConfig()
	scfg.UDPAddr = ""
	scfg.TCPAddr = "127.0.0.1:0"
	scfg.Year = simStart.Year()
	scfg.Metrics = s.reg
	scfg.Sharded = s.mon
	if o.sink != nil {
		scfg.Sharded = o.sink
	}
	scfg.Tracer = tracer
	scfg.DropSLO = sloDrops
	s.srv, err = ingest.NewServer(scfg, nil)
	if err != nil {
		return nil, err
	}
	s.mon.Start()
	s.srv.Start(nil)
	s.conn, err = net.Dial("tcp", s.srv.TCPAddr().String())
	if err != nil {
		s.close()
		return nil, fmt.Errorf("dialing the ingest server: %w", err)
	}
	s.w = bufio.NewWriterSize(s.conn, 64<<10)
	return s, nil
}

// close stops the connection, the server and the workers, in that order,
// and returns once their goroutines have exited.
func (s *stack) close() {
	if s.conn != nil {
		s.conn.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.mon.Stop()
}
