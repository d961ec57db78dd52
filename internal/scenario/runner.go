package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/eval"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/serve"
)

// Options tunes a scenario run without changing its outcome.
type Options struct {
	// Log, when set, receives one line per phase and timeline event.
	Log *log.Logger
	// AdminUp, when set, runs beside the serve phase with the admin
	// listener's address once /statusz is live; the phase keeps the admin
	// surface open until it returns.
	AdminUp func(addr net.Addr)
}

// Report is the machine-readable result of a scenario run.
type Report struct {
	Scenario    string        `json:"scenario"`
	Description string        `json:"description,omitempty"`
	File        string        `json:"file,omitempty"`
	Seed        int64         `json:"seed"`
	Passed      bool          `json:"passed"`
	Phases      []PhaseTiming `json:"phases"`

	Sim       SimReport        `json:"sim"`
	Serve     ServeReport      `json:"serve"`
	Eval      *eval.Summary    `json:"eval,omitempty"`
	Lifecycle *LifecycleReport `json:"lifecycle,omitempty"`
	Chaos     []PointReport    `json:"chaos,omitempty"`

	Events     []EventReport     `json:"events,omitempty"`
	Assertions []AssertionResult `json:"assertions"`

	// Warnings are the served warnings Eval was computed from, for callers
	// that compare two runs; not part of the JSON report.
	Warnings []detect.Warning `json:"-"`
}

// PhaseTiming is one phase's wall-clock cost.
type PhaseTiming struct {
	Name   string `json:"name"`
	Millis int64  `json:"ms"`
}

// SimReport describes the generated trace.
type SimReport struct {
	Messages   int `json:"messages"`
	Tickets    int `json:"tickets"`
	VPEs       int `json:"vpes"`
	Injections int `json:"injections"`
}

// ServeReport snapshots the serving stack after the replay.
type ServeReport struct {
	Received        uint64 `json:"received"`
	Malformed       uint64 `json:"malformed"`
	ShardDropped    uint64 `json:"shard_dropped"`
	Messages        uint64 `json:"messages"`
	Anomalies       uint64 `json:"anomalies"`
	Warnings        uint64 `json:"warnings"`
	ShardPanics     uint64 `json:"shard_panics"`
	WorkerRestarts  uint64 `json:"worker_restarts"`
	WatchdogKicks   uint64 `json:"watchdog_kicks"`
	ShedMessages    uint64 `json:"shed_messages"`
	EvictedHosts    uint64 `json:"evicted_hosts"`
	Shards          int    `json:"shards"`
	CheckpointSaves int    `json:"checkpoint_saves"`
	// CheckpointParity is false if any checkpoint event's restore diverged
	// from the live monitor (counters or warning set).
	CheckpointParity bool `json:"checkpoint_parity"`
}

// LifecycleReport summarizes adaptation activity.
type LifecycleReport struct {
	Cycles     int    `json:"cycles"`
	Promotions int    `json:"promotions"`
	Generation int    `json:"generation"`
	Breaker    string `json:"breaker"`
}

// PointReport is one fault point's injection counters.
type PointReport struct {
	Point string `json:"point"`
	Hits  uint64 `json:"hits"`
	Fired uint64 `json:"fired"`
}

// EventReport records one executed timeline event.
type EventReport struct {
	At     string `json:"at"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// AssertionResult is one declarative assertion's verdict.
type AssertionResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// GenerateTrace compiles the spec and generates its deployment trace.
func (s *Spec) GenerateTrace() (*nfvsim.Trace, error) {
	cfg, err := s.SimConfig()
	if err != nil {
		return nil, err
	}
	d, err := nfvsim.New(cfg)
	if err != nil {
		return nil, err
	}
	return d.Generate()
}

// WriteTrace writes a trace's messages as logfmt JSONL — the format
// nfvtrain trains on and `nfvscen replay` sends to a live monitor.
func WriteTrace(w io.Writer, tr *nfvsim.Trace) error {
	lw := logfmt.NewWriter(w)
	for i := range tr.Messages {
		if err := lw.Write(&tr.Messages[i]); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// Run executes a scenario end-to-end: simulate the fleet, train the
// serving models on the leading months, replay the rest over the wire
// through the full serving stack while executing the timeline, evaluate
// warnings against the ticket store, and check the declared assertions.
//
// A non-nil error means the harness itself failed (listener, training,
// settle deadline); assertion failures are reported via Report.Passed and
// Report.Assertions.
func Run(spec *Spec, opts Options) (*Report, error) {
	rep := &Report{
		Scenario:    spec.Name,
		Description: spec.Description,
		File:        spec.File,
		Seed:        spec.Seed,
	}
	rep.Serve.CheckpointParity = true
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			opts.Log.Printf(format, args...)
		}
	}
	timed := func(name string, f func() error) error {
		logf("scenario %s: phase %s", spec.Name, name)
		t0 := time.Now()
		err := f()
		rep.Phases = append(rep.Phases, PhaseTiming{Name: name, Millis: time.Since(t0).Milliseconds()})
		return err
	}

	// Checkpoint artifacts live in a temp dir removed when Run returns.
	dir, err := os.MkdirTemp("", "nfvscen-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Phase 1: simulate.
	var tr *nfvsim.Trace
	if err := timed("simulate", func() error {
		var err error
		tr, err = spec.GenerateTrace()
		return err
	}); err != nil {
		return nil, err
	}
	rep.Sim = SimReport{
		Messages:   len(tr.Messages),
		Tickets:    len(tr.Tickets),
		VPEs:       len(tr.VPENames),
		Injections: countSimEvents(spec),
	}

	// Phase 2: train.
	var b *bundle.Bundle
	if err := timed("train", func() error {
		var err error
		b, err = trainModels(spec, tr)
		return err
	}); err != nil {
		return nil, err
	}

	// Phase 3: serve.
	var summary *eval.Summary
	if err := timed("serve", func() error {
		var err error
		summary, err = servePhase(spec, opts, rep, tr, b, dir, logf)
		return err
	}); err != nil {
		return nil, err
	}
	rep.Eval = summary

	// Phase 4: assert.
	if err := timed("assert", func() error {
		rep.Assertions = evaluate(spec, rep)
		rep.Passed = !slices.ContainsFunc(rep.Assertions, func(a AssertionResult) bool { return !a.OK })
		return nil
	}); err != nil {
		return nil, err
	}
	logf("scenario %s: %s (%d assertions)", spec.Name, passFail(rep.Passed), len(rep.Assertions))
	return rep, nil
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

func countSimEvents(spec *Spec) int {
	n := 0
	for i := range spec.Timeline {
		if _, sim := injectKinds[spec.Timeline[i].Kind]; sim {
			n++
		}
	}
	return n
}

// trainModels builds the dataset and trains the per-cluster serving bundle
// on the leading train.months of clean traffic, to be served at the
// scenario's threshold.
func trainModels(spec *Spec, tr *nfvsim.Trace) (*bundle.Bundle, error) {
	ds := pipeline.BuildDataset(tr, spec.Fleet.Start, spec.Fleet.Months)
	cfg := pipeline.DefaultConfig()
	cfg.KMin, cfg.KMax = spec.Train.Clusters, spec.Train.Clusters
	cfg.TrainExclusion = spec.Train.Exclusion
	cfg.LSTM.Hidden = spec.Train.Hidden
	cfg.LSTM.Epochs = spec.Train.Epochs
	cfg.LSTM.MaxVocab = spec.Train.MaxVocab
	b, err := pipeline.TrainModels(ds, cfg, spec.Train.Months)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	b.Threshold = spec.Serve.Threshold
	return b, nil
}

// servePhase replays the post-training trace over TCP through the shipped
// serving stack (serve.New, as nfvmonitor builds it — only the traffic
// source differs), executing runner-side timeline events at their trace
// offsets.
func servePhase(spec *Spec, opts Options, rep *Report, tr *nfvsim.Trace, b *bundle.Bundle, dir string, logf func(string, ...any)) (*eval.Summary, error) {
	serveStart := spec.ServeStart()
	end := spec.End()
	first := sort.Search(len(tr.Messages), func(i int) bool {
		return !tr.Messages[i].Time.Before(serveStart)
	})
	msgs := tr.Messages[first:]

	so := serve.DefaultOptions()
	so.Bundle = b
	so.UDPAddr, so.TCPAddr, so.Year = "", "127.0.0.1:0", serveStart.Year()
	so.Shards = spec.Serve.Shards
	so.Faults = faultinject.NewRegistry()
	so.Checkpoint = filepath.Join(dir, "monitor.nfvc")
	if spec.Lifecycle.Enabled {
		lcfg := lifecycle.DefaultConfig()
		lcfg.Interval = 0 // cycles driven only by adapt events
		lcfg.GateBudget = spec.Lifecycle.GateBudget
		lcfg.WindowLen = spec.Lifecycle.WindowLen
		lcfg.SpoolPerCluster = 64 // scenario scale: days of traffic, not a month
		lcfg.MinWindows = spec.Lifecycle.MinWindows
		so.Lifecycle = &lcfg
	}
	st, err := serve.New(so)
	if err != nil {
		return nil, err
	}
	st.Start(nil)
	defer st.Close()
	mon, srv, lm := st.Monitor, st.Server, st.Lifecycle

	// Admin surface: the stack's own, the one nfvmonitor serves.
	if spec.Serve.Admin {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, fmt.Errorf("scenario: admin listener: %w", lerr)
		}
		admin := &http.Server{Handler: st.AdminMux()}
		go admin.Serve(ln)
		defer admin.Close()
		logf("scenario %s: admin surface on %s", spec.Name, ln.Addr())
		if opts.AdminUp != nil {
			up := make(chan struct{})
			go func() {
				defer close(up)
				opts.AdminUp(ln.Addr())
			}()
			defer func() { <-up }() // before admin.Close
		}
	}

	feeder := &wireFeeder{addr: srv.TCPAddr().String(), mon: mon}

	// Runner-side events split the serve stream into segments; each event
	// executes against a settled stack: every message sent before it judged.
	baseGen := 0
	if lm != nil {
		baseGen = lm.Generation()
	}
	cursor := 0
	for i := range spec.Timeline {
		ev := &spec.Timeline[i]
		if _, sim := injectKinds[ev.Kind]; sim {
			continue
		}
		cut := spec.Fleet.Start.Add(ev.At)
		upTo := sort.Search(len(msgs), func(j int) bool { return !msgs[j].Time.Before(cut) })
		if err := feeder.send(msgs[cursor:upTo]); err != nil {
			return nil, err
		}
		cursor = upTo
		if err := feeder.flushAndSettle(); err != nil {
			return nil, err
		}
		detail, err := execEvent(ev, st, so, rep)
		if err != nil {
			return nil, err
		}
		rep.Events = append(rep.Events, EventReport{At: ev.At.String(), Kind: ev.Kind, Detail: detail})
		logf("scenario %s: event %s at %s: %s", spec.Name, ev.Kind, ev.At, detail)
	}
	if err := feeder.send(msgs[cursor:]); err != nil {
		return nil, err
	}
	if err := feeder.flushAndSettle(); err != nil {
		return nil, err
	}

	sst := srv.Stats()
	mst := mon.Stats()
	rep.Serve.Received = sst.Received
	rep.Serve.Malformed = sst.Malformed
	rep.Serve.ShardDropped = sst.ShardDropped
	rep.Serve.Messages = mst.Messages
	rep.Serve.Anomalies = mst.Anomalies
	rep.Serve.Warnings = mst.Warnings
	rep.Serve.ShardPanics = mst.ShardPanics
	rep.Serve.WorkerRestarts = mst.WorkerRestarts
	rep.Serve.WatchdogKicks = mst.WatchdogKicks
	rep.Serve.ShedMessages = mst.ShedMessages
	rep.Serve.EvictedHosts = mst.EvictedHosts
	rep.Serve.Shards = mst.Shards
	if lm != nil {
		lst := lm.Status()
		rep.Lifecycle = &LifecycleReport{
			Cycles:     lst.Cycles,
			Promotions: lm.Generation() - baseGen,
			Generation: lm.Generation(),
			Breaker:    lst.Breaker.StateName,
		}
	}
	for _, ps := range so.Faults.Snapshot() {
		if ps.Hits > 0 || ps.Fired > 0 {
			rep.Chaos = append(rep.Chaos, PointReport{Point: ps.Name, Hits: ps.Hits, Fired: ps.Fired})
		}
	}

	rep.Warnings = mon.Warnings()
	out := eval.MapWarnings(rep.Warnings, tr.Tickets, eval.DefaultConfig(), serveStart, end)
	summary := out.Summary()
	return &summary, nil
}

// execEvent runs one runner-side timeline event against the settled stack
// st, which was built from so.
func execEvent(ev *Event, st *serve.Stack, so serve.Options, rep *Report) (string, error) {
	switch ev.Kind {
	case EventChaos:
		err := so.Faults.Arm(ev.Point, faultinject.Arming{
			Mode:  faultinject.Mode(ev.Mode),
			Count: int64(ev.Count),
			Delay: ev.Delay,
			Bytes: int64(ev.Bytes),
			Skew:  ev.Skew,
		})
		if err != nil {
			return "", fmt.Errorf("scenario: arming %s: %w", ev.Point, err)
		}
		return fmt.Sprintf("armed %s mode=%s count=%d", ev.Point, ev.Mode, ev.Count), nil
	case EventAdapt:
		if st.Lifecycle == nil {
			return "", fmt.Errorf("scenario: adapt event without lifecycle")
		}
		res := st.Lifecycle.TriggerCycle(ev.Forced)
		if res.Skipped {
			return fmt.Sprintf("cycle skipped: %s", res.SkipReason), nil
		}
		return fmt.Sprintf("cycle ran: promoted=%v", res.Promoted), nil
	case EventCheckpoint:
		live := restartState(st)
		if err := st.Checkpoint("scenario checkpoint event"); err != nil {
			return "", fmt.Errorf("scenario: checkpoint exhausted retries: %w", err)
		}
		rep.Serve.CheckpointSaves++
		// The restart: a second stack over the same options, lifecycle
		// included but no faults, must resume from the file exactly where
		// the live stack stands: counters, warnings, the generation it
		// serves and its spool.
		var restartLog bytes.Buffer
		probe := so
		probe.Faults = nil
		probe.Log = obs.NewLogger(&restartLog, obs.LevelWarn)
		restarted, err := serve.New(probe)
		if err != nil {
			return "", err
		}
		defer restarted.Close()
		if restarted.RestoredAt.IsZero() {
			return "", fmt.Errorf("scenario: checkpoint on disk unrestorable: %s", restartLog.String())
		}
		rMsgs, _ := restarted.Monitor.Counters()
		parity := restartState(restarted) == live
		if !parity {
			rep.Serve.CheckpointParity = false
		}
		return fmt.Sprintf("saved+restored: messages=%d parity=%v", rMsgs, parity), nil
	case EventDegrade:
		st.SetDegrade(degradeModes[ev.DegradeMode], "scenario degrade event")
		return "mode=" + ev.DegradeMode, nil
	}
	return "", fmt.Errorf("scenario: unexpected runner event kind %q", ev.Kind)
}

// restartState is what a restart must keep: the message counter, the
// warning multiset, the served detectors' fingerprints and the
// per-cluster spool depths.
func restartState(st *serve.Stack) string {
	msgs, _ := st.Monitor.Counters()
	var warnings []string
	for _, w := range st.Monitor.Warnings() {
		warnings = append(warnings, fmt.Sprintf("%s|%d|%d", w.VPE, w.Time.UnixNano(), w.Size))
	}
	slices.Sort(warnings)
	var fps []uint64
	for _, d := range st.Serving().Detectors {
		fps = append(fps, d.Fingerprint())
	}
	var spool []int
	if st.Lifecycle != nil {
		spool = st.Lifecycle.Status().SpoolWindows
	}
	return fmt.Sprintf("messages %d warnings %v detectors %x spool %v", msgs, warnings, fps, spool)
}

// wireFeeder pushes messages over the TCP listener with RFC 6587 octet
// framing, one connection per chunk, pacing so the shard queues can never
// overflow: after each chunk it settles the stack. Zero drops is a
// harness invariant, not luck.
type wireFeeder struct {
	addr   string
	mon    *ingest.Monitor
	frames bytes.Buffer // framed messages not yet sent
	sent   uint64
}

// chunkSize is well under DefaultShardQueue so even a pathological
// all-one-host chunk fits in a single shard queue.
const chunkSize = 256

func (f *wireFeeder) send(msgs []logfmt.Message) error {
	for i := range msgs {
		line := msgs[i].Format3164()
		fmt.Fprintf(&f.frames, "%d %s", len(line), line)
		f.sent++
		if f.sent%chunkSize == 0 {
			if err := f.flushAndSettle(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushAndSettle sends the framed messages on a connection of their own,
// half-closes it and reads to EOF, then waits until the monitor has judged
// every message it accepted. The listener hands its pending frames to the
// shards before every socket read and when the connection ends, and
// closes the connection only after that: at EOF every frame sent has been
// counted and handed over. Chaos faults can wedge a worker for hundreds of
// ms, so the deadline is generous.
func (f *wireFeeder) flushAndSettle() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.frames.Len() > 0 {
		if err := f.deliver(ctx); err != nil {
			return fmt.Errorf("scenario: wire feed of %d messages: %w", f.sent, err)
		}
	}
	if err := f.mon.Settle(ctx); err != nil {
		return fmt.Errorf("scenario: monitor never settled: %w; stats %+v", err, f.mon.Stats())
	}
	return nil
}

// deliver writes the framed messages on a new connection, half-closes it
// and reads until the listener closes it.
func (f *wireFeeder) deliver(ctx context.Context) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", f.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	deadline, _ := ctx.Deadline()
	conn.SetDeadline(deadline)
	if _, err := f.frames.WriteTo(conn); err != nil {
		return err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}
