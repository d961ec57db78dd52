package scenario

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
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
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/serve"
)

// Options tunes a scenario run without changing its outcome.
type Options struct {
	// Log, when set, receives one line per phase and timeline event.
	Log *log.Logger
	// AdminUp, when set, is called with the admin listener's address once
	// /statusz is live (the serve phase), before any traffic flows.
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

// runState is the mutable status behind /statusz during a run.
type runState struct {
	mu     sync.Mutex
	phase  string
	events []EventReport
}

func (rs *runState) setPhase(p string) {
	rs.mu.Lock()
	rs.phase = p
	rs.mu.Unlock()
}

func (rs *runState) addEvent(e EventReport) {
	rs.mu.Lock()
	rs.events = append(rs.events, e)
	rs.mu.Unlock()
}

func (rs *runState) snapshot() (string, []EventReport) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.phase, append([]EventReport(nil), rs.events...)
}

// Run executes a scenario end-to-end: simulate the fleet, train the
// serving models on the leading months, replay the rest over the wire
// through the full serving stack while executing the timeline, evaluate
// warnings against the ticket store, and check the declared assertions.
//
// A non-nil error means the harness itself failed (listener, training,
// drain deadline); assertion failures are reported via Report.Passed and
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
		rep.Passed = true
		for _, a := range rep.Assertions {
			if !a.OK {
				rep.Passed = false
			}
		}
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
		if k := spec.Timeline[i].Kind; k == EventFault || k == EventBurst {
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
		so.Spool = filepath.Join(dir, "lifecycle.nfvs")
	}
	st, err := serve.New(so)
	if err != nil {
		return nil, err
	}
	st.Start(nil)
	defer st.Close()
	mon, srv, lm := st.Monitor, st.Server, st.Lifecycle

	// Admin surface: the stack's own (/metrics, /spans, /slo, ...),
	// with the scenario-run metadata (name, phase, executed events) next to
	// the live stack counters as its /statusz document.
	rs := &runState{phase: "serve"}
	if spec.Serve.Admin {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, fmt.Errorf("scenario: admin listener: %w", lerr)
		}
		admin := &http.Server{Handler: st.AdminMux(func() any {
			phase, events := rs.snapshot()
			doc := map[string]any{
				"scenario": spec.Name,
				"seed":     spec.Seed,
				"phase":    phase,
				"events":   events,
				"monitor":  mon.Stats(),
				"ingest":   srv.Stats(),
			}
			if lm != nil {
				doc["lifecycle"] = lm.Status()
			}
			return doc
		})}
		go admin.Serve(ln)
		defer admin.Close()
		logf("scenario %s: admin surface on %s", spec.Name, ln.Addr())
		if opts.AdminUp != nil {
			opts.AdminUp(ln.Addr())
		}
	}

	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	feeder := &wireFeeder{w: bufio.NewWriter(conn), srv: srv, mon: mon}

	// Runner-side events split the serve stream into segments; each event
	// executes against a fully drained stack.
	baseGen := 0
	if lm != nil {
		baseGen = lm.Generation()
	}
	cursor := 0
	for i := range spec.Timeline {
		ev := &spec.Timeline[i]
		switch ev.Kind {
		case EventChaos, EventAdapt, EventCheckpoint, EventDegrade:
		default:
			continue
		}
		cut := spec.Fleet.Start.Add(ev.At)
		upTo := sort.Search(len(msgs), func(j int) bool { return !msgs[j].Time.Before(cut) })
		if err := feeder.send(msgs[cursor:upTo]); err != nil {
			return nil, err
		}
		cursor = upTo
		if err := feeder.drain(); err != nil {
			return nil, err
		}
		detail, err := execEvent(ev, st, so, rep)
		if err != nil {
			return nil, err
		}
		er := EventReport{At: ev.At.String(), Kind: ev.Kind, Detail: detail}
		rep.Events = append(rep.Events, er)
		rs.addEvent(er)
		logf("scenario %s: event %s at %s: %s", spec.Name, ev.Kind, ev.At, detail)
	}
	if err := feeder.send(msgs[cursor:]); err != nil {
		return nil, err
	}
	if err := feeder.drain(); err != nil {
		return nil, err
	}
	rs.setPhase("eval")

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

// execEvent runs one runner-side timeline event against the drained stack
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
		liveMsgs, _ := st.Monitor.Counters()
		liveWarn := st.Monitor.Warnings()
		if err := st.Checkpoint("scenario checkpoint event"); err != nil {
			return "", fmt.Errorf("scenario: checkpoint exhausted retries: %w", err)
		}
		rep.Serve.CheckpointSaves++
		// The restart: a second stack over the same options must resume
		// from the files exactly where the live monitor stands, serving
		// the generation Checkpoint saved beside the checkpoint.
		var restartLog bytes.Buffer
		probe := so
		probe.Faults, probe.Lifecycle = nil, nil
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
		parity := rMsgs == liveMsgs && warningsEqual(liveWarn, restarted.Monitor.Warnings())
		if !parity {
			rep.Serve.CheckpointParity = false
		}
		return fmt.Sprintf("saved+restored: messages=%d parity=%v", rMsgs, parity), nil
	case EventDegrade:
		mode := resilience.ModeNormal
		switch ev.DegradeMode {
		case "shed-learning":
			mode = resilience.ModeShedLearning
		case "shed-scoring":
			mode = resilience.ModeShedScoring
		}
		st.SetDegrade(mode, "scenario degrade event")
		return "mode=" + ev.DegradeMode, nil
	}
	return "", fmt.Errorf("scenario: unexpected runner event kind %q", ev.Kind)
}

// warningsEqual compares two warning sets ignoring order.
func warningsEqual(a, b []detect.Warning) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(w detect.Warning) string {
		return fmt.Sprintf("%s|%d|%d", w.VPE, w.Time.UnixNano(), w.Size)
	}
	counts := make(map[string]int, len(a))
	for _, w := range a {
		counts[key(w)]++
	}
	for _, w := range b {
		counts[key(w)]--
		if counts[key(w)] < 0 {
			return false
		}
	}
	return true
}

// wireFeeder pushes messages over the TCP listener with RFC 6587 octet
// framing, pacing so the shard queues can never overflow: after each chunk
// it waits until the server has accepted everything sent and the shard
// queues are empty. Zero drops is a harness invariant, not luck.
type wireFeeder struct {
	w    *bufio.Writer
	srv  *ingest.Server
	mon  *ingest.Monitor
	sent uint64
}

// chunkSize is well under DefaultShardQueue so even a pathological
// all-one-host chunk fits in a single shard queue.
const chunkSize = 256

func (f *wireFeeder) send(msgs []logfmt.Message) error {
	for i := range msgs {
		line := msgs[i].Format3164()
		if _, err := fmt.Fprintf(f.w, "%d %s", len(line), line); err != nil {
			return err
		}
		f.sent++
		if f.sent%chunkSize == 0 {
			if err := f.flushAndSettle(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushAndSettle waits until the server has consumed every sent frame and
// the shard queues are empty again.
func (f *wireFeeder) flushAndSettle() error {
	if err := f.w.Flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := f.srv.Stats()
		if st.Received+st.Malformed >= f.sent && f.mon.QueueFrac() == 0 {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("scenario: wire feed never settled: sent=%d stats=%+v", f.sent, f.srv.Stats())
}

// drain settles the wire and then waits for the monitor's processed count
// to go stable — chaos faults can wedge a worker for hundreds of ms, so
// the deadline is generous.
func (f *wireFeeder) drain() error {
	if err := f.flushAndSettle(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	stable := 0
	var last uint64
	for time.Now().Before(deadline) {
		msgs, _ := f.mon.Counters()
		if f.mon.QueueFrac() == 0 && msgs == last {
			stable++
			if stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		last = msgs
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("scenario: queues never drained: stats %+v", f.mon.Stats())
}
