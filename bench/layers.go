package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nn"
	"nfvpredict/internal/sigtree"
)

// parseAll decodes every served frame as the server's listener does.
func parseAll(fx *fixture) ([]logfmt.Message, time.Duration, error) {
	msgs := make([]logfmt.Message, fx.n())
	year := simStart.Year()
	t0 := time.Now()
	for i := range msgs {
		m, err := logfmt.Parse3164Bytes(fx.line(i), year)
		if err != nil {
			return nil, 0, fmt.Errorf("frame %d: %w", i, err)
		}
		msgs[i] = m
	}
	return msgs, time.Since(t0), nil
}

// outcome is what a run of the served range produced, in the form the
// oracle compares.
type outcome struct {
	messages, anomalies uint64
	warnings            []detect.Warning
}

func outcomeOf(mon *ingest.Monitor) outcome {
	var o outcome
	o.messages, o.anomalies = mon.Counters()
	o.warnings = mon.Warnings()
	return o
}

// equal compares counters and the warning multiset; order is ignored
// because shard workers interleave hosts.
func (o outcome) equal(ref outcome) error {
	if o.messages != ref.messages || o.anomalies != ref.anomalies {
		return fmt.Errorf("counters: got messages=%d anomalies=%d, reference messages=%d anomalies=%d",
			o.messages, o.anomalies, ref.messages, ref.anomalies)
	}
	if len(o.warnings) != len(ref.warnings) {
		return fmt.Errorf("warnings: got %d, reference %d", len(o.warnings), len(ref.warnings))
	}
	type key struct {
		vpe  string
		at   int64
		size int
	}
	seen := make(map[key]int, len(ref.warnings))
	for _, w := range ref.warnings {
		seen[key{w.VPE, w.Time.UnixNano(), w.Size}]++
	}
	for _, w := range o.warnings {
		k := key{w.VPE, w.Time.UnixNano(), w.Size}
		if seen[k] == 0 {
			return fmt.Errorf("warning %s at %s size %d is not in the reference", w.VPE, w.Time.Format(time.RFC3339), w.Size)
		}
		seen[k]--
	}
	return nil
}

// reference is the correctness oracle and ROADMAP depth (c): the messages
// through synchronous HandleMessage on a one-shard monitor wired as
// shipped. Per-host scoring is bit-identical on every path, so the wire run
// must reproduce its counters and warnings. atCut is the outcome after the
// first cut messages (update_adapt's wire run is only comparable up to its
// first adaptation cycle); with cut 0 it equals final.
func reference(fx *fixture, msgs []logfmt.Message, cut int) (atCut, final outcome, st ingest.MonitorStats, el time.Duration, err error) {
	s, err := newStack(fx, stackOpts{shards: 1, noServer: true, lifecycle: fx.w.adapt})
	if err != nil {
		return
	}
	defer s.close()
	t0 := time.Now()
	for i := range msgs[:cut] {
		s.mon.HandleMessage(msgs[i])
	}
	el = time.Since(t0)
	atCut = outcomeOf(s.mon)
	t0 = time.Now()
	for i := cut; i < len(msgs); i++ {
		s.mon.HandleMessage(msgs[i])
	}
	el += time.Since(t0)
	final = outcomeOf(s.mon)
	if cut == 0 {
		atCut = final
	}
	return atCut, final, s.mon.Stats(), el, nil
}

// verdicts replays the monitor's threshold check and §5.1 rule (a warning
// once a vPE shows MinClusterSize anomalies no more than ClusterWindow
// apart) outside the monitor, so the layer replay has a verdict stage and
// its warnings can be held against the reference.
type verdicts struct {
	threshold float64
	hosts     map[string]*hostCluster
	out       outcome
}

type hostCluster struct {
	first, last time.Time
	size        int
	reported    bool
}

func (v *verdicts) observe(host string, at time.Time, score float64) {
	v.out.messages++
	if score <= v.threshold {
		return
	}
	v.out.anomalies++
	c := v.hosts[host]
	if c == nil || at.Sub(c.last) > detect.DefaultClusterWindow {
		v.hosts[host] = &hostCluster{first: at, last: at, size: 1}
		return
	}
	c.last = at
	c.size++
	if c.size >= detect.DefaultMinClusterSize && !c.reported {
		c.reported = true
		v.out.warnings = append(v.out.warnings, detect.Warning{VPE: host, Time: c.first, Size: c.size})
	}
}

// span is one bench-side span: the calls into one layer for one message.
// Spans of a message share Trace; Parent is the message's own span.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceEvery is the traced replay's sampling: one message in 64 carries
// spans, which keeps the clock reads from dominating 15 ns stages.
const traceEvery = 64

// replayResult is the single-goroutine layer replay of one pass.
type replayResult struct {
	parse, prepare, learn, push, verdict, total time.Duration
	templates, newTemplates, syms               int
	out                                         outcome
	spans                                       []span
}

// replay runs the served range through the public functions the monitor
// calls, on one goroutine. Untraced, each stage runs over the whole array
// between one pair of clock reads (per-host order is kept, which is all
// the stages depend on), so a 15 ns stage is not timed by a 25 ns clock.
// Traced, the stages interleave per message as they do in the monitor and
// one message in traceEvery records a span per stage.
func replay(fx *fixture, traced bool) (*replayResult, error) {
	b, err := bundle.Load(bytes.NewReader(fx.bundle))
	if err != nil {
		return nil, err
	}
	n := fx.n()
	r := &replayResult{}
	tree := b.Tree
	before := tree.Len()
	year := simStart.Year()
	streams := make(map[string]*detect.LSTMStream)
	streamFor := func(host string) *detect.LSTMStream {
		st, ok := streams[host]
		if !ok {
			if det := b.DetectorFor(host); det != nil {
				st = det.NewStream()
			}
			streams[host] = st
		}
		return st
	}
	vd := &verdicts{threshold: b.Threshold, hosts: make(map[string]*hostCluster)}
	var tb sigtree.TokenBuf
	learn := func(text string, syms []uint32, ok bool) int {
		if ok {
			return tree.LearnSyms(syms).ID
		}
		return tree.LearnTokens(sigtree.PrepareTokens(text)).ID
	}

	start := time.Now()
	if traced {
		var syms []uint32
		for i := 0; i < n; i++ {
			rec := i%traceEvery == 0
			var t [6]time.Time
			if rec {
				t[0] = time.Now()
			}
			m, err := logfmt.Parse3164Bytes(fx.line(i), year)
			if err != nil {
				return nil, fmt.Errorf("frame %d: %w", i, err)
			}
			if rec {
				t[1] = time.Now()
			}
			var ok bool
			syms, ok = tree.AppendSyms(syms[:0], m.Text, &tb)
			if rec {
				t[2] = time.Now()
			}
			tpl := learn(m.Text, syms, ok)
			if rec {
				t[3] = time.Now()
			}
			var score float64
			st := streamFor(m.Host)
			if st != nil {
				score = st.Push(features.Event{Time: m.Time, Template: tpl})
			}
			if rec {
				t[4] = time.Now()
			}
			if st != nil {
				vd.observe(m.Host, m.Time, score)
			}
			if rec {
				t[5] = time.Now()
				id := len(r.spans) + 1
				ns := func(x time.Time) int64 { return int64(x.Sub(start)) }
				r.spans = append(r.spans, span{Trace: i + 1, ID: id, Name: "message", StartNS: ns(t[0]), EndNS: ns(t[5])})
				for k, name := range []string{"parse", "prepare", "learn", "push", "verdict"} {
					r.spans = append(r.spans, span{Trace: i + 1, ID: id + 1 + k, Parent: id, Name: name, StartNS: ns(t[k]), EndNS: ns(t[k+1])})
				}
			}
		}
	} else {
		msgs, el, err := parseAll(fx)
		if err != nil {
			return nil, err
		}
		r.parse = el

		var arena []uint32
		off := make([]int, n+1)
		ok := make([]bool, n)
		t0 := time.Now()
		for i := range msgs {
			off[i] = len(arena)
			arena, ok[i] = tree.AppendSyms(arena, msgs[i].Text, &tb)
		}
		off[n] = len(arena)
		r.prepare = time.Since(t0)

		tpls := make([]int, n)
		t0 = time.Now()
		for i := range msgs {
			tpls[i] = learn(msgs[i].Text, arena[off[i]:off[i+1]], ok[i])
		}
		r.learn = time.Since(t0)

		sts := make([]*detect.LSTMStream, n)
		for i := range msgs {
			sts[i] = streamFor(msgs[i].Host)
		}
		scores := make([]float64, n)
		t0 = time.Now()
		for i := range msgs {
			if sts[i] != nil {
				scores[i] = sts[i].Push(features.Event{Time: msgs[i].Time, Template: tpls[i]})
			}
		}
		r.push = time.Since(t0)

		t0 = time.Now()
		for i := range msgs {
			if sts[i] != nil {
				vd.observe(msgs[i].Host, msgs[i].Time, scores[i])
			}
		}
		r.verdict = time.Since(t0)
	}
	r.total = time.Since(start)
	r.templates = tree.Len()
	r.newTemplates = tree.Len() - before
	r.syms = tree.SymCount()
	r.out = vd.out
	// The monitor counts a message before it looks for the host's model;
	// the replay only reaches observe with one.
	r.out.messages = uint64(n)
	return r, nil
}

// writeSpans writes the traced replay's spans under the benchmark's own
// out/ directory.
func writeSpans(dir, name string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+name+".json")
	data, err := json.Marshal(map[string]any{
		"workload":     name,
		"seed":         seed,
		"sample_every": traceEvery,
		"clock":        "ns since the traced replay started",
		"spans":        spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// countSink is the bench-owned ShardSink behind ingest_server.null_sink:
// it takes every message and signals when the last has arrived.
type countSink struct {
	n      atomic.Int64
	target int64
	done   chan struct{}
}

func (c *countSink) Enqueue(logfmt.Message) bool {
	if c.n.Add(1) == c.target {
		close(c.done)
	}
	return true
}

// nullSinkRate is loopback → ingest.Server → a sink that only counts:
// transport, framing and parse with nothing behind them.
func nullSinkRate(fx *fixture, passes int) (float64, error) {
	sink := &countSink{target: int64(passes * fx.n()), done: make(chan struct{})}
	s, err := newStack(fx, stackOpts{sink: sink})
	if err != nil {
		return 0, err
	}
	defer s.close()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		if _, err := s.w.Write(fx.frames); err != nil {
			return 0, err
		}
	}
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	select {
	case <-sink.done:
	case <-time.After(drainDeadline):
		return 0, fmt.Errorf("null sink saw %d of %d frames", sink.n.Load(), sink.target)
	}
	return float64(sink.target) / time.Since(t0).Seconds(), nil
}

// enqueueRate is ROADMAP depth (b): parsed messages into Monitor.Enqueue
// from one goroutine, at most window awaiting a verdict.
func enqueueRate(fx *fixture, msgs []logfmt.Message) (float64, error) {
	done := make(chan struct{}, window)
	s, err := newStack(fx, stackOpts{noServer: true, done: done})
	if err != nil {
		return 0, err
	}
	s.mon.Start()
	defer s.close()
	g := &generator{fx: fx, s: s, done: done}
	t0 := time.Now()
	for i := range msgs {
		g.reap()
		if g.inflight >= window {
			if err := g.await(); err != nil {
				return 0, err
			}
		}
		if !s.mon.Enqueue(msgs[i]) {
			return 0, fmt.Errorf("shard queue refused message %d with %d in flight", i, g.inflight)
		}
		g.inflight++
	}
	for g.inflight > 0 {
		if err := g.await(); err != nil {
			return 0, err
		}
	}
	return float64(len(msgs)) / time.Since(t0).Seconds(), nil
}

// stepCosts times the inference kernels alone at the served shape:
// StepLogProbs on one stream, and a 16-lane PushBatch.
func stepCosts(fx *fixture, steps int) (stepNS, batchLaneNS float64, err error) {
	b, err := bundle.Load(bytes.NewReader(fx.bundle))
	if err != nil {
		return 0, 0, err
	}
	var det *detect.LSTMDetector
	for _, d := range b.Detectors {
		if d.Model() != nil {
			det = d
			break
		}
	}
	if det == nil {
		return 0, 0, fmt.Errorf("no trained detector in the bundle")
	}
	m := det.Model()
	st := m.NewStreamState()
	vocab := len(m.StepLogProbs(nn.Token{Gap: 60}, st))
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		m.StepLogProbs(nn.Token{ID: i % vocab, Gap: 60}, st)
	}
	stepNS = float64(time.Since(t0).Nanoseconds()) / float64(steps)

	const lanes = ingest.DefaultMaxBatch
	streams := make([]*detect.LSTMStream, lanes)
	for i := range streams {
		streams[i] = det.NewStream()
	}
	events := make([]features.Event, lanes)
	scores := make([]float64, lanes)
	var sb detect.StreamBatch
	templates := b.Tree.Len()
	at := simStart
	rounds := steps / lanes
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		at = at.Add(time.Minute)
		for l := range events {
			events[l] = features.Event{Time: at, Template: (r*lanes + l) % templates}
		}
		detect.PushBatch(&sb, streams, events, scores)
	}
	batchLaneNS = float64(time.Since(t0).Nanoseconds()) / float64(rounds*lanes)
	return stepNS, batchLaneNS, nil
}
