package ingest

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/sigtree"
)

// spanMonitorConfig wires a full tracing+SLO observability stack into a
// monitor config: sample-everything tracer, a generous latency SLO, and a
// registry for exemplar inspection.
func spanMonitorConfig(t *testing.T, sampleM int) (MonitorConfig, *obs.Registry, *obs.SpanRing, *obs.SLO) {
	t.Helper()
	reg := obs.NewRegistry()
	ring := obs.NewSpanRing(1024)
	n := 1
	if sampleM <= 0 {
		n, sampleM = 0, 1
	}
	tracer := obs.NewTracer(ring, n, sampleM)
	tracer.Export(reg)
	lat := obs.NewSLO(obs.SLOConfig{Name: "accept_verdict_latency", Target: 0.99})
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.Metrics = reg
	mcfg.Tracer = tracer
	mcfg.LatencySLO = lat
	mcfg.LatencyBound = 5 * time.Second
	return mcfg, reg, ring, lat
}

// TestMonitorDecisionSpansSync drives HandleMessage (a drain of one) with
// sample-everything tracing and checks the acceptance criteria end to end:
// every message gets a decision span, sampled stage durations sum to the
// span total within 1%, the warning verdict's span is marked, the handle
// histogram carries an exemplar whose trace ID resolves in the span ring,
// and the latency SLO saw every verdict.
func TestMonitorDecisionSpansSync(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	mcfg, reg, ring, lat := spanMonitorConfig(t, 1)
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)

	msgs := monitorTraffic([]string{"vpe01", "vpe02"}, 40)
	for _, m := range msgs {
		mon.HandleMessage(m)
	}

	spans := ring.Query(obs.SpanQuery{})
	if len(spans) != len(msgs) {
		t.Fatalf("spans = %d, want one per message (%d)", len(spans), len(msgs))
	}
	var sumStages, sumTotal int64
	for _, s := range spans {
		if s.Kind != obs.KindDecision || !s.Sampled || s.TraceID == 0 {
			t.Fatalf("span shape: %+v", s)
		}
		if s.Host != "vpe01" && s.Host != "vpe02" {
			t.Fatalf("span host: %+v", s)
		}
		if s.TotalNS <= 0 || s.Stages.Sum() <= 0 {
			t.Fatalf("span clocks never ran: %+v", s)
		}
		if s.Stages.Sum() > s.TotalNS {
			t.Fatalf("stages exceed total: sum=%d total=%d", s.Stages.Sum(), s.TotalNS)
		}
		// A drain of one: no decode stage, and the only scored message of
		// its drain waits on no other member.
		if s.Stages.DecodeNS != 0 || s.Stages.BatchNS != 0 || s.Stages.CheckpointNS != 0 {
			t.Fatalf("sync span carries async stages: %+v", s.Stages)
		}
		sumStages += s.Stages.Sum()
		sumTotal += s.TotalNS
	}
	// The stage decomposition must cover the accept→verdict latency. On
	// this path the stage boundaries are contiguous, so the named stages
	// account for all of it whatever the model costs; 99% leaves room for
	// a boundary that is not shared without going back to a ratio that
	// depends on how fast scoring is.
	if sumStages < sumTotal/100*99 {
		t.Fatalf("stages cover %d of %d ns (%.1f%%), want >= 99%%",
			sumStages, sumTotal, 100*float64(sumStages)/float64(sumTotal))
	}

	// The warning-tipping verdicts are marked on their spans.
	warned := ring.Query(obs.SpanQuery{WarningsOnly: true})
	if len(warned) == 0 {
		t.Fatal("no warning spans after anomaly bursts")
	}
	for _, s := range warned {
		if !s.Anomalous || !s.Warning || s.Score <= 4 {
			t.Fatalf("warning span verdict: %+v", s)
		}
	}

	// At least one histogram bucket exposes an exemplar, and its trace ID
	// resolves to a span in the ring — the /metrics → /spans link.
	checked := false
	for _, name := range []string{"monitor_handle_seconds", "monitor_score"} {
		h := reg.Histogram(name, "", nil)
		for _, e := range h.Exemplars() {
			if e == nil {
				continue
			}
			checked = true
			if got := ring.Query(obs.SpanQuery{TraceID: e.TraceID}); len(got) != 1 {
				t.Fatalf("exemplar trace %v resolves to %d spans", e.TraceID, len(got))
			}
		}
	}
	if !checked {
		t.Fatal("no exemplar landed on any histogram")
	}
	// The exemplar suffix shows up in the OpenMetrics exposition — and
	// only there: the 0.0.4 text parser has no exemplar syntax, so the
	// plain exposition must stay free of mid-line '#'.
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# {trace_id="`) {
		t.Fatal("OpenMetrics exposition carries no exemplar suffix")
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `# {trace_id="`) {
		t.Fatal("0.0.4 exposition leaked an exemplar suffix")
	}

	// Every verdict hit the latency SLO (generous bound: all good).
	st := lat.Status()
	if st.Fast.Good != uint64(len(msgs)) || st.Fast.Bad != 0 {
		t.Fatalf("latency SLO saw %d good / %d bad, want %d / 0",
			st.Fast.Good, st.Fast.Bad, len(msgs))
	}
}

// TestMonitorWarningAlwaysSpanned pins always-sample-on-anomaly: with
// sampling off (n=0), routine verdicts emit no spans but every anomalous
// verdict, each warning among them, still gets one, carrying its
// explanation and the total latency without a stage breakdown.
func TestMonitorWarningAlwaysSpanned(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	mcfg, _, ring, _ := spanMonitorConfig(t, 0)
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)

	for _, m := range monitorTraffic([]string{"vpe01"}, 40) {
		mon.HandleMessage(m)
	}
	st := mon.Stats()
	if st.Warnings == 0 {
		t.Fatal("traffic produced no warnings")
	}
	spans := ring.Query(obs.SpanQuery{})
	if uint64(len(spans)) != st.Anomalies {
		t.Fatalf("%d spans with sampling off, %d anomalous verdicts", len(spans), st.Anomalies)
	}
	warned := 0
	for _, s := range spans {
		if !s.Anomalous || s.Explain == nil || s.Sampled {
			t.Fatalf("unsampled ring should hold only explained anomalous spans: %+v", s)
		}
		if s.TotalNS <= 0 {
			t.Fatalf("anomalous span without total: %+v", s)
		}
		if s.Stages.Sum() != 0 {
			t.Fatalf("unsampled span carries stages: %+v", s.Stages)
		}
		if s.Warning {
			warned++
		}
	}
	if uint64(warned) != st.Warnings {
		t.Fatalf("%d warning spans, %d warnings", warned, st.Warnings)
	}
}

// TestAsyncShardedSpans drives the shard workers with pre-minted trace
// contexts (as the ingest server would) and checks the span stream: one
// span per message, queue stages filled, stage sums within the coverage
// bound of totals, and scoring results identical to an untraced
// run (tracing must not perturb verdicts).
func TestAsyncShardedSpans(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03", "vpe04"}, 40)

	refCfg := DefaultMonitorConfig()
	refCfg.Threshold = 4
	ref := NewMonitorWithResolver(refCfg, cloneTree(t, tree), resolve, nil)
	for _, m := range msgs {
		ref.HandleMessage(m)
	}

	mcfg, _, ring, lat := spanMonitorConfig(t, 1)
	mcfg.Shards = 2
	async := NewMonitorWithResolver(mcfg, cloneTree(t, tree), resolve, nil)
	async.Start()
	tracer := mcfg.Tracer
	for _, m := range msgs {
		id, sampled := tracer.Accept()
		m.Trace = logfmt.TraceCtx{ID: uint64(id), Sampled: sampled, Accept: time.Now()}
		for !async.Enqueue(m) {
			time.Sleep(time.Millisecond)
		}
	}
	settle(t, async)
	async.Stop()

	ra, aa := ref.Stats(), async.Stats()
	if aa.Messages != uint64(len(msgs)) || ra.Anomalies != aa.Anomalies || ra.Warnings != aa.Warnings {
		t.Fatalf("traced async run diverged: ref=%+v async=%+v", ra, aa)
	}
	spans := ring.Query(obs.SpanQuery{})
	if len(spans) != len(msgs) {
		t.Fatalf("spans = %d, want %d", len(spans), len(msgs))
	}
	var sumStages, sumTotal int64
	for _, s := range spans {
		if !s.Sampled || s.TotalNS <= 0 {
			t.Fatalf("async span shape: %+v", s)
		}
		if s.Stages.Sum() > s.TotalNS {
			t.Fatalf("stages exceed total: %+v", s)
		}
		if s.Stages.QueueNS <= 0 {
			t.Fatalf("async span without queue wait: %+v", s.Stages)
		}
		sumStages += s.Stages.Sum()
		sumTotal += s.TotalNS
	}
	if sumStages < sumTotal*9/10 {
		t.Fatalf("stages cover %d of %d ns, want >= 90%%", sumStages, sumTotal)
	}
	if st := lat.Status(); st.Fast.Good+st.Fast.Bad != uint64(len(msgs)) {
		t.Fatalf("latency SLO saw %d events, want %d", st.Fast.Good+st.Fast.Bad, len(msgs))
	}
}

// TestHandleSecondsOnServedRoute pins monitor_handle_seconds to the route
// every deployment takes: with every message sampled, messages scored by the
// shard workers each land one observation, and the family's exemplars
// resolve in the span ring.
func TestHandleSecondsOnServedRoute(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg, reg, ring, _ := spanMonitorConfig(t, 1)
	mcfg.Shards = 2
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03"}, 30)
	for _, m := range msgs {
		id, sampled := mcfg.Tracer.Accept()
		m.Trace = logfmt.TraceCtx{ID: uint64(id), Sampled: sampled, Accept: time.Now()}
		if !mon.Enqueue(m) {
			t.Fatal("enqueue refused")
		}
	}
	mon.Start()
	mon.Stop()

	h := reg.Histogram("monitor_handle_seconds", "", nil)
	if h.Count() != uint64(len(msgs)) {
		t.Fatalf("monitor_handle_seconds count %d after %d sampled messages", h.Count(), len(msgs))
	}
	resolved := 0
	for _, e := range h.Exemplars() {
		if e == nil {
			continue
		}
		if got := ring.Query(obs.SpanQuery{TraceID: e.TraceID}); len(got) != 1 {
			t.Fatalf("exemplar trace %v resolves to %d spans", e.TraceID, len(got))
		}
		resolved++
	}
	if resolved == 0 {
		t.Fatal("monitor_handle_seconds carries no exemplar")
	}
}

// TestServerDropSLOAndTraceStamp drives the server's accept boundary as
// one datagram read would: a stopped monitor's full shard queue turns
// refusals into bad SLO events (flipping the drop objective's fast window
// at the read's flush), admissions into good ones, and every accepted
// message gets a trace context with its decode stage attributed.
func TestServerDropSLOAndTraceStamp(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	ring := obs.NewSpanRing(16)
	tracer := obs.NewTracer(ring, 1, 1)
	mcfg := DefaultMonitorConfig()
	mcfg.Shards = 1
	mcfg.Tracer = tracer
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	mon.capQueues(4)
	// Workers intentionally not started: the queue can only fill.

	drops := obs.NewSLO(obs.SLOConfig{Name: "shard_drop_ratio", Target: 0.99})
	cfg := DefaultServerConfig()
	cfg.Sharded = mon
	cfg.Tracer = tracer
	cfg.DropSLO = drops
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	w := &wireState{s: srv}
	w.stamp()
	for i := 0; i < 10; i++ {
		srv.enqueue([]byte(sampleLine(i)), w)
	}
	w.flush()
	st := drops.Status()
	if st.Fast.Good != 4 || st.Fast.Bad != 6 {
		t.Fatalf("drop SLO saw %d good / %d bad, want 4 / 6", st.Fast.Good, st.Fast.Bad)
	}
	// 60% bad over a 1% budget: far past the fast-burn threshold.
	if !drops.FastBurning() {
		t.Fatalf("drop burst did not flip the fast window: %+v", st.Fast)
	}

	// The queued messages carry stamped trace contexts; score one and the
	// span's decode stage is the listener-side parse time.
	mon.Start()
	settle(t, mon)
	mon.Stop()
	spans := ring.Query(obs.SpanQuery{})
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4 admitted messages", len(spans))
	}
	for _, s := range spans {
		if !s.Sampled || s.Stages.DecodeNS <= 0 || s.Stages.QueueNS <= 0 {
			t.Fatalf("server-stamped span lacks decode/queue stages: %+v", s.Stages)
		}
	}
}

// TestServerWireStampsAndFlushes sends a burst of octet-counted frames
// over one TCP connection that stays open, with every other message
// sampled. The listener batches drop-SLO events per socket read, so the
// objective's good count must reach Stats().Received without the
// connection closing; every span's total must run from a per-read accept
// stamp taken after the burst was sent; sampled spans must carry their
// decode stage, and unsampled warnings their total. A final unterminated
// line must still be counted once the peer closes.
func TestServerWireStampsAndFlushes(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg, _, ring, _ := spanMonitorConfig(t, 2)
	mcfg.Shards = 2
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	mon.Start()
	defer mon.Stop()

	drops := obs.NewSLO(obs.SLOConfig{Name: "shard_drop_ratio", Target: 0.99})
	cfg := DefaultServerConfig()
	cfg.Sharded = mon
	cfg.Tracer = mcfg.Tracer
	cfg.DropSLO = drops
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03", "vpe04"}, 40)
	var burst []byte
	for _, m := range msgs {
		line := m.Format3164()
		burst = fmt.Appendf(burst, "%d %s", len(line), line)
	}
	sent := time.Now()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	total := uint64(len(msgs))
	waitUntil(t, "the listener counts the burst", func() bool { return drops.Status().Fast.Good >= total })
	settle(t, mon)
	elapsed := time.Since(sent)
	if st, good := srv.Stats(), drops.Status().Fast.Good; st.Received != total || good != st.Received {
		t.Fatalf("open connection: drop SLO good %d, received %d of %d", good, st.Received, total)
	}

	var sampled, unsampledWarnings int
	for _, s := range ring.Query(obs.SpanQuery{}) {
		if s.TotalNS <= 0 || s.TotalNS > int64(elapsed) {
			t.Fatalf("span total %d ns outside (0, %d]: not measured from a read stamp: %+v", s.TotalNS, elapsed, s)
		}
		switch {
		case s.Sampled:
			sampled++
			if s.Stages.DecodeNS <= 0 || s.Stages.DecodeNS > s.TotalNS {
				t.Fatalf("sampled span decode_ns %d, total %d", s.Stages.DecodeNS, s.TotalNS)
			}
		case s.Warning:
			unsampledWarnings++
		}
	}
	if sampled != len(msgs)/2 || unsampledWarnings == 0 {
		t.Fatalf("spans: %d sampled of %d messages, %d unsampled warnings", sampled, len(msgs), unsampledWarnings)
	}

	// A last line without an LF is parsed after the read that hit EOF,
	// with no read after it: only the connection-end flush records it.
	if _, err := conn.Write([]byte(msgs[0].Format3164())); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitUntil(t, "the connection-end flush", func() bool { return drops.Status().Fast.Good > total })
	if st, good := srv.Stats(), drops.Status().Fast.Good; st.Received != total+1 || good != st.Received {
		t.Fatalf("closed connection: drop SLO good %d, received %d of %d", good, st.Received, total+1)
	}
}

// TestCheckpointSpan checks the checkpoint path emits its maintenance span.
func TestCheckpointSpan(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	mcfg, _, ring, _ := spanMonitorConfig(t, 1)
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)
	for _, m := range monitorTraffic([]string{"vpe01"}, 10) {
		mon.HandleMessage(m)
	}
	var buf bytes.Buffer
	if err := mon.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cks := ring.Query(obs.SpanQuery{Kind: obs.KindCheckpoint})
	if len(cks) != 1 {
		t.Fatalf("checkpoint spans = %d", len(cks))
	}
	s := cks[0]
	if !s.Sampled || s.TotalNS <= 0 || s.Stages.CheckpointNS != s.TotalNS {
		t.Fatalf("checkpoint span: %+v", s)
	}
}

// spanBenchMonitor builds the BenchmarkMonitorHandleMessage fixture (same
// tiny corpus and config), optionally with the production tracing stack
// attached: a 1-in-16 tracer and the latency SLO, the exact per-message
// cost -span-sample 16 adds in nfvmonitor.
func spanBenchMonitor(tb testing.TB, traced bool) (*Monitor, logfmt.Message) {
	tb.Helper()
	tree := sigtree.New()
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
	}
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	var stream []features.Event
	for i := 0; i < 400; i++ {
		tpl := tree.Learn(texts[i%2])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden = []int{16}
	cfg.MaxVocab = 8
	cfg.Epochs = 1
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		tb.Fatal(err)
	}
	mcfg := DefaultMonitorConfig()
	if traced {
		mcfg.Tracer = obs.NewTracer(obs.NewSpanRing(512), 1, 16)
		mcfg.LatencySLO = obs.NewSLO(obs.SLOConfig{Name: "accept_verdict_latency"})
		mcfg.LatencyBound = DefaultLatencyBound
	}
	mon := NewMonitor(mcfg, tree, det, nil)
	return mon, logfmt.Message{Time: base, Host: "vpe00", Tag: "rpd", Text: texts[0]}
}

// BenchmarkMonitorHandleMessageSpans is the traced twin of
// BenchmarkMonitorHandleMessage: the delta between the two is the span
// instrumentation's per-message overhead at the default 1-in-16 sampling
// rate (trace mint + accept clock read on every message; stage clocks, SLO
// record and handle observation on the sampled sixteenth), on a drain of
// one — where a drain's shared clocks are amortised over nothing.
// TestSpanOverhead gates the difference at spanBudgetNS.
func BenchmarkMonitorHandleMessageSpans(b *testing.B) {
	mon, msg := spanBenchMonitor(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Time = msg.Time.Add(time.Second)
		mon.HandleMessage(msg)
	}
}

// spanBudgetNS is what span instrumentation may add to one message scored
// through HandleMessage, which is a drain of one through shard.process, the
// function the shard workers run. The gate is the difference, not a ratio: the cost of
// a trace mint, a clock read and an SLO record does not depend on the
// model, while the 16-hidden fixture's step shrinks with every kernel PR
// and took a 5 % ratio gate past its limit with the span cost unchanged
// (≈105–140 ns on the build box).
const spanBudgetNS = 150

// TestSpanOverhead is the tracing-overhead gate: span instrumentation may
// cost at most spanBudgetNS per message. It drives the two HandleMessage
// benchmark fixtures (drains of one, the served function's worst case for
// per-drain costs) in short alternating chunks, so a slow spell of the
// machine hits both sides of a pair, and gates the median of the paired
// differences, which a minority of disturbed pairs cannot move; the ratio
// is logged for information. Benchmark-grade timing needs a quiet
// machine, so the gate only arms under NFV_SPAN_GATE=1 — `make ci` sets
// it.
func TestSpanOverhead(t *testing.T) {
	if os.Getenv("NFV_SPAN_GATE") != "1" {
		t.Skip("set NFV_SPAN_GATE=1 to run the span-overhead gate")
	}
	const pairs, chunk = 241, 5000
	type side struct {
		mon *Monitor
		msg logfmt.Message
	}
	var sides [2]*side // untraced, traced
	for i := range sides {
		mon, msg := spanBenchMonitor(t, i == 1)
		sides[i] = &side{mon, msg}
	}
	run := func(s *side) float64 {
		start := time.Now()
		for i := 0; i < chunk; i++ {
			s.msg.Time = s.msg.Time.Add(time.Second)
			s.mon.HandleMessage(s.msg)
		}
		return float64(time.Since(start).Nanoseconds()) / chunk
	}
	run(sides[0]) // warm both monitors
	run(sides[1])
	var ns [2][]float64
	diffs := make([]float64, pairs)
	for p := range diffs {
		first := p % 2 // alternate which side leads the pair
		a, b := run(sides[first]), run(sides[1-first])
		ns[first], ns[1-first] = append(ns[first], a), append(ns[1-first], b)
		diffs[p] = ns[1][p] - ns[0][p]
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return v[len(v)/2]
	}
	base, spans, diff := median(ns[0]), median(ns[1]), median(diffs)
	t.Logf("base %.0f ns/op, spans %.0f ns/op, overhead %.0f ns/message (%.2f%% of this fixture)",
		base, spans, diff, 100*diff/base)
	if diff > spanBudgetNS {
		t.Fatalf("span instrumentation costs %.0f ns/message (> %d): base %.0f ns/op, spans %.0f ns/op",
			diff, spanBudgetNS, base, spans)
	}
}

// TestConcurrentMetricsScrapeDuringScoring hammers /metrics rendering in
// both expositions (WriteOpenMetrics walks every histogram's exemplar
// pointers) while shard workers score traced traffic — the -race gate
// for the exemplar and span plumbing on the hot path.
func TestConcurrentMetricsScrapeDuringScoring(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	mcfg, reg, ring, _ := spanMonitorConfig(t, 2)
	mcfg.Shards = 2
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)
	mon.Start()

	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03"}, 30)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			buf.Reset()
			if err := reg.WriteOpenMetrics(&buf); err != nil {
				t.Error(err)
				return
			}
			ring.Query(obs.SpanQuery{N: 16})
			mon.Stats()
		}
	}()
	tracer := mcfg.Tracer
	for _, m := range msgs {
		id, sampled := tracer.Accept()
		m.Trace = logfmt.TraceCtx{ID: uint64(id), Sampled: sampled, Accept: time.Now()}
		for !mon.Enqueue(m) {
			time.Sleep(time.Millisecond)
		}
	}
	settle(t, mon)
	close(done)
	wg.Wait()
	mon.Stop()
	if mon.Stats().Messages != uint64(len(msgs)) {
		t.Fatalf("scored %d of %d under concurrent scrape", mon.Stats().Messages, len(msgs))
	}
}
