package ingest

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/sigtree"
)

// shard owns a disjoint subset of the fleet's hosts: their LSTM scoring
// streams, anomaly clusters, and LRU slice. Host → shard assignment is a
// stable hash of the hostname (shardFor), so one host's messages always land
// on the same shard and its recurrent state is only ever touched under that
// shard's mutex — single-writer discipline without a global lock.
//
// Everything mutable per host lives behind sh.mu. The only state shared
// across shards is the signature tree (template IDs are global; guarded by
// Monitor.treeMu), the warning history (Monitor.warnMu), and the atomic
// counters, each with its own narrow lock or none at all.
type shard struct {
	m  *Monitor
	id int

	// queue feeds the shard's worker in async mode (Enqueue/Start). It is
	// bounded: when full, Enqueue refuses the message and the caller counts
	// the drop — backpressure never blocks a network listener.
	queue chan logfmt.Message
	// depth mirrors len(queue) for scraping; nil when unmetered.
	depth *obs.Gauge

	// hb is the worker's liveness stamp, beaten once per loop turn; the
	// watchdog reads it. gen is the worker generation: the watchdog bumps
	// it when abandoning a wedged worker, and a worker whose generation no
	// longer matches self-retires at its next loop turn.
	hb  resilience.Heartbeat
	gen atomic.Uint64

	mu sync.Mutex
	// resolve/clusterOf/threshold are the swappable serving parameters.
	// SwapModel/SetClusterOf update them on every shard under lockAll, so a
	// hot reload is atomic across the fleet: no message scores against the
	// new model with the old threshold or vice versa.
	resolve   func(host string) *detect.LSTMDetector
	clusterOf func(host string) int
	threshold float64
	maxHosts  int
	hosts     map[string]*list.Element
	lru       *list.List // of *hostState; front = most recently seen

	// waveGen stamps hostState.mark during batch wave scheduling. Guarded
	// by mu (only touched inside processBatchLocked).
	waveGen uint64

	// tb is the synchronous path's tokenize scratch (handleLocked): the
	// symbol and lowercase buffers grow once and are reused per message.
	// Guarded by mu like the rest of the per-shard state; the async path
	// uses the worker-owned batchBuf scratch instead.
	tb sigtree.TokenBuf
}

// batchBuf is one worker incarnation's scratch for batched scoring. It is
// owned by the worker, not the shard: a watchdog replacement can briefly
// overlap the wedged worker it supersedes, and the queue-drain phase of
// consume runs outside the shard mutex, so shared scratch would race. All
// slices grow to the configured MaxBatch once and are reused; after
// warm-up a batch allocates only when the signature tree grows a new
// template.
type batchBuf struct {
	msgs []logfmt.Message
	// syms is one arena of prepared symbols for the whole batch; symOff
	// holds B+1 offsets into it (message i's symbols are
	// syms[symOff[i]:symOff[i+1]]). symOK marks messages whose prepare
	// succeeded on the interned path; the rest fall back to strings.
	syms   []uint32
	symOff []int
	symOK  []bool
	tb     sigtree.TokenBuf

	tpls    []int
	hss     []*hostState
	done    []bool
	lanes   []int
	streams []*detect.LSTMStream
	events  []features.Event
	scores  []float64
	sps     []spanInfo
	sb      detect.StreamBatch
}

// spanInfo is per-message span scratch threaded through the locked scoring
// path: the stage timeline segments measured upstream of the verdict.
// Every field (scoreEnd included) is filled only for sampled messages —
// the latency SLO is sample-aligned, so the 15-in-16 unsampled path pays
// no clock reads at all (the ≤5% overhead gate depends on this).
type spanInfo struct {
	queueNS   int64
	sigtreeNS int64
	batchNS   int64
	scoreNS   int64
	scoreEnd  time.Time
}

// handleLocked ingests one message. Caller holds sh.mu. sp carries the
// span stage clocks measured so far (never nil; zero when untraced).
func (sh *shard) handleLocked(msg logfmt.Message, sp *spanInfo) {
	m := sh.m
	m.messages.Inc()
	sampled := msg.Trace.Sampled
	t0 := m.learnSeconds.Start()
	var s0 time.Time
	if sampled {
		// Stage boundaries on this path are contiguous, so the stages sum
		// to the span total by construction: queue runs from accept to
		// here (the lock wait, minus the decode time attributed upstream),
		// sigtree ends where score starts (hostFor counts into it), and
		// verdict runs from score end to the span's emit.
		s0 = time.Now()
		sp.queueNS = int64(s0.Sub(msg.Trace.Accept)) - msg.Trace.DecodeNS
	}
	// m.tree is stable while sh.mu is held: SwapModel replaces it only
	// with every shard mutex locked, so the unlocked pointer read cannot
	// race, and prepare — which touches only the tree's lock-free symbol
	// table — runs outside treeMu against the same tree learn will use.
	tree := m.tree
	var tpl *sigtree.Template
	if syms, ok := tree.PrepareSyms(msg.Text, &sh.tb); ok {
		m.treeMu.Lock()
		tpl = tree.LearnSyms(syms)
		m.treeMu.Unlock()
	} else {
		// Symbol table full: legacy string path, identical semantics.
		toks := sigtree.PrepareTokens(msg.Text)
		m.treeMu.Lock()
		tpl = tree.LearnTokens(toks)
		m.treeMu.Unlock()
	}
	m.learnSeconds.ObserveDuration(t0)
	if m.DegradeMode() == resilience.ModeShedScoring {
		// Shed-scoring: the template was learned (the tree stays warm for
		// recovery), the faulting scoring path is bypassed.
		m.shedMessages.Inc()
		return
	}
	hs := sh.hostFor(msg.Host)
	if hs == nil {
		return // no model for this host yet
	}
	var p0 time.Time
	if sampled {
		p0 = time.Now()
		sp.sigtreeNS = int64(p0.Sub(s0))
	}
	score := hs.stream.Push(features.Event{Time: msg.Time, Template: tpl.ID})
	if sampled {
		sp.scoreEnd = time.Now()
		sp.scoreNS = int64(sp.scoreEnd.Sub(p0))
	}
	sh.afterScore(msg, tpl.ID, hs, score, sp)
}

// afterScore is everything downstream of a score: the score histogram, the
// trace context ring, the threshold check, anomaly clustering, the OnScored
// hook, the decision trace, the latency SLO, and the decision span. Caller
// holds sh.mu.
func (sh *shard) afterScore(msg logfmt.Message, tplID int, hs *hostState, score float64, sp *spanInfo) {
	m := sh.m
	if msg.Trace.Sampled {
		m.scoreHist.ObserveExemplar(score, obs.SpanID(msg.Trace.ID))
	} else {
		m.scoreHist.Observe(score)
	}
	if m.cfg.Traces != nil {
		hs.record(obs.TraceStep{Time: msg.Time, Template: tplID, LogProb: -score})
	}
	anomalous := score > sh.threshold
	size, warned := 0, false
	if anomalous {
		m.anoms.Inc()
		size, warned = sh.observeAnomaly(hs, msg.Time)
	}
	if m.cfg.OnScored != nil {
		m.cfg.OnScored(msg.Host, sh.clusterIndex(msg.Host),
			features.Event{Time: msg.Time, Template: tplID}, score, anomalous,
			anomalous && size >= m.cfg.MinClusterSize)
	}
	if anomalous && m.cfg.Traces != nil {
		cluster := -1
		if sh.clusterOf != nil {
			cluster = sh.clusterOf(msg.Host)
		}
		m.cfg.Traces.Add(obs.Trace{
			Time:        msg.Time,
			Host:        msg.Host,
			Cluster:     cluster,
			Model:       hs.model,
			Template:    tplID,
			Score:       score,
			Threshold:   sh.threshold,
			Window:      hs.window(),
			ClusterSize: size,
			Warning:     warned,
		})
	}
	sh.finishSpan(&msg, tplID, score, anomalous, warned, sp)
}

// finishSpan records the latency SLO event and emits the decision span for
// one traced verdict. Sampled messages get the full stage breakdown and a
// verdict stage measured from scoreEnd to now; an unsampled warning still
// emits a span (always-sample-on-warning) carrying the total only, since
// its stage clocks were never started. Caller holds sh.mu.
func (sh *shard) finishSpan(msg *logfmt.Message, tplID int, score float64, anomalous, warned bool, sp *spanInfo) {
	m := sh.m
	tr := &msg.Trace
	if tr.ID == 0 {
		return
	}
	if tr.Sampled {
		// The latency objective rides the sampling decision: 1-in-N
		// verdicts are measured, which keeps the unsampled hot path free
		// of clock reads and still feeds the burn windows thousands of
		// events per minute at serving rates.
		m.cfg.LatencySLO.Record(sp.scoreEnd.Sub(tr.Accept) <= m.cfg.LatencyBound)
	}
	if m.cfg.Tracer == nil || (!tr.Sampled && !warned) {
		return
	}
	s := obs.Span{
		TraceID:   obs.SpanID(tr.ID),
		Kind:      obs.KindDecision,
		Time:      tr.Accept,
		Host:      msg.Host,
		Template:  tplID,
		Score:     score,
		Anomalous: anomalous,
		Warning:   warned,
		Sampled:   tr.Sampled,
	}
	if tr.Sampled {
		end := time.Now()
		s.Stages = obs.StageDurations{
			DecodeNS:  tr.DecodeNS,
			QueueNS:   sp.queueNS,
			SigtreeNS: sp.sigtreeNS,
			BatchNS:   sp.batchNS,
			ScoreNS:   sp.scoreNS,
			VerdictNS: int64(end.Sub(sp.scoreEnd)),
		}
		s.TotalNS = int64(end.Sub(tr.Accept))
	} else {
		s.TotalNS = int64(time.Since(tr.Accept))
	}
	m.cfg.Tracer.Emit(s)
}

// clusterIndex maps a host to its model cluster for the OnScored hook:
// ClusterOf when set, clamped to 0 for unmapped hosts (which the resolver
// also routes to cluster 0's detector). Caller holds sh.mu.
func (sh *shard) clusterIndex(host string) int {
	if sh.clusterOf != nil {
		if ci := sh.clusterOf(host); ci >= 0 {
			return ci
		}
	}
	return 0
}

// hostFor returns the (possibly new) state for host, refreshing its LRU
// position and evicting the coldest host when over the shard's share of the
// cap. It returns nil when no detector serves the host yet. Caller holds
// sh.mu.
func (sh *shard) hostFor(host string) *hostState {
	m := sh.m
	if el, ok := sh.hosts[host]; ok {
		sh.lru.MoveToFront(el)
		hs := el.Value.(*hostState)
		hs.seq = m.seq.Add(1)
		return hs
	}
	det := sh.resolve(host)
	if det == nil {
		return nil
	}
	st := det.NewStream()
	if st == nil {
		return nil // detector not trained yet
	}
	hs := &hostState{host: host, model: det.Name(), stream: st, seq: m.seq.Add(1)}
	if m.cfg.Traces != nil {
		hs.recent = make([]obs.TraceStep, m.cfg.TraceWindow)
	}
	sh.hosts[host] = sh.lru.PushFront(hs)
	for sh.lru.Len() > sh.maxHosts {
		oldest := sh.lru.Back()
		old := oldest.Value.(*hostState)
		sh.lru.Remove(oldest)
		delete(sh.hosts, old.host)
		m.evicted.Inc()
		m.hostCount.Add(-1)
	}
	m.hostCount.Add(1)
	m.activeHosts.SetInt(int(m.hostCount.Load()))
	return hs
}

// observeAnomaly advances the host's cluster state, emitting a warning when
// a cluster reaches the minimum size (once per cluster). The warning list
// and callback are shared across shards and serialized under warnMu. Caller
// holds sh.mu.
func (sh *shard) observeAnomaly(hs *hostState, at time.Time) (size int, warned bool) {
	m := sh.m
	cs := hs.cluster
	if cs == nil || at.Sub(cs.last) > m.cfg.ClusterWindow {
		hs.cluster = &clusterState{first: at, last: at, size: 1}
		return 1, false
	}
	cs.last = at
	cs.size++
	if cs.size >= m.cfg.MinClusterSize && !cs.reported {
		cs.reported = true
		w := detect.Warning{VPE: hs.host, Time: cs.first, Size: cs.size}
		m.warnMu.Lock()
		m.warnings = append(m.warnings, w)
		m.warningsC.Inc()
		if m.onWarning != nil {
			m.onWarning(w)
		}
		m.warnMu.Unlock()
		return cs.size, true
	}
	return cs.size, false
}

// runOnce is one incarnation of the shard worker: it drains the queue into
// batches until stop (then drains what is left), the shard's generation
// moves past gen (a watchdog replacement took over), or a panic escapes —
// in which case it reports abnormal=true and the supervisor loop in
// Monitor.spawnWorker restarts it with backoff. The stop channel is
// captured at start so a Stop/Start cycle cannot race a worker onto a
// stale channel. An escaped panic here (the shard.worker/shard.score fault
// points, or a bug the per-batch recover in consume cannot see) counts
// into shardPanics: it is a scoring-path fault either way, and the
// degradation controller keys off that counter.
func (sh *shard) runOnce(stop <-chan struct{}, gen uint64) (abnormal bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.m.shardPanics.Inc()
			abnormal = true
		}
	}()
	var b batchBuf // worker-owned scratch; see batchBuf
	for {
		if sh.gen.Load() != gen {
			return false // superseded by a watchdog replacement
		}
		sh.hb.Beat()
		if err := sh.m.fpWorker.Fire(); err != nil {
			return true // injected worker crash; no message was dequeued
		}
		select {
		case msg := <-sh.queue:
			sh.consume(&b, msg)
		case <-stop:
			for {
				select {
				case msg := <-sh.queue:
					sh.consume(&b, msg)
				default:
					return false
				}
			}
		}
	}
}

// consume gathers up to MaxBatch queued messages starting with first and
// scores them as one batch. A panic while scoring (a poisoned message, a
// bug in a hot-swapped model) loses that batch, is counted, and leaves the
// worker — and the other shards — running.
func (sh *shard) consume(b *batchBuf, first logfmt.Message) {
	b.msgs = append(b.msgs[:0], first)
drain:
	for len(b.msgs) < sh.m.cfg.MaxBatch {
		select {
		case msg := <-sh.queue:
			b.msgs = append(b.msgs, msg)
		default:
			break drain
		}
	}
	if sh.depth != nil {
		sh.depth.SetInt(len(sh.queue))
	}
	// The shard.score fault point fires before the lock on purpose: its
	// slow mode must wedge this worker *outside* the shard mutex, so the
	// watchdog's replacement worker can make progress instead of queueing
	// behind the stuck one. Its panic mode escapes to runOnce's recover.
	if err := sh.m.fpScore.Fire(); err != nil {
		sh.m.shardPanics.Inc() // injected scoring fault; the batch is lost
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			sh.m.shardPanics.Inc()
		}
	}()
	sh.processBatchLocked(b)
}

// processBatchLocked scores a batch of same-shard messages. Three phases:
//
//  1. Template every message — tokenization (pure) runs outside the tree
//     lock, then one treeMu section learns all tokens, so B messages cost
//     one global lock acquisition instead of B.
//  2. Resolve host states in arrival order (LRU touches and seq stamps
//     happen here, in the same order a sequential run would make them).
//  3. Wave scheduling: a host's steps are inherently sequential (the LSTM
//     recurrence), so each wave takes at most one message per host, scores
//     the wave in one PushBatch, and repeats until the batch is dry.
//     Per-lane arithmetic is bit-identical to the sequential path.
//
// Caller holds sh.mu.
//
// Span stage clocks on this path are batch-shared: the sigtree section is
// on every batch member's critical path (they all wait on it), so its full
// duration counts into each sampled message's SigtreeNS; a lane's BatchNS
// is the gap from sigtree end to its own inference wave starting, and its
// ScoreNS is that wave's PushBatch duration. All clock reads are per batch
// or per wave — never per message — and skipped entirely when no message
// in the batch is traced.
func (sh *shard) processBatchLocked(b *batchBuf) {
	m := sh.m
	msgs := b.msgs
	B := len(msgs)
	b.tpls = growInts(b.tpls, B)
	b.hss = growHosts(b.hss, B)
	b.done = growBools(b.done, B)
	b.sps = growSpans(b.sps, B)
	traced := false
	for i := range msgs {
		b.sps[i] = spanInfo{}
		if msgs[i].Trace.ID != 0 {
			traced = true
		}
	}
	var batchStart time.Time
	if traced {
		batchStart = time.Now()
		for i := range msgs {
			if tr := &msgs[i].Trace; tr.Sampled {
				// Queue wait: accept → the shard holding the batch, minus
				// the decode time already attributed upstream.
				b.sps[i].queueNS = int64(batchStart.Sub(tr.Accept)) - tr.DecodeNS
			}
		}
	}
	// Prepare the whole batch into one symbol arena outside treeMu (the
	// tree pointer is stable under sh.mu; see handleLocked), then learn
	// every message in a single treeMu section on integer compares.
	tree := m.tree
	b.syms = b.syms[:0]
	b.symOff = growInts(b.symOff, B+1)
	b.symOK = growBools(b.symOK, B)
	for i := range msgs {
		b.symOff[i] = len(b.syms)
		b.syms, b.symOK[i] = tree.AppendSyms(b.syms, msgs[i].Text, &b.tb)
	}
	b.symOff[B] = len(b.syms)
	t0 := m.learnSeconds.Start()
	m.treeMu.Lock()
	for i := range msgs {
		if b.symOK[i] {
			b.tpls[i] = tree.LearnSyms(b.syms[b.symOff[i]:b.symOff[i+1]]).ID
		} else {
			// Symbol table full: string path for this message only.
			b.tpls[i] = tree.LearnTokens(sigtree.PrepareTokens(msgs[i].Text)).ID
		}
	}
	m.treeMu.Unlock()
	m.learnSeconds.ObserveDuration(t0)
	var sigEnd time.Time
	if traced {
		sigEnd = time.Now()
		sigNS := int64(sigEnd.Sub(batchStart))
		for i := range msgs {
			if msgs[i].Trace.Sampled {
				b.sps[i].sigtreeNS = sigNS
			}
		}
	}
	m.messages.Add(uint64(B))
	if m.DegradeMode() == resilience.ModeShedScoring {
		m.shedMessages.Add(uint64(B))
		return
	}

	left := 0
	for i := range msgs {
		b.hss[i] = sh.hostFor(msgs[i].Host)
		b.done[i] = b.hss[i] == nil
		if !b.done[i] {
			left++
		}
	}
	for left > 0 {
		sh.waveGen++
		b.lanes = b.lanes[:0]
		for i := range msgs {
			if b.done[i] || b.hss[i].mark == sh.waveGen {
				continue
			}
			b.hss[i].mark = sh.waveGen
			b.lanes = append(b.lanes, i)
		}
		L := len(b.lanes)
		b.streams = growStreams(b.streams, L)
		b.events = growEvents(b.events, L)
		b.scores = growFloats(b.scores, L)
		for k, i := range b.lanes {
			b.streams[k] = b.hss[i].stream
			b.events[k] = features.Event{Time: msgs[i].Time, Template: b.tpls[i]}
		}
		var waveStart time.Time
		if traced {
			waveStart = time.Now()
		}
		detect.PushBatch(&b.sb, b.streams[:L], b.events[:L], b.scores[:L])
		if traced {
			waveEnd := time.Now()
			for _, i := range b.lanes {
				sp := &b.sps[i]
				sp.scoreEnd = waveEnd
				if msgs[i].Trace.Sampled {
					sp.batchNS = int64(waveStart.Sub(sigEnd))
					sp.scoreNS = int64(waveEnd.Sub(waveStart))
				}
			}
		}
		for k, i := range b.lanes {
			sh.afterScore(msgs[i], b.tpls[i], b.hss[i], b.scores[k], &b.sps[i])
			b.done[i] = true
		}
		left -= L
	}
}

// The grow helpers resize reusable scratch slices without reallocating once
// capacity suffices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growHosts(s []*hostState, n int) []*hostState {
	if cap(s) < n {
		return make([]*hostState, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growStreams(s []*detect.LSTMStream, n int) []*detect.LSTMStream {
	if cap(s) < n {
		return make([]*detect.LSTMStream, n)
	}
	return s[:n]
}

func growEvents(s []features.Event, n int) []features.Event {
	if cap(s) < n {
		return make([]features.Event, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growSpans(s []spanInfo, n int) []spanInfo {
	if cap(s) < n {
		return make([]spanInfo, n)
	}
	return s[:n]
}
