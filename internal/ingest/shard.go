package ingest

import (
	"container/list"
	"strings"
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

	// q feeds the shard's worker in async mode (Enqueue/Start). It is
	// bounded: when full it refuses the message and the caller counts the
	// drop — backpressure never blocks a network listener.
	q shardQueue

	// hb is the worker's liveness stamp, beaten once per loop turn; the
	// watchdog reads it. gen is the worker generation: the watchdog bumps
	// it when abandoning a wedged worker, and a worker whose generation no
	// longer matches self-retires at its next loop turn.
	hb  resilience.Heartbeat
	gen atomic.Uint64

	mu sync.Mutex
	// resolve/clusterOf/threshold are the swappable serving parameters.
	// SwapModel updates them on every shard under lockAll, so a
	// hot reload is atomic across the fleet: no message scores against the
	// new model with the old threshold or vice versa.
	resolve   func(host string) *detect.LSTMDetector
	clusterOf func(host string) int
	threshold float64
	maxHosts  int
	hosts     map[string]*list.Element
	lru       *list.List // of *hostState; front = most recently seen

	// sync is HandleMessage's drain of one: the scratch process needs,
	// owned by the shard and guarded by mu because sync callers are many.
	// The worker brings its own (see drainBuf).
	sync drainBuf
	// ex holds the explanation of the anomalous verdict in hand until the
	// tracer's ring has copied it.
	ex explanation
}

// shardQueue is a shard's bounded async queue: a ring of messages under one
// mutex. The listener hands it every message of a batch bound for this
// shard in one lock round (push), and the worker takes a drain of up to
// DefaultMaxBatch in one lock round (take). A worker that finds the ring
// empty marks itself parked and waits on wake; only a push that finds it
// parked sends there, so while the worker is busy a handoff costs the
// listener no channel operation.
type shardQueue struct {
	mu   sync.Mutex
	ring []logfmt.Message
	head int // index of the oldest queued message
	n    int // messages queued
	// parked is set by a worker about to wait on wake and cleared by the
	// push that wakes it.
	parked bool
	// wake holds at most one wake-up; sends never block, and a token left
	// over from a worker that stopped only costs its successor one spurious
	// turn of the loop.
	wake chan struct{}
	// depth mirrors n for scraping; nil when unmetered.
	depth *obs.Gauge
}

// push appends, in arrival order and in one lock round, every message of
// msgs whose entry in to is s, marking the entry -1. A full ring refuses
// the rest of them one by one. It wakes a parked worker and reports how
// many messages it took.
func (q *shardQueue) push(msgs []logfmt.Message, to []int32, s int32) (took int) {
	q.mu.Lock()
	for i := range msgs {
		if to[i] != s {
			continue
		}
		to[i] = -1
		if q.n == len(q.ring) {
			continue
		}
		j := q.head + q.n
		if j >= len(q.ring) {
			j -= len(q.ring)
		}
		q.ring[j] = msgs[i]
		q.n++
		took++
	}
	wake := q.parked && took > 0
	if wake {
		q.parked = false
	}
	depth := q.n
	q.mu.Unlock()
	if wake {
		q.wakeUp()
	}
	q.depth.SetInt(depth)
	return took
}

// take moves up to DefaultMaxBatch of the oldest messages into b.msgs in
// one lock round. On an empty ring it marks the worker parked and reports
// false: the caller must then wait on wake before calling take again.
func (q *shardQueue) take(b *drainBuf) bool {
	q.mu.Lock()
	k := min(q.n, DefaultMaxBatch)
	if k == 0 {
		q.parked = true
		q.mu.Unlock()
		return false
	}
	first := min(k, len(q.ring)-q.head)
	b.msgs = append(b.msgs[:0], q.ring[q.head:q.head+first]...)
	b.msgs = append(b.msgs, q.ring[:k-first]...)
	q.head += k
	if q.head >= len(q.ring) {
		q.head -= len(q.ring)
	}
	q.n -= k
	depth := q.n
	q.mu.Unlock()
	q.depth.SetInt(depth)
	return true
}

// wakeUp leaves a wake-up for the worker unless one is already waiting.
func (q *shardQueue) wakeUp() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// size returns the number of queued messages.
func (q *shardQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// drainBuf is the scratch for one drain: the messages taken from the queue
// in one lock round (one, on the HandleMessage route) and what process
// derives from them. A worker incarnation owns its own rather than sharing
// the shard's: a watchdog replacement can briefly overlap the wedged worker
// it supersedes, and take fills msgs outside the shard mutex. The slices
// grow to a full drain once and are reused; after warm-up a drain
// allocates only when the signature tree grows a new template.
type drainBuf struct {
	msgs []logfmt.Message
	// syms is one arena of prepared symbols for the whole drain; symOff
	// holds len(msgs)+1 offsets into it (message i's symbols are
	// syms[symOff[i]:symOff[i+1]]).
	syms   []uint32
	symOff []int
	tb     sigtree.TokenBuf
	tpls   []int
}

// spanInfo is one sampled message's stage clocks, measured by process
// upstream of the verdict. It stays zero for an unsampled message: the
// latency SLO is sample-aligned, so the 15-in-16 unsampled path pays no
// clock reads at all (the span-overhead gate depends on this).
type spanInfo struct {
	queueNS   int64
	sigtreeNS int64
	batchNS   int64
	scoreNS   int64
	scoreEnd  time.Time
}

// afterScore is everything downstream of a score: the score histogram, the
// context window, the threshold check, anomaly clustering, the OnScored
// hook, an anomaly's explanation, the latency SLO, and the decision span.
// Caller holds sh.mu.
func (sh *shard) afterScore(msg *logfmt.Message, tplID int, hs *hostState, score float64, sp *spanInfo) {
	m := sh.m
	if msg.Trace.Sampled {
		m.scoreHist.ObserveExemplar(score, obs.SpanID(msg.Trace.ID))
	} else {
		m.scoreHist.Observe(score)
	}
	if m.cfg.Tracer != nil {
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
			anomalous && size >= detect.DefaultMinClusterSize)
	}
	var ex *obs.Explanation
	if anomalous && m.cfg.Tracer != nil {
		cluster := -1
		if sh.clusterOf != nil {
			cluster = sh.clusterOf(msg.Host)
		}
		ex = hs.explain(&sh.ex, cluster, sh.threshold, size)
	}
	sh.finishSpan(msg, tplID, score, anomalous, warned, ex, sp)
}

// finishSpan closes one verdict's telemetry. A sampled message records the
// latency SLO event, its monitor_handle_seconds observation and a decision
// span with the full stage breakdown, the verdict stage running from
// scoreEnd to now. An anomalous verdict's span carries its explanation ex
// (nil without a tracer) and is emitted sampled or not; an unsampled one
// carries the total only, since its stage clocks were never started.
// Caller holds sh.mu.
func (sh *shard) finishSpan(msg *logfmt.Message, tplID int, score float64, anomalous, warned bool, ex *obs.Explanation, sp *spanInfo) {
	m := sh.m
	tr := &msg.Trace
	if !tr.Sampled && ex == nil {
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
		Explain:   ex,
	}
	switch {
	case tr.Sampled:
		// The latency objective and the handle histogram ride the sampling
		// decision: 1-in-N verdicts are measured, which keeps the unsampled
		// hot path free of clock reads and still feeds the burn windows
		// thousands of events per minute at serving rates.
		m.cfg.LatencySLO.Record(sp.scoreEnd.Sub(tr.Accept) <= m.cfg.LatencyBound)
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
		inShard := s.Stages.SigtreeNS + s.Stages.BatchNS + s.Stages.ScoreNS + s.Stages.VerdictNS
		m.handleSeconds.ObserveExemplar(time.Duration(inShard).Seconds(), s.TraceID)
	case tr.ID != 0:
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
//
// host may be cut from a listener's batch string, which nothing kept past
// the drain may hold: a new state keeps its own copy, which is the map key
// and the host warnings name.
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
	hs := &hostState{host: strings.Clone(host), det: det, stream: st, seq: m.seq.Add(1)}
	if m.cfg.Tracer != nil {
		hs.recent = new([DefaultTraceWindow]obs.TraceStep)
	}
	sh.hosts[hs.host] = sh.lru.PushFront(hs)
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
	if cs == nil || at.Sub(cs.last) > detect.DefaultClusterWindow {
		hs.cluster = &clusterState{first: at, last: at, size: 1}
		return 1, false
	}
	cs.last = at
	cs.size++
	if cs.size >= detect.DefaultMinClusterSize && !cs.reported {
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

// runOnce is one incarnation of the shard worker: it drains the queue
// until stop (then drains what is left), the shard's generation
// moves past gen (a watchdog replacement took over), or a panic escapes —
// in which case it reports abnormal=true and the supervisor loop in
// Monitor.spawnWorker restarts it with backoff. The stop channel is
// captured at start so a Stop/Start cycle cannot race a worker onto a
// stale channel. An escaped panic here (the shard.worker/shard.score fault
// points, or a bug the per-drain recover in consume cannot see) counts
// into shardPanics: it is a scoring-path fault either way, and the
// degradation controller keys off that counter.
func (sh *shard) runOnce(stop <-chan struct{}, gen uint64) (abnormal bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.m.shardPanics.Inc()
			abnormal = true
		}
	}()
	var b drainBuf // worker-owned scratch; see drainBuf
	for {
		if sh.gen.Load() != gen {
			// Superseded by a watchdog replacement. If this worker was
			// parked beside it, the wake-up it just took may have been
			// meant for the replacement: pass it on.
			sh.q.wakeUp()
			return false
		}
		sh.hb.Beat()
		if err := sh.m.fpWorker.Fire(); err != nil {
			return true // injected worker crash; no message was dequeued
		}
		if sh.q.take(&b) {
			sh.consume(&b)
			continue
		}
		select {
		case <-sh.q.wake:
		case <-stop:
			// Only the current generation drains: a superseded worker
			// taking drains beside its replacement could score one host's
			// messages out of order.
			for sh.gen.Load() == gen && sh.q.take(&b) {
				sh.consume(&b)
			}
			return false
		}
	}
}

// consume processes a drain in one lock round. A panic while scoring (a
// poisoned message, a bug in a hot-swapped model) loses that drain, is
// counted, and leaves the worker — and the other shards — running.
func (sh *shard) consume(b *drainBuf) {
	// The shard.score fault point fires before the lock on purpose: its
	// slow mode must wedge this worker *outside* the shard mutex, so the
	// watchdog's replacement worker can make progress instead of queueing
	// behind the stuck one. Its panic mode escapes to runOnce's recover.
	if err := sh.m.fpScore.Fire(); err != nil {
		sh.m.shardPanics.Inc() // injected scoring fault; the drain is lost
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			sh.m.shardPanics.Inc()
		}
	}()
	sh.process(b)
}

// process is the one place a message is templated, scored and judged.
// Both routes end here with sh.mu held: a worker's drain of queued
// messages (consume) and HandleMessage's drain of one.
//
//  1. Prepare every message into one symbol arena. This touches only the
//     lock-free symbol table, so it runs outside the tree lock, and it
//     cannot fail: a token the full table does not hold becomes the
//     wildcard. The tree pointer is stable because SwapModel replaces it
//     only with every shard mutex held.
//  2. Learn them all in one treeMu section, so a drain costs one global
//     lock acquisition however many messages it holds.
//  3. Unless scoring is shed, take the messages in arrival order: resolve
//     the host (LRU touch, seq stamp, eviction), step its stream, judge.
//     A host's steps are sequential by the LSTM recurrence and nothing is
//     shared between hosts' steps, so there is no schedule to choose.
//
// What a drain amortises is the lock rounds and the tree section, not the
// step. A scoring fault costs at most the drain in flight.
//
// Span stage clocks: the drain's start and the end of its learn section are
// shared by its members and read only when one of them is sampled. Every
// member waits on the whole learn section, so its full duration is each
// sampled member's SigtreeNS; the section is taken to end where the first
// scored message's step starts (that host's lookup counts into it), which
// makes BatchNS — from there to a message's own step starting — 0 for that
// message and the wait on earlier members' steps and verdicts for the rest.
func (sh *shard) process(b *drainBuf) {
	m := sh.m
	msgs := b.msgs
	n := len(msgs)
	sampled := false
	for i := range msgs {
		if msgs[i].Trace.Sampled {
			sampled = true
			break
		}
	}
	var start time.Time
	if sampled {
		start = time.Now()
	}
	tree := m.tree
	b.syms = b.syms[:0]
	b.symOff = grow(b.symOff, n+1)
	b.tpls = grow(b.tpls, n)
	for i := range msgs {
		b.symOff[i] = len(b.syms)
		b.syms, _ = tree.AppendSyms(b.syms, msgs[i].Text, &b.tb)
	}
	b.symOff[n] = len(b.syms)
	t0 := m.learnSeconds.Start()
	m.treeMu.Lock()
	for i := range msgs {
		b.tpls[i] = tree.LearnSyms(b.syms[b.symOff[i]:b.symOff[i+1]]).ID
	}
	m.treeMu.Unlock()
	m.learnSeconds.ObserveDuration(t0)
	m.messages.Add(uint64(n))
	if m.DegradeMode() == resilience.ModeShedScoring {
		// Shed-scoring: the templates were learned (the tree stays warm for
		// recovery), the faulting scoring path is bypassed.
		m.shedMessages.Add(uint64(n))
		return
	}
	var learnEnd time.Time
	for i := range msgs {
		msg := &msgs[i]
		hs := sh.hostFor(msg.Host)
		if hs == nil {
			continue // no model for this host yet
		}
		// msg.Host may be cut from a listener's batch string: from here on
		// the message names its host by the state's own copy, so the
		// spans and OnScored hook fed from it never keep a batch alive.
		msg.Host = hs.host
		var sp spanInfo
		var stepStart time.Time
		switch {
		case !sampled:
		case learnEnd.IsZero():
			learnEnd = time.Now()
			stepStart = learnEnd
		case msg.Trace.Sampled:
			stepStart = time.Now()
		}
		score := hs.stream.Push(features.Event{Time: msg.Time, Template: b.tpls[i]})
		if tr := &msg.Trace; tr.Sampled {
			sp.scoreEnd = time.Now()
			// Queue wait: accept → the shard holding the drain, minus the
			// decode time already attributed upstream.
			sp.queueNS = int64(start.Sub(tr.Accept)) - tr.DecodeNS
			sp.sigtreeNS = int64(learnEnd.Sub(start))
			sp.batchNS = int64(stepStart.Sub(learnEnd))
			sp.scoreNS = int64(sp.scoreEnd.Sub(stepStart))
		}
		sh.afterScore(msg, b.tpls[i], hs, score, &sp)
	}
}

// grow resizes a reusable scratch slice to n elements, reallocating only
// when capacity falls short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
