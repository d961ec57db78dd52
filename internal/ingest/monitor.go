package ingest

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/sigtree"
)

// MonitorConfig configures an online Monitor.
type MonitorConfig struct {
	// Threshold is the anomaly-score threshold (negative log-likelihood);
	// pick it from an offline PRC's best-F operating point (§5.2). The §5.1
	// warning rule it feeds is fixed: detect.DefaultMinClusterSize
	// anomalies within detect.DefaultClusterWindow, as offline.
	Threshold float64

	// Shards is the number of independent scoring shards; hosts are hashed
	// onto shards, and each shard owns its hosts' LSTM streams under its
	// own mutex. 0 or 1 means a single shard. With a single HandleMessage
	// caller the shard count changes no scored bit (same eviction, same
	// checkpoint bytes). More shards let HandleMessage calls for different
	// hosts score in parallel, and give the async route (Enqueue/Start) one
	// worker per shard. Use runtime.GOMAXPROCS(0) to match the machine.
	Shards int

	// Watchdog, when > 0, runs a stuck-worker watchdog beside the async
	// workers (Start): each worker stamps a heartbeat per loop iteration,
	// and a shard whose queue has work but whose heartbeat has not moved
	// for Watchdog is force-restarted — a replacement worker is spawned at
	// a bumped generation and the wedged one self-retires after its
	// current drain (goroutines cannot be killed; abandonment is the only
	// forced restart Go has). Workers are also supervised: a worker that
	// panics or exits abnormally is restarted with jittered backoff.
	// 0 disables the watchdog (workers are still supervised).
	Watchdog time.Duration

	// Faults, when set, registers the monitor's chaos fault points
	// (shard.score, shard.worker, heartbeat.skew, checkpoint.write) so
	// tests and the /chaos endpoint can inject scoring panics, slow
	// drains, worker crashes, skewed watchdog clocks and failed
	// checkpoint writes. Nil wires none (a nil check per drain).
	Faults *faultinject.Registry

	// Metrics, when set, is the registry the monitor reports into
	// (counters mirror Stats(); latency and score histograms are only
	// maintained when a registry is attached, so an uninstrumented
	// monitor never reads the clock per message). Per-shard queue-depth
	// gauges are labelled monitor_shard_queue_depth{shard="i"}. When nil
	// the monitor keeps its counters on a private registry so Stats()
	// still works.
	Metrics *obs.Registry
	// Traces is ignored: verdicts are explained by the decision spans
	// Tracer emits. It exists only for bench/ until ROADMAP item 1A
	// deletes it.
	Traces *obs.TraceRing
	// ClusterOf, when set, maps a host to its model's cluster index for
	// the explanation on anomalous spans and the OnScored hook.
	// internal/serve passes bundle.ClusterOf, the assignment with unmapped
	// hosts at cluster 0, whose detector scores them; nil reports cluster
	// -1 in explanations.
	// SwapModel replaces it with the new bundle's ClusterOf.
	ClusterOf func(host string) int

	// Tracer, when set, turns on span-based pipeline tracing: messages
	// arriving with a minted TraceCtx (the ingest Server stamps one at
	// frame accept) — or stamped here for direct HandleMessage callers —
	// emit a decision span into the tracer's ring. Sampled messages carry
	// full stage clocks (queue wait, sigtree, wait within the drain, score,
	// verdict). Every anomalous verdict emits a span carrying its
	// Explanation (cluster, model, threshold, the host's last
	// DefaultTraceWindow scored messages, anomaly cluster size), with the
	// total latency only when the message was not sampled; each host keeps
	// its context window for it. Nil disables tracing: scoring pays one
	// branch and zero clock reads.
	Tracer *obs.Tracer
	// LatencySLO, when set, records one good/bad event per traced scored
	// message: good when accept→verdict latency is within LatencyBound.
	LatencySLO *obs.SLO
	// LatencyBound is the accept→verdict latency objective bound; 0 means
	// DefaultLatencyBound.
	LatencyBound time.Duration
	// OnScored, when set, observes every scored message after threshold
	// evaluation: the host, its model cluster (via ClusterOf, clamped to
	// 0 when unmapped), the extracted template event, the anomaly score,
	// whether the score crossed the threshold, and whether the message
	// sits in a warning-sized anomaly cluster (burst — the §5.1 rule, the
	// runtime proxy for "near a fault"). The hook runs synchronously
	// under the host's shard lock: implementations must be O(1)-cheap and
	// must never call back into the Monitor (SwapModel and friends take
	// every shard lock and would deadlock). The lifecycle spool is the
	// intended consumer.
	OnScored func(host string, cluster int, ev features.Event, score float64, anomalous, burst bool)
}

// DefaultMaxHosts caps the per-host states (LSTM stream + anomaly cluster)
// a monitor holds. When the cap is reached the least-recently-seen host is
// evicted, so a sender spoofing hostnames can cost at most this many
// streams of memory, never unbounded growth; an evicted host that reappears
// starts a cold stream. The cap is partitioned evenly over the shards
// (ceil(DefaultMaxHosts/Shards) each), so each shard evicts its own coldest
// hosts. The paper's fleet is ~2.5k vPEs; 8192 leaves generous headroom.
const DefaultMaxHosts = 8192

// DefaultTraceWindow is how many recent messages of context an anomalous
// decision span's explanation carries, the flagged one included: enough to
// see the §5.1 one-minute anomaly cluster forming without bloating the
// ring.
const DefaultTraceWindow = 8

// DefaultShardQueue bounds each shard's async ingest queue, a ring of this
// many messages. When a queue is full it refuses the message, which is
// the caller's to drop and count — backpressure must never block a
// network listener.
const DefaultShardQueue = 1024

// DefaultMaxBatch is how many queued messages a shard worker takes in one
// drain: one shard-lock round and one signature-tree section for all of
// them. The first message of a drain waits for none of the others, so the
// cap bounds how long the last one waits (16 steps), not a batch size that
// has to fill. The name is what bench/ reads it by.
const DefaultMaxBatch = 16

// DefaultLatencyBound is the accept→verdict latency objective when
// MonitorConfig.LatencyBound is unset: generous against the µs-scale
// scoring path, so only real queueing or a wedged stage burns budget.
const DefaultLatencyBound = 250 * time.Millisecond

// DefaultMonitorConfig returns a placeholder threshold of 6 (≈ e^-6
// next-template likelihood) and a single scoring shard.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{Threshold: 6}
}

// MonitorStats is a snapshot of the monitor's cumulative counters.
type MonitorStats struct {
	// Messages counts messages whose drain has learned their templates;
	// it moves before the drain scores them, so it does not say that
	// scoring finished: Monitor.Settle does.
	Messages uint64
	// Anomalies is the number of messages scored above the threshold.
	Anomalies uint64
	// Warnings is the number of warning signatures emitted.
	Warnings uint64
	// EvictedHosts counts least-recently-seen host states dropped to honor
	// DefaultMaxHosts.
	EvictedHosts uint64
	// Symbols is the size of the serving tree's symbol table, wildcard
	// included; SymbolOverflows counts the tokens that table was too full
	// to take and templated as variable fields. Both are the serving
	// tree's own, so a SwapModel to a reloaded tree starts them afresh.
	Symbols         int
	SymbolOverflows uint64
	// ModelSwaps counts successful SwapModel calls (hot reloads).
	ModelSwaps uint64
	// ShardPanics counts scoring panics recovered by shard workers; the
	// panicking drain is lost, the shard keeps serving.
	ShardPanics uint64
	// WorkerRestarts counts supervised shard-worker restarts (after a
	// panic or abnormal exit).
	WorkerRestarts uint64
	// WatchdogKicks counts stuck workers force-restarted by the watchdog.
	WatchdogKicks uint64
	// ShedMessages counts messages that skipped scoring while the monitor
	// was degraded to shed-scoring mode (templates still learned).
	ShedMessages uint64
	// DegradeMode is the current degradation mode ("normal",
	// "shed-learning", "shed-scoring").
	DegradeMode string
	// ActiveHosts is the number of per-host states currently held.
	ActiveHosts int
	// Shards is the number of scoring shards.
	Shards int
}

// Monitor is the live counterpart of the offline pipeline: it templates
// each incoming syslog message with the signature tree, scores it against
// the trained LSTM with per-vPE streaming state, clusters anomalies, and
// emits warning signatures to a callback.
//
// The monitor is sharded: hosts hash onto Shards independent shards, each
// owning its hosts' recurrent scoring state under its own mutex.
// HandleMessage is safe for concurrent use — calls for hosts on different
// shards score in parallel; calls for the same host serialize on its
// shard's mutex. Warnings, Stats, Checkpoint, and SwapModel may be called
// concurrently with scoring.
//
// One function (shard.process) templates, scores and judges every message;
// it has two callers:
//
//   - HandleMessage runs it on the caller's goroutine over a drain of one.
//     With a single caller its behavior (scores, warnings, checkpoints) is
//     deterministic and independent of the shard count.
//   - The async route queues messages on their shards' bounded rings and
//     returns immediately: the ingest Server hands over each socket read's
//     batch at once, Enqueue a single message. Shard workers (Start/Stop)
//     run process over drains of up to 16 queued messages, in arrival
//     order. One shard's results equal a HandleMessage replay of the same
//     sequence bit for bit; across shards the interleaving of the warning
//     log follows worker scheduling.
type Monitor struct {
	cfg MonitorConfig

	onWarning func(detect.Warning)

	// treeMu guards the signature tree, the only scoring structure shared
	// by every shard (template IDs are global). Tokenization happens
	// outside the lock; only match/merge/grow runs under it.
	treeMu sync.Mutex
	tree   *sigtree.Tree

	// warnMu guards the warning history and serializes the onWarning
	// callback across shards.
	warnMu   sync.Mutex
	warnings []detect.Warning

	shards []*shard
	// seq stamps each host touch with a global recency order, so a
	// checkpoint can emit hosts in least-recently-seen order regardless of
	// how they are spread over shards.
	seq atomic.Uint64
	// hostCount mirrors the summed shard LRU lengths for Stats().
	hostCount atomic.Int64

	// lifeMu guards the async worker lifecycle.
	lifeMu  sync.Mutex
	running bool
	stop    chan struct{}
	wg      sync.WaitGroup
	// workers counts live worker goroutines, superseded ones included.
	workers atomic.Int32
	// settlers counts waiting Settle callers; while it is nonzero the end
	// of a drain or of a worker closes settled to wake them.
	settlers atomic.Int32
	settleMu sync.Mutex
	settled  chan struct{}

	// degrade holds the current resilience.Mode. Shed-scoring is enforced
	// in shard.process (templates keep learning, scores are skipped);
	// shed-learning is the lifecycle manager's to enforce.
	degrade atomic.Int32

	// Chaos fault points; nil (never fired) when cfg.Faults is unset.
	fpScore  *faultinject.Point
	fpWorker *faultinject.Point
	fpSkew   *faultinject.Point

	// Counters live on the registry (cfg.Metrics, or a private one) so the
	// same numbers appear in Stats(), logs, and /metrics with no double
	// bookkeeping; Checkpoint/Restore move their values wholesale.
	messages    *obs.Counter
	anoms       *obs.Counter
	warningsC   *obs.Counter
	evicted     *obs.Counter
	swaps       *obs.Counter
	shardPanics *obs.Counter
	// activeHosts mirrors hostCount for scraping; histograms are nil (and
	// free) when no registry was attached.
	activeHosts    *obs.Gauge
	handleSeconds  *obs.Histogram
	learnSeconds   *obs.Histogram
	scoreHist      *obs.Histogram
	ckptSaves      *obs.Counter
	ckptSeconds    *obs.Histogram
	workerRestarts *obs.Counter
	watchdogKicks  *obs.Counter
	shedMessages   *obs.Counter
	degradeGauge   *obs.Gauge
	hbAgeGauge     *obs.Gauge

	// Checkpoint state, off the scoring path: gen is the generation
	// served, when the monitor was given one, which its checkpoints carry
	// (written under every shard mutex); fpCkpt is the checkpoint.write
	// fault point.
	gen     *bundle.Bundle
	genWire atomic.Pointer[genWire]
	fpCkpt  *faultinject.Point
}

// hostState is everything the monitor remembers about one vPE: its scoring
// stream and its in-progress anomaly cluster. Stream and cluster live and
// die together under the shard LRU so eviction cannot leave half a host
// behind.
type hostState struct {
	host    string
	det     *detect.LSTMDetector // the detector the stream scores under
	stream  *detect.LSTMStream
	cluster *clusterState // nil until the host's first anomaly

	// seq is the global recency stamp of the host's last touch (see
	// Monitor.seq).
	seq uint64

	// recent is a fixed ring of the host's latest scored messages, the
	// context window copied into an anomalous verdict's explanation. Only
	// maintained when a tracer is set.
	recent *[DefaultTraceWindow]obs.TraceStep
	nSeen  uint // total steps recorded into recent
}

// clusterState tracks the in-progress anomaly cluster of one vPE.
type clusterState struct {
	first, last time.Time
	size        int
	reported    bool
}

// NewMonitorWithResolver builds a monitor from a grown signature tree and
// a per-host detector choice — each vPE scores against its cluster's model
// (§4.3). resolve may return nil for hosts that have no trained model yet;
// their messages are counted but not scored. onWarning (optional) fires
// once per warning signature.
func NewMonitorWithResolver(cfg MonitorConfig, tree *sigtree.Tree, resolve func(host string) *detect.LSTMDetector, onWarning func(detect.Warning)) *Monitor {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.LatencyBound <= 0 {
		cfg.LatencyBound = DefaultLatencyBound
	}
	m := &Monitor{
		cfg:       cfg,
		tree:      tree,
		onWarning: onWarning,
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m.messages = reg.Counter("monitor_messages_total", "Messages ingested by the monitor.")
	m.anoms = reg.Counter("monitor_anomalies_total", "Messages scored above the anomaly threshold.")
	m.warningsC = reg.Counter("monitor_warnings_total", "Warning signatures emitted (§5.1 clustering rule).")
	m.evicted = reg.Counter("monitor_evicted_hosts_total", "Per-host states evicted to honor the host cap.")
	m.swaps = reg.Counter("monitor_model_swaps_total", "Successful SwapModel hot reloads.")
	m.shardPanics = reg.Counter("monitor_shard_panics_total", "Scoring panics recovered by shard workers (the drain is lost).")
	m.activeHosts = reg.Gauge("monitor_active_hosts", "Per-host states currently held.")
	m.ckptSaves = reg.Counter("monitor_checkpoint_saves_total", "Successful Checkpoint snapshots written.")
	m.workerRestarts = reg.Counter("monitor_worker_restarts_total", "Supervised shard-worker restarts after a panic or abnormal exit.")
	m.watchdogKicks = reg.Counter("monitor_watchdog_restarts_total", "Stuck shard workers force-restarted by the watchdog.")
	m.shedMessages = reg.Counter("monitor_shed_messages_total", "Messages that skipped scoring while degraded to shed-scoring mode.")
	m.degradeGauge = reg.Gauge("monitor_degrade_mode", "Current degradation mode (0 normal, 1 shed-learning, 2 shed-scoring).")
	m.hbAgeGauge = reg.Gauge("monitor_worker_heartbeat_age_seconds", "Worst shard-worker heartbeat age observed by the watchdog.")
	if cfg.Faults != nil {
		m.fpScore = cfg.Faults.Point("shard.score",
			"Before a shard worker scores a drain: panic loses the drain, slow wedges the worker (watchdog food).")
		m.fpWorker = cfg.Faults.Point("shard.worker",
			"In the shard worker loop before dequeue: panic/error crashes the worker with no message loss (supervisor food).")
		m.fpSkew = cfg.Faults.Point("heartbeat.skew",
			"Skews the watchdog's clock so healthy heartbeats read stale.")
		m.fpCkpt = cfg.Faults.Point("checkpoint.write",
			"Inside the atomic checkpoint write: disk-full/torn/slow failures that must never cost the previous generation.")
	}
	if cfg.Metrics != nil {
		m.ckptSeconds = reg.Histogram("monitor_checkpoint_seconds",
			"Checkpoint snapshot+encode latency.", obs.DurationBuckets())
		m.handleSeconds = reg.Histogram("monitor_handle_seconds",
			"Time a sampled message spends in its shard's drain: template match, wait on earlier members, LSTM step, verdict.",
			obs.DurationBuckets())
		m.learnSeconds = reg.Histogram("monitor_sigtree_learn_seconds",
			"Signature-tree learn section (template match/grow) latency, one observation per drain.",
			obs.DurationBuckets())
		m.scoreHist = reg.Histogram("monitor_score",
			"Anomaly scores (negative log-likelihood) of scored messages.",
			obs.LinearBuckets(0.5, 0.5, 20))
	}
	perShard := (DefaultMaxHosts + cfg.Shards - 1) / cfg.Shards
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		var depth *obs.Gauge
		if cfg.Metrics != nil {
			depth = reg.Gauge(
				obs.LabelName("monitor_shard_queue_depth", "shard", strconv.Itoa(i)),
				"Messages waiting in this shard's async queue.")
		}
		m.shards[i] = &shard{
			m:  m,
			id: i,
			q: shardQueue{
				ring:  make([]logfmt.Message, DefaultShardQueue),
				wake:  make(chan struct{}, 1),
				depth: depth,
			},
			resolve:   resolve,
			clusterOf: cfg.ClusterOf,
			threshold: cfg.Threshold,
			maxHosts:  perShard,
			hosts:     make(map[string]*list.Element),
			lru:       list.New(),
		}
	}
	return m
}

// NewMonitorWithBundle builds a monitor serving generation b: its tree,
// and each host's cluster detector (b.DetectorFor). Its checkpoints carry
// b.
func NewMonitorWithBundle(cfg MonitorConfig, b *bundle.Bundle, onWarning func(detect.Warning)) *Monitor {
	m := NewMonitorWithResolver(cfg, b.Tree, b.DetectorFor, onWarning)
	m.gen = b
	return m
}

// shardFor hashes a host onto its shard (FNV-1a over the hostname). The
// hash is stable across processes, so a checkpoint restores onto any shard
// count.
func (m *Monitor) shardFor(host string) int {
	if len(m.shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	return int(h % uint32(len(m.shards)))
}

// ShardCount returns the number of scoring shards.
func (m *Monitor) ShardCount() int { return len(m.shards) }

// lockAll acquires every shard mutex in index order — the whole-monitor
// critical section used by Checkpoint and SwapModel. Shard workers only
// ever hold their own shard's mutex, so index order cannot deadlock.
func (m *Monitor) lockAll() {
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
}

// unlockAll releases what lockAll acquired.
func (m *Monitor) unlockAll() {
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
}

// HandleMessage ingests one parsed syslog message synchronously: a drain of
// one through the function the shard workers run. It is safe for concurrent
// use: messages for different hosts may score in parallel (they serialize
// only on the shared signature tree), while messages for one host serialize
// on its shard.
func (m *Monitor) HandleMessage(msg logfmt.Message) {
	tr := &msg.Trace
	if m.cfg.Tracer != nil && tr.ID == 0 {
		// Direct callers (no ingest Server upstream): accept is here.
		id, sampled := m.cfg.Tracer.Accept()
		tr.ID, tr.Sampled = uint64(id), sampled
		tr.Accept = time.Now()
	}
	sh := m.shards[m.shardFor(msg.Host)]
	sh.mu.Lock()
	sh.sync.msgs = append(sh.sync.msgs[:0], msg)
	sh.process(&sh.sync)
	sh.mu.Unlock()
}

// Enqueue routes one message to its host's shard queue without blocking: a
// handoff of one. It reports false when the shard's queue is full; the
// caller owns the drop accounting. Messages enqueued before Start sit in
// the queue until workers run. The ingest Server does not call it: it
// hands each socket read's messages over together (enqueueBatch).
func (m *Monitor) Enqueue(msg logfmt.Message) bool {
	return m.enqueueBatch([]logfmt.Message{msg}) == 1
}

// enqueueBatch routes up to handoffBatch messages to their shard queues
// without blocking, taking each shard's queue lock once for all of its
// messages, and reports how many were accepted. Within a shard the
// messages keep their order, and a full queue refuses the rest of them one
// by one; the caller owns the drop accounting.
func (m *Monitor) enqueueBatch(msgs []logfmt.Message) (accepted int) {
	var buf [handoffBatch]int32
	to := buf[:len(msgs)]
	for i := range msgs {
		to[i] = int32(m.shardFor(msgs[i].Host))
	}
	for i, s := range to {
		if s >= 0 {
			accepted += m.shards[s].q.push(msgs[i:], to[i:], s)
		}
	}
	return accepted
}

// Start launches one supervised worker per shard to drain the async
// queues, plus (when cfg.Watchdog > 0) the stuck-worker watchdog. It is
// idempotent while running.
func (m *Monitor) Start() {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if m.running {
		return
	}
	m.running = true
	m.stop = make(chan struct{})
	for _, sh := range m.shards {
		m.spawnWorker(sh, m.stop)
	}
	if m.cfg.Watchdog > 0 {
		m.wg.Add(1)
		go m.watchdog(m.stop)
	}
}

// spawnWorker launches a supervised worker for sh at its current
// generation: the worker is restarted with jittered backoff after a panic
// or abnormal exit, and retires cleanly when stop closes or a watchdog
// replacement supersedes its generation. The heartbeat is stamped
// synchronously so consecutive watchdog ticks cannot double-kick a shard
// whose replacement has not been scheduled yet.
func (m *Monitor) spawnWorker(sh *shard, stop <-chan struct{}) {
	gen := sh.gen.Load()
	sh.hb.Beat()
	m.wg.Add(1)
	m.workers.Add(1)
	go func() {
		defer m.wg.Done()
		defer func() { m.workers.Add(-1); m.notifySettle() }()
		restart := resilience.NewBackoff(time.Millisecond, time.Second, 0.5, 0)
		for {
			if !sh.runOnce(stop, gen) {
				return
			}
			m.workerRestarts.Inc()
			t := time.NewTimer(restart.Next())
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				// Run one last incarnation to drain the queue on shutdown.
				sh.runOnce(stop, gen)
				return
			}
			t.Stop()
		}
	}()
}

// watchdog force-restarts wedged shard workers: a shard with queued work
// whose heartbeat has not advanced between two consecutive ticks and is
// older than cfg.Watchdog gets a replacement worker at a bumped
// generation. The wedged worker cannot be killed (Go has no goroutine
// kill); it self-retires at its next loop turn, after the drain it is
// stuck on either completes or panics. The heartbeat.skew fault point
// shifts the watchdog's clock to test exactly this machinery.
func (m *Monitor) watchdog(stop <-chan struct{}) {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.Watchdog / 2)
	defer tick.Stop()
	lastBeat := make([]int64, len(m.shards))
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			now := time.Now().Add(m.fpSkew.Skew())
			var worst time.Duration
			for i, sh := range m.shards {
				beat := sh.hb.Load()
				age := sh.hb.Age(now)
				if age > worst && beat != 0 {
					worst = age
				}
				stalled := beat == lastBeat[i]
				lastBeat[i] = beat
				if sh.q.size() == 0 || !stalled || age <= m.cfg.Watchdog {
					continue
				}
				sh.gen.Add(1)
				m.watchdogKicks.Inc()
				m.spawnWorker(sh, stop)
			}
			m.hbAgeGauge.Set(worst.Seconds())
		}
	}
}

// Stop signals the workers, waits for them to drain their queues, and
// returns. Stop the message source (the ingest Server) first, or late
// Enqueues will sit in the queues until the next Start.
func (m *Monitor) Stop() {
	m.lifeMu.Lock()
	if !m.running {
		m.lifeMu.Unlock()
		return
	}
	m.running = false
	close(m.stop)
	m.lifeMu.Unlock()
	m.wg.Wait()
}

// Settle returns once every message the monitor accepted onto its shard
// queues before the call has finished its drain, however the drain ended:
// scored (its counters, OnScored call, warning and span done), shed under
// ModeShedScoring, lost to a scoring fault or a worker panic, or scored
// late by a worker the watchdog superseded. It waits on the drains
// themselves, not on a clock, and returns ctx.Err() when ctx ends first.
// With no worker running it returns at once: nil when nothing accepted is
// left to judge, an error when messages are still queued. HandleMessage
// needs no barrier: it returns with its message judged.
func (m *Monitor) Settle(ctx context.Context) error {
	want := make([]uint64, len(m.shards))
	for i, sh := range m.shards {
		want[i] = sh.q.accepted()
	}
	m.settlers.Add(1)
	defer m.settlers.Add(-1)
	for {
		m.settleMu.Lock()
		if m.settled == nil {
			m.settled = make(chan struct{})
		}
		wake := m.settled
		m.settleMu.Unlock()
		var pending uint64
		for i, sh := range m.shards {
			pending += want[i] - min(want[i], sh.q.judged.Load())
		}
		if pending == 0 {
			return nil
		}
		if m.workers.Load() == 0 {
			return fmt.Errorf("ingest: %d accepted messages unjudged and no shard worker running", pending)
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// notifySettle wakes the waiting Settle callers, if any: a drain nobody
// settles pays one atomic load.
func (m *Monitor) notifySettle() {
	if m.settlers.Load() == 0 {
		return
	}
	m.settleMu.Lock()
	if m.settled != nil {
		close(m.settled)
		m.settled = nil
	}
	m.settleMu.Unlock()
}

// record appends one scored message to the host's fixed context ring.
func (hs *hostState) record(step obs.TraceStep) {
	hs.recent[hs.nSeen%DefaultTraceWindow] = step
	hs.nSeen++
}

// explanation is an Explanation and its window's storage: the shard's
// scratch for the verdict in hand, which the span ring copies.
type explanation struct {
	obs.Explanation
	steps [DefaultTraceWindow]obs.TraceStep
}

// explain fills e with the explanation of the host's latest verdict, the
// context ring copied out oldest first.
func (hs *hostState) explain(e *explanation, cluster int, threshold float64, size int) *obs.Explanation {
	n := min(hs.nSeen, DefaultTraceWindow)
	for i := uint(0); i < n; i++ {
		e.steps[i] = hs.recent[(hs.nSeen-n+i)%DefaultTraceWindow]
	}
	e.Explanation = obs.Explanation{
		Cluster: cluster, Model: hs.det.Name(), Threshold: threshold,
		Window: e.steps[:n], ClusterSize: size,
	}
	return &e.Explanation
}

// SwapModel atomically installs b as the serving model — signature tree,
// per-host detector (b.DetectorFor), host→cluster mapping (b.ClusterOf)
// and threshold — the runtime half of the paper's monthly retraining loop
// (§4.4) and the lifecycle's promotion and rollback. The swap is atomic
// across shards: every shard mutex is held, so no message scores against
// a half-swapped model. Per-host stream state is reset (the new model's
// recurrent state and vocabulary are not compatible with the old one's);
// warnings and counters carry over. A threshold <= 0 keeps the current
// threshold.
func (m *Monitor) SwapModel(b *bundle.Bundle) {
	m.lockAll()
	m.gen = b
	m.treeMu.Lock()
	m.tree = b.Tree
	m.treeMu.Unlock()
	for _, sh := range m.shards {
		sh.resolve, sh.clusterOf = b.DetectorFor, b.ClusterOf
		if b.Threshold > 0 {
			sh.threshold = b.Threshold
		}
		sh.hosts = make(map[string]*list.Element)
		sh.lru = list.New()
	}
	m.hostCount.Store(0)
	m.activeHosts.SetInt(0)
	m.swaps.Inc()
	m.unlockAll()
}

// Generation returns the generation the monitor serves, nil when it was
// built from a tree and a resolver and never swapped.
func (m *Monitor) Generation() *bundle.Bundle {
	sh := m.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.gen
}

// Warnings returns a copy of all warnings emitted so far.
func (m *Monitor) Warnings() []detect.Warning {
	m.warnMu.Lock()
	defer m.warnMu.Unlock()
	out := make([]detect.Warning, len(m.warnings))
	copy(out, m.warnings)
	return out
}

// Counters returns (messages ingested, anomalies flagged).
func (m *Monitor) Counters() (messages, anomalies uint64) {
	return m.messages.Value(), m.anoms.Value()
}

// Threshold returns the current operating threshold (which SwapModel may
// have updated since construction). All shards share one threshold, so
// reading any shard's copy suffices.
func (m *Monitor) Threshold() float64 {
	sh := m.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.threshold
}

// Templates returns the serving tree's template count, read under the
// tree lock: current, and race-clean while the shards learn.
func (m *Monitor) Templates() int {
	m.treeMu.Lock()
	defer m.treeMu.Unlock()
	return m.tree.Len()
}

// Stats returns a snapshot of all monitor counters — a thin view over the
// same registry counters exported at /metrics, plus the serving tree's
// symbol-table size and overflow count, which have no metric family.
func (m *Monitor) Stats() MonitorStats {
	m.treeMu.Lock()
	tree := m.tree
	m.treeMu.Unlock()
	return MonitorStats{
		Messages:        m.messages.Value(),
		Anomalies:       m.anoms.Value(),
		Warnings:        m.warningsC.Value(),
		EvictedHosts:    m.evicted.Value(),
		Symbols:         tree.SymCount(),
		SymbolOverflows: tree.SymOverflows(),
		ModelSwaps:      m.swaps.Value(),
		ShardPanics:     m.shardPanics.Value(),
		WorkerRestarts:  m.workerRestarts.Value(),
		WatchdogKicks:   m.watchdogKicks.Value(),
		ShedMessages:    m.shedMessages.Value(),
		DegradeMode:     m.DegradeMode().String(),
		ActiveHosts:     int(m.hostCount.Load()),
		Shards:          len(m.shards),
	}
}

// SetDegrade switches the monitor's degradation mode. ModeShedScoring is
// enforced here (messages keep learning templates but skip scoring, so the
// signature tree stays warm for recovery while a faulting scoring path is
// bypassed); ModeShedLearning is informational to the monitor — the
// lifecycle manager is the component that pauses on it.
func (m *Monitor) SetDegrade(mode resilience.Mode) {
	m.degrade.Store(int32(mode))
	m.degradeGauge.SetInt(int(mode))
}

// DegradeMode returns the current degradation mode.
func (m *Monitor) DegradeMode() resilience.Mode {
	return resilience.Mode(m.degrade.Load())
}

// QueueFrac returns the worst shard queue's fill fraction [0,1] — the
// overload signal the degradation controller samples.
func (m *Monitor) QueueFrac() float64 {
	worst := 0.0
	for _, sh := range m.shards {
		if f := float64(sh.q.size()) / float64(len(sh.q.ring)); f > worst {
			worst = f
		}
	}
	return worst
}
