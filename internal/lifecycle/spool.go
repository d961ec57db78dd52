package lifecycle

import (
	"sync"

	"nfvpredict/internal/cluster"
	"nfvpredict/internal/features"
)

// building is one host's in-progress window: events accumulate until the
// window length is reached, then the window joins the clean ring — or the
// quarantine ring if any event in it sat in a warning-sized anomaly burst
// (the §5.1 rule, the runtime proxy for "this traffic is near a fault").
// Isolated anomalies stay in clean windows: after a software update the
// stale model flags much of the *new normal* as anomalous, and excluding
// every flagged event would starve the spool of exactly the data
// adaptation needs (§4.3).
//
// Quarantined windows are not discarded, because a §5.1 burst has two
// indistinguishable causes at score time: a genuine fault, or the stale
// model's false-alarm storm on post-update traffic. The drift signal
// arbitrates at cycle time — when the live distribution has shifted,
// quarantined windows are the new normal and join the adaptation pool;
// without drift they are presumed fault traffic and never train anything.
type building struct {
	events []features.Event
	dirty  bool
}

// maxBuildingFactor bounds each cluster's in-progress window map at
// maxBuildingFactor × SpoolPerCluster hosts, so a sender spoofing hostnames
// cannot grow the spool without bound; hosts past the cap are ignored until
// existing windows complete.
const maxBuildingFactor = 4

// clusterSpool is one cluster's bounded reservoir of recent normal windows
// plus its live template histogram. Its mutex is only ever taken on its
// own: observe runs under a monitor shard lock and must not acquire
// anything else, and the cycle path copies data out before doing any slow
// work.
type clusterSpool struct {
	mu          sync.Mutex
	windowLen   int
	building    map[string]*building
	clean, quar windowRing // quar: burst-containing windows
	hist        cluster.Histogram
	events      uint64
	quarantined uint64
}

func newClusterSpool(windowLen, perCluster int) *clusterSpool {
	return &clusterSpool{
		windowLen: windowLen,
		building:  make(map[string]*building),
		clean:     windowRing{w: make([][]features.Event, perCluster)},
		quar:      windowRing{w: make([][]features.Event, perCluster)},
		hist:      make(cluster.Histogram),
	}
}

// windowRing keeps the latest len(w) completed windows.
type windowRing struct {
	w           [][]features.Event
	next, count int
}

func (r *windowRing) push(w []features.Event) {
	r.w[r.next] = w
	r.next = (r.next + 1) % len(r.w)
	r.count = min(r.count+1, len(r.w))
}

// windows copies the ring out, oldest first.
func (r *windowRing) windows() [][]features.Event {
	out := make([][]features.Event, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.w[(r.next-r.count+i+len(r.w))%len(r.w)])
	}
	return out
}

// observe folds one scored message into the spool. O(1); runs under the
// host's shard lock via Manager.Observe.
func (cs *clusterSpool) observe(host string, ev features.Event, burst bool) {
	cs.mu.Lock()
	cs.events++
	// The drift histogram counts every event, bursts included, mirroring
	// §3.3's full-syslog month-over-month measurement. Post-update traffic
	// is heavily bursty under the stale model (new templates cluster into
	// warnings), so excluding bursts here would bias the live distribution
	// toward the old templates and mask exactly the drift this histogram
	// exists to detect. An incident can skew one cycle's histogram into a
	// spurious drift trigger, but a trigger only starts an adaptation —
	// the false-alarm gate (trained on burst-free windows) still decides
	// what serves.
	cs.hist.Add(ev.Template)
	b := cs.building[host]
	if b == nil {
		if len(cs.building) >= maxBuildingFactor*len(cs.clean.w) {
			cs.mu.Unlock()
			return
		}
		b = &building{events: make([]features.Event, 0, cs.windowLen)}
		cs.building[host] = b
	}
	if burst {
		b.dirty = true
	}
	b.events = append(b.events, ev)
	if len(b.events) >= cs.windowLen {
		delete(cs.building, host)
		if b.dirty {
			cs.quarantined++
			cs.quar.push(b.events)
		} else {
			cs.clean.push(b.events)
		}
	}
	cs.mu.Unlock()
}

// snapshot copies out the completed clean and quarantined windows (oldest
// first) and the live histogram. The window slices themselves are
// immutable once completed, so they are shared, not deep-copied. resetHist
// starts a fresh histogram for the next cycle (each cycle judges drift on
// the traffic since the last).
func (cs *clusterSpool) snapshot(resetHist bool) (clean, quarantined [][]features.Event, hist cluster.Histogram) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	clean, quarantined = cs.clean.windows(), cs.quar.windows()
	hist = make(cluster.Histogram, len(cs.hist))
	for k, v := range cs.hist {
		hist[k] = v
	}
	if resetHist {
		cs.hist = make(cluster.Histogram)
	}
	return clean, quarantined, hist
}

// depth reports how many completed clean windows the spool currently holds.
func (cs *clusterSpool) depth() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.clean.count
}

// quarantinedTotal reports the cumulative count of windows quarantined.
func (cs *clusterSpool) quarantinedTotal() uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.quarantined
}

// seed refills the rings and histogram from a checkpoint's spool (restart
// resume). Partial windows were not persisted; hosts start cold.
func (cs *clusterSpool) seed(clean, quarantined [][]features.Event, hist cluster.Histogram) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, w := range clean {
		if len(w) > 0 {
			cs.clean.push(w)
		}
	}
	for _, w := range quarantined {
		if len(w) > 0 {
			cs.quar.push(w)
		}
	}
	for k, v := range hist {
		cs.hist[k] += v
	}
}

// spoolSet is the set of per-cluster spools serving one model generation's
// template lineage. It is held in an atomic pointer on the Manager and
// replaced wholesale when a reload changes the template space, so the
// Observe hot path never takes a Manager-wide lock.
type spoolSet struct {
	clusters []*clusterSpool
}

func newSpoolSet(n, windowLen, perCluster int) *spoolSet {
	ss := &spoolSet{clusters: make([]*clusterSpool, n)}
	for i := range ss.clusters {
		ss.clusters[i] = newClusterSpool(windowLen, perCluster)
	}
	return ss
}
