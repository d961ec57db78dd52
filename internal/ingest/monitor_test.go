package ingest

import (
	"nfvpredict/internal/detect"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/sigtree"
)

// NewMonitor builds a monitor that scores every host against one detector.
func NewMonitor(cfg MonitorConfig, tree *sigtree.Tree, det *detect.LSTMDetector, onWarning func(detect.Warning)) *Monitor {
	return NewMonitorWithResolver(cfg, tree, func(string) *detect.LSTMDetector { return det }, onWarning)
}

// hasHost reports whether host currently has live state; the shard map is
// otherwise private to its mutex.
func (m *Monitor) hasHost(host string) bool {
	sh := m.shards[m.shardFor(host)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.hosts[host]
	return ok
}

// capHosts lowers the host cap from DefaultMaxHosts to n, partitioned over
// the shards the way the constructor partitions the real one. Call it
// before the first message.
func (m *Monitor) capHosts(n int) {
	for _, sh := range m.shards {
		sh.maxHosts = (n + len(m.shards) - 1) / len(m.shards)
	}
}

// capQueues gives every shard an n-slot queue in place of DefaultShardQueue.
// Call it before the first Enqueue.
func (m *Monitor) capQueues(n int) {
	for _, sh := range m.shards {
		sh.q.ring = make([]logfmt.Message, n)
	}
}

// queued returns a copy of a shard's queued messages, oldest first.
func (q *shardQueue) queued() []logfmt.Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]logfmt.Message, q.n)
	for i := range out {
		out[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	return out
}

// pushQuiet queues msg without waking a parked worker: the state a handoff
// leaves between queueing a message and its wake-up reaching the worker.
func (q *shardQueue) pushQuiet(msg logfmt.Message) {
	q.mu.Lock()
	q.ring[(q.head+q.n)%len(q.ring)] = msg
	q.n++
	q.mu.Unlock()
}
