package resilience

import (
	"sync/atomic"
	"time"
)

// Heartbeat is a lock-free liveness stamp a worker beats on every unit of
// progress and a watchdog reads to detect a wedged worker. The zero value
// reads as "never beat".
type Heartbeat struct {
	ns atomic.Int64
}

// Beat stamps the heartbeat with the current time.
func (h *Heartbeat) Beat() { h.ns.Store(time.Now().UnixNano()) }

// Load returns the raw beat stamp (nanoseconds since the epoch; 0 means
// never beat) — watchdogs compare stamps across ticks to distinguish a
// stalled worker from an idle one.
func (h *Heartbeat) Load() int64 { return h.ns.Load() }

// Age returns how long ago the last beat was, relative to now. A heartbeat
// that never beat reports a very large age — an unstarted worker with
// pending work is exactly what a watchdog should flag.
func (h *Heartbeat) Age(now time.Time) time.Duration {
	ns := h.ns.Load()
	if ns == 0 {
		return time.Duration(1<<63 - 1)
	}
	return now.Sub(time.Unix(0, ns))
}
