// Package resilience is the runtime's self-healing toolkit: exponential
// backoff with jitter, a deadline-bounded retrier for durable I/O, a
// circuit breaker for background control loops, a heartbeat a watchdog
// reads for long-lived workers, quarantine of corrupt artifacts, and a
// degradation-mode controller. The paper's monitor is only useful if it
// keeps emitting warnings *through* the failure episodes it predicts; this
// package is the machinery that keeps a partially-failing monitor process
// degraded instead of dead. It depends only on the standard library so
// every layer (ingest, lifecycle, cmd) can use it without cycles.
package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces an exponentially growing delay sequence with
// multiplicative jitter: the n-th delay is uniform in
// [base·factorⁿ, base·factorⁿ·(1+Jitter)], capped at Max. Jitter breaks
// the reconnect stampede after a fleet-wide blip — a thousand monitors
// that all saw the same outage must not all retry on the same tick.
//
// The zero value is unusable; construct with NewBackoff. A Backoff is safe
// for concurrent use, though each retry loop usually owns its own.
type Backoff struct {
	// Base is the first delay (default 1ms).
	Base time.Duration
	// Max caps the un-jittered delay (default 1s). With jitter the
	// returned delay is at most Max·(1+Jitter).
	Max time.Duration
	// Factor is the growth multiplier (default 2).
	Factor float64
	// Jitter is the uniform jitter fraction added on top of the
	// deterministic delay: 0.5 means up to +50%. Negative reads as 0.
	Jitter float64

	mu  sync.Mutex
	cur time.Duration
	rng *rand.Rand
}

// NewBackoff builds a backoff; zero fields take the defaults above. seed
// fixes the jitter sequence — tests pass a constant, production callers
// pass something process-unique (0 means "seed from the clock"), because a
// shared seed would re-synchronize the very stampede jitter exists to
// break.
func NewBackoff(base, max time.Duration, jitter float64, seed int64) *Backoff {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	b := &Backoff{Base: base, Max: max, Factor: 2, Jitter: jitter}
	b.rng = rand.New(rand.NewSource(seed))
	return b
}

// Next returns the next delay in the sequence and advances it.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	base, max, factor, jitter := b.Base, b.Max, b.Factor, b.Jitter
	if base <= 0 {
		base = time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	if factor < 1 {
		factor = 2
	}
	if jitter < 0 {
		jitter = 0
	}
	if b.cur <= 0 {
		b.cur = base
	}
	d := b.cur
	if d > max {
		d = max
	}
	next := time.Duration(float64(b.cur) * factor)
	if next > max {
		next = max
	}
	b.cur = next
	if jitter > 0 && b.rng != nil {
		d += time.Duration(b.rng.Float64() * jitter * float64(d))
	}
	return d
}

// Reset restarts the sequence from Base, the call a retry loop makes after
// a success.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.cur = 0
	b.mu.Unlock()
}
