package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"nfvpredict/internal/ingest"
)

// window is the most frames in flight in the closed-loop phases. It equals
// ingest.DefaultShardQueue, so even if every frame hashes to one shard the
// queue cannot refuse one: zero drops is an invariant the run checks.
const window = ingest.DefaultShardQueue

// drainDeadline bounds every wait for a verdict; a frame with none by then
// counts as failed.
const drainDeadline = 20 * time.Second

var errStalled = errors.New("no verdict before the drain deadline")

// generator drives one stack over its one connection from the calling
// goroutine. It never spins: when the window is full it flushes and blocks
// on done (fed from OnScored), or, when scoring is shed and OnScored does
// not fire, sleeps between reads of the monitor's message counter.
type generator struct {
	fx   *fixture
	s    *stack
	done chan struct{}

	inflight int
	sent     int
	// blocked and polls count the two ways of waiting, so the smoke test can
	// hold the closed-loop phases to the first.
	blocked, polls int
}

// await blocks for one completion.
func (g *generator) await() error {
	g.blocked++
	t := time.NewTimer(drainDeadline)
	defer t.Stop()
	select {
	case <-g.done:
		g.inflight--
		return nil
	case <-t.C:
		return errStalled
	}
}

// reap collects completions that have already arrived.
func (g *generator) reap() {
	for {
		select {
		case <-g.done:
			g.inflight--
		default:
			return
		}
	}
}

// drain waits until nothing is in flight.
func (g *generator) drain() error {
	if err := g.s.w.Flush(); err != nil {
		return err
	}
	for g.inflight > 0 {
		if err := g.await(); err != nil {
			return err
		}
	}
	return nil
}

// send writes frames [lo,hi) with at most window in flight and returns
// with some still in flight; drain waits for those.
func (g *generator) send(lo, hi int) error {
	fx, w := g.fx, g.s.w
	for i := lo; i < hi; i++ {
		g.reap()
		if g.inflight >= window {
			if err := w.Flush(); err != nil {
				return err
			}
			if err := g.await(); err != nil {
				return err
			}
		}
		if _, err := w.Write(fx.frames[fx.off[i]:fx.off[i+1]]); err != nil {
			return err
		}
		g.inflight++
		g.sent++
	}
	return nil
}

// pass sends every frame once and waits for every verdict.
func (g *generator) pass() error {
	if err := g.send(0, g.fx.n()); err != nil {
		return err
	}
	return g.drain()
}

// pollChunk is how many frames sendPolled writes between reads of the
// monitor's counter.
const pollChunk = 128

// sendPolled is pass for a monitor that is shedding: completion is read
// from Monitor.Counters, refilling when half the window has drained.
func (g *generator) sendPolled() error {
	fx, w := g.fx, g.s.w
	c0, _ := g.s.mon.Counters()
	base := int(c0) - g.sent
	waitBelow := func(limit int) error {
		if err := w.Flush(); err != nil {
			return err
		}
		deadline := time.Now().Add(drainDeadline)
		for {
			msgs, _ := g.s.mon.Counters()
			g.s.meter.observe(int64(msgs))
			if g.sent-(int(msgs)-base) <= limit {
				return nil
			}
			if time.Now().After(deadline) {
				return errStalled
			}
			g.polls++
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < fx.n(); i++ {
		if i%pollChunk == 0 {
			msgs, _ := g.s.mon.Counters()
			g.s.meter.observe(int64(msgs))
			if g.sent-(int(msgs)-base) > window-pollChunk {
				if err := waitBelow(window - 3*pollChunk); err != nil {
					return err
				}
			}
		}
		if _, err := w.Write(fx.frames[fx.off[i]:fx.off[i+1]]); err != nil {
			return err
		}
		g.sent++
	}
	return waitBelow(0)
}

// sample times samplePasses passes over the served frames and returns
// their msgs/s by the wall clock and the process CPU time each frame cost,
// the generator's share included.
func (g *generator) sample() (rate, cpuUS float64, err error) {
	one := g.pass
	if g.fx.w.shed {
		one = g.sendPolled
	}
	n := float64(g.fx.n() * g.fx.w.samplePasses)
	t0, c0 := time.Now(), cpuTime()
	for p := 0; p < g.fx.w.samplePasses; p++ {
		if err := one(); err != nil {
			return 0, 0, err
		}
	}
	return n / time.Since(t0).Seconds(), float64((cpuTime() - c0).Nanoseconds()) / 1e3 / n, nil
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter keeps (time, messages done) pairs through the throughput phase, from
// which ceiling reads the rate of each short window. Scored messages are
// counted and stamped in OnScored by the shard workers (tick); a shedding
// monitor's hook is silent, so there the generator hands in the monitor's
// own counter whenever it reads it (observe).
type meter struct {
	every  int64 // messages between stamps, a quarter of a window
	t0     time.Time
	count  atomic.Int64
	next   atomic.Int64
	last   int64 // observe's previous stamp
	stamps []stamp
}

type stamp struct{ ns, n int64 }

// maxStamps bounds the meter's memory (4 MiB); at a stamp per 64 verdicts
// that is two minutes at 130 k msgs/s. Later stamps are dropped.
const maxStamps = 1 << 18

func newMeter(windowMsgs int) *meter {
	return &meter{every: int64(windowMsgs / 4), t0: time.Now(), stamps: make([]stamp, maxStamps)}
}

func (m *meter) put(n int64) {
	if i := m.next.Add(1) - 1; i < maxStamps {
		m.stamps[i] = stamp{int64(time.Since(m.t0)), n}
	}
}

// tick counts one verdict. It runs under a shard lock, on every shard.
func (m *meter) tick() {
	if n := m.count.Add(1); n%m.every == 0 {
		m.put(n)
	}
}

// observe stamps a reading of the monitor's message counter, if it has
// moved far enough. Only the generator's goroutine calls it.
func (m *meter) observe(n int64) {
	if n-m.last >= m.every {
		m.last = n
		m.put(n)
	}
}

// mark returns the position to pass to ceiling for "from here on". Nothing
// may be in flight.
func (m *meter) mark() int { return int(min(m.next.Load(), maxStamps)) }

// ceiling cuts the stamps since from into consecutive windows of at least
// four stamps' worth of messages and returns the q-quantile of the windows'
// rates in msgs/s, and how many windows there were.
func (m *meter) ceiling(from int, q float64) (float64, int) {
	st := append([]stamp(nil), m.stamps[from:m.mark()]...)
	// Two workers stamp side by side, so neighbours can land out of order.
	sort.Slice(st, func(a, b int) bool { return st[a].n < st[b].n })
	var rates []float64
	for i, j := 0, 1; j < len(st); j++ {
		if st[j].n-st[i].n < 4*m.every {
			continue
		}
		if dt := st[j].ns - st[i].ns; dt > 0 {
			rates = append(rates, float64(st[j].n-st[i].n)/(float64(dt)/1e9))
		}
		i = j
	}
	if len(rates) == 0 {
		return 0, 0
	}
	sort.Float64s(rates)
	return rates[int(q*float64(len(rates)-1))], len(rates)
}

// rtt sends frames one at a time, each after the previous verdict, for
// budget or until max samples, and returns the sorted round trips.
func (g *generator) rtt(budget time.Duration, max int) ([]time.Duration, error) {
	fx, w := g.fx, g.s.w
	out := make([]time.Duration, 0, max)
	start := time.Now()
	for i := 0; i < max; i++ {
		j := i % fx.n()
		t0 := time.Now()
		if _, err := w.Write(fx.frames[fx.off[j]:fx.off[j+1]]); err != nil {
			return nil, err
		}
		g.inflight++
		g.sent++
		if err := g.drain(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
		if i%256 == 255 && time.Since(start) > budget {
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// settle checks the conservation law every workload must meet: each frame
// sent was received by the server, refused by a shard, or malformed — and,
// since the window fits the queue, none was refused or malformed.
func (g *generator) settle() (failed int, err error) {
	// The listener counts a frame after the monitor has taken it, so the
	// last verdict can overtake its count.
	var st ingest.Stats
	eventually(func() bool {
		st = g.s.srv.Stats()
		return st.Received+st.Malformed+st.ShardDropped >= uint64(g.sent)
	})
	if got := st.Received + st.Malformed + st.ShardDropped; got != uint64(g.sent) {
		return g.sent - int(st.Received), fmt.Errorf("server accounted for %d of %d frames sent", got, g.sent)
	}
	if st.Malformed != 0 || st.ShardDropped != 0 {
		return int(st.Malformed + st.ShardDropped), fmt.Errorf("%d malformed, %d refused by a full shard queue", st.Malformed, st.ShardDropped)
	}
	return 0, nil
}

// eventually polls a condition that another goroutine is about to make
// true — a counter bumped just after the event the caller waited for —
// and gives up after a second.
func eventually(ok func() bool) bool {
	for deadline := time.Now().Add(time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(xs []float64) float64 { return rank(xs, 0.5) }

// rank returns the sample at the q-quantile's rank, rounding up.
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(q*float64(len(s)-1)))]
}
