package resilience

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBackoffBounds pins the jittered-backoff envelope: every delay stays
// within [base·2ⁿ, base·2ⁿ·(1+jitter)] capped at max — the bound the ingest
// listeners' accept-retry loop relies on.
func TestBackoffBounds(t *testing.T) {
	base, max, jitter := 10*time.Millisecond, 80*time.Millisecond, 0.5
	b := NewBackoff(base, max, jitter, 42)
	want := base
	for i := 0; i < 12; i++ {
		d := b.Next()
		lo := want
		hi := time.Duration(float64(want) * (1 + jitter))
		if d < lo || d > hi {
			t.Fatalf("delay %d: got %v, want within [%v, %v]", i, d, lo, hi)
		}
		if want < max {
			want *= 2
			if want > max {
				want = max
			}
		}
	}
	// After many steps the un-jittered component is pinned at max.
	if d := b.Next(); d < max || d > time.Duration(float64(max)*(1+jitter)) {
		t.Fatalf("steady-state delay %v escaped [%v, %v]", d, max, time.Duration(float64(max)*(1+jitter)))
	}
}

// TestBackoffJitterDeterministic pins that a fixed seed yields a fixed
// sequence (tests depend on it) and that distinct seeds de-synchronize.
func TestBackoffJitterDeterministic(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(time.Millisecond, time.Second, 0.5, seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b2 := seq(7), seq(7)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b2[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical jitter sequences")
	}
}

func TestBackoffReset(t *testing.T) {
	b := NewBackoff(time.Millisecond, time.Second, 0, 1)
	b.Next()
	b.Next()
	if d := b.Next(); d != 4*time.Millisecond {
		t.Fatalf("third delay = %v, want 4ms", d)
	}
	b.Reset()
	if d := b.Next(); d != time.Millisecond {
		t.Fatalf("post-reset delay = %v, want 1ms", d)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(nil, RetryPolicy{Attempts: 5, Base: time.Microsecond, Seed: 1}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	sentinel := errors.New("persistent")
	calls := 0
	err := Retry(nil, RetryPolicy{Attempts: 4, Base: time.Microsecond, Seed: 1}, func() error {
		calls++
		return sentinel
	})
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap the last attempt's error", err)
	}
	if !strings.Contains(err.Error(), "4 attempt(s)") {
		t.Fatalf("error %q lacks attempt count", err)
	}
}

func TestRetryStopInterrupts(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	calls := 0
	err := Retry(stop, RetryPolicy{Attempts: 100, Base: time.Hour, Seed: 1}, func() error {
		calls++
		return errors.New("nope")
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (stop should interrupt the first backoff)", calls)
	}
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("error %v, want interruption error", err)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "spool.nfvs")
	for i, want := range []string{p + ".corrupt", p + ".corrupt.1", p + ".corrupt.2"} {
		if err := os.WriteFile(p, []byte{byte(i)}, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := Quarantine(p)
		if err != nil {
			t.Fatalf("quarantine %d: %v", i, err)
		}
		if q != want {
			t.Fatalf("quarantine %d landed at %s, want %s", i, q, want)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("quarantine %d left the original in place", i)
		}
		body, err := os.ReadFile(q)
		if err != nil || len(body) != 1 || body[0] != byte(i) {
			t.Fatalf("quarantine %d lost the evidence: %v %v", i, body, err)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := &Breaker{Threshold: 3, Cooldown: time.Minute, now: func() time.Time { return clock }}

	// Closed: failures below the threshold keep admitting.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Failure()
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", st)
	}
	b.Failure() // third consecutive failure opens
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", st)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	// Cooldown elapses → exactly one half-open probe.
	clock = clock.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second call alongside the probe")
	}

	// Probe fails → re-open, another full cooldown.
	b.Failure()
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call immediately")
	}
	clock = clock.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.Success()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("recovered breaker rejected a call")
	}
	if st := b.Status(); st.Opens != 2 || st.StateName != "closed" {
		t.Fatalf("status = %+v, want 2 opens, closed", st)
	}
}

func TestBreakerNilAdmitsEverything(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker rejected a call")
	}
	b.Success()
	b.Failure()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("nil breaker state = %v", st)
	}
	if st := b.Status(); st.StateName != "closed" {
		t.Fatalf("nil breaker status = %+v", st)
	}
}

func TestHeartbeatAge(t *testing.T) {
	var hb Heartbeat
	now := time.Unix(2000, 0)
	if age := hb.Age(now); age < 100*365*24*time.Hour {
		t.Fatalf("never-beat heartbeat age = %v, want enormous", age)
	}
	hb.ns.Store(now.Add(-3 * time.Second).UnixNano())
	if age := hb.Age(now); age != 3*time.Second {
		t.Fatalf("age = %v, want 3s", age)
	}
	hb.Beat()
	if age := hb.Age(time.Now()); age > time.Minute {
		t.Fatalf("fresh beat reads stale: %v", age)
	}
}

func TestDegraderEscalatesAndRecovers(t *testing.T) {
	var transitions []string
	d := NewDegrader(func(from, to Mode, reason string) {
		transitions = append(transitions, from.String()+"->"+to.String()+":"+reason)
	})

	// Prime with a calm sample.
	if m := d.Eval(Sample{QueueFrac: 0.1}); m != ModeNormal {
		t.Fatalf("calm sample => %v", m)
	}
	// Queue overload sheds learning immediately.
	if m := d.Eval(Sample{QueueFrac: 0.9}); m != ModeShedLearning {
		t.Fatalf("overload sample => %v, want shed-learning", m)
	}
	// A scoring-fault burst escalates straight to shed-scoring.
	if m := d.Eval(Sample{QueueFrac: 0.1, ScoringFaults: 5}); m != ModeShedScoring {
		t.Fatalf("scoring burst => %v, want shed-scoring", m)
	}
	// Fewer than recoverEvals clean samples are not enough.
	clean := Sample{QueueFrac: 0.1, ScoringFaults: 5}
	for i := 1; i < recoverEvals; i++ {
		if m := d.Eval(clean); m != ModeShedScoring {
			t.Fatalf("clean sample %d already recovered: %v", i, m)
		}
	}
	// The recoverEvals-th clean sample steps back one level only.
	if m := d.Eval(clean); m != ModeShedLearning {
		t.Fatalf("recovery step => %v, want shed-learning", m)
	}
	// A dirty sample (queue above recoverAt) resets the clean streak.
	if m := d.Eval(Sample{QueueFrac: 0.5, ScoringFaults: 5}); m != ModeShedLearning {
		t.Fatalf("mid-pressure sample => %v, want shed-learning held", m)
	}
	for i := 1; i < recoverEvals; i++ {
		if m := d.Eval(clean); m != ModeShedLearning {
			t.Fatalf("clean streak restarted too fast: %v after %d samples", m, i)
		}
	}
	if m := d.Eval(clean); m != ModeNormal {
		t.Fatalf("final recovery => %v, want normal", m)
	}
	want := []string{
		"normal->shed-learning:shard queues backed up",
		"shed-learning->shed-scoring:scoring faults bursting",
		"shed-scoring->shed-learning:recovered",
		"shed-learning->normal:recovered",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}
}

func TestDegraderIOFaultBurstShedsLearning(t *testing.T) {
	d := NewDegrader(nil)
	d.Eval(Sample{}) // prime
	if m := d.Eval(Sample{IOFaults: 4}); m != ModeShedLearning {
		t.Fatalf("I/O burst => %v, want shed-learning", m)
	}
	if r := d.Reason(); r != "durable I/O faulting" {
		t.Fatalf("reason = %q", r)
	}
	// Counter reset (process restart semantics) reads as zero delta: it
	// opens the clean streak that recovers.
	var m Mode
	for i := 0; i < recoverEvals; i++ {
		m = d.Eval(Sample{IOFaults: 1})
	}
	if m != ModeNormal {
		t.Fatalf("counter reset then clean samples => %v, want normal (recovered)", m)
	}
}
