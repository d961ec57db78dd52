package obs

import (
	"strings"
	"testing"
)

// TestScopeIdempotentHandles is the property the lifecycle manager relies
// on: building the "same" scoped metric twice (as repeated candidate
// detectors do) returns the same handle, and values accumulate instead of
// colliding or panicking.
func TestScopeIdempotentHandles(t *testing.T) {
	reg := NewRegistry()
	s1 := reg.Scope("candidate_")
	s2 := reg.Scope("candidate_")

	c1 := s1.Counter("epochs_total", "help")
	c2 := s2.Counter("epochs_total", "help")
	if c1 != c2 {
		t.Fatal("same scope+name produced distinct counter handles")
	}
	c1.Inc()
	c2.Inc()
	if got := c1.Value(); got != 2 {
		t.Fatalf("accumulated value = %d, want 2", got)
	}

	h1 := s1.Histogram("gate_delta", "help", LinearBuckets(0, 0.1, 4))
	h2 := s2.Histogram("gate_delta", "help", LinearBuckets(0, 0.1, 4))
	if h1 != h2 {
		t.Fatal("same scope+name produced distinct histogram handles")
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "candidate_epochs_total 2") {
		t.Fatalf("exposition missing prefixed counter:\n%s", sb.String())
	}
}

// TestScopeNilSafety: a nil registry yields a nil scope whose handles are
// the usual no-op nils.
func TestScopeNilSafety(t *testing.T) {
	var reg *Registry
	s := reg.Scope("x_")
	if s != nil {
		t.Fatal("nil registry produced a non-nil scope")
	}
	s.Counter("a", "h").Inc() // must not panic
	s.Gauge("b", "h").Set(1)
	s.Histogram("c", "h", LinearBuckets(0, 1, 2)).Observe(1)
}
