package obs

// Scope is a name-prefixing view of a Registry, the namespacing device for
// components that are constructed repeatedly against one registry — e.g.
// the lifecycle manager's candidate detectors, which are rebuilt every
// adaptation cycle. Because Registry registration is idempotent by name, a
// metric created through the same scope twice returns the same handle, so
// a freshly built candidate inherits (and keeps incrementing) the counters
// of its predecessors instead of colliding with them.
//
// A nil Scope, like a nil Registry, hands out nil (no-op) handles, so
// "observability off" composes through scoped components unchanged.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a view of the registry that prefixes every metric name
// with prefix. A nil registry returns a nil scope.
func (r *Registry) Scope(prefix string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, prefix: prefix}
}

// Counter registers (or fetches) a counter named prefix+name.
func (s *Scope) Counter(name, help string) *Counter {
	if s == nil {
		return nil
	}
	return s.r.Counter(s.prefix+name, help)
}

// Gauge registers (or fetches) a gauge named prefix+name.
func (s *Scope) Gauge(name, help string) *Gauge {
	if s == nil {
		return nil
	}
	return s.r.Gauge(s.prefix+name, help)
}

// Histogram registers (or fetches) a histogram named prefix+name.
func (s *Scope) Histogram(name, help string, bounds []float64) *Histogram {
	if s == nil {
		return nil
	}
	return s.r.Histogram(s.prefix+name, help, bounds)
}
