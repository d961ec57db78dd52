package obs

import (
	"sync"
	"time"
)

// TraceStep is one message in the context window that led to a verdict:
// the template the signature tree matched and the log-probability the
// model assigned it given the preceding stream (score = -LogProb; the
// stream's first message has no context and carries LogProb 0).
type TraceStep struct {
	Time     time.Time `json:"time"`
	Template int       `json:"template"`
	LogProb  float64   `json:"log_prob"`
}

// Trace explains one anomaly verdict after the fact: which host, which
// template, which cluster's model, the score against which threshold, and
// the per-window log-probabilities of the messages leading up to (and
// including) the flagged one. It is what /traces serves and what an
// operator reads to answer "why was this message flagged?".
type Trace struct {
	// Seq is a monotonically increasing sequence number (1-based) over
	// the monitor's lifetime, so operators can spot drops between polls.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Host string    `json:"host"`
	// Cluster is the model's cluster index (-1 when the deployment has a
	// single unclustered model); Model names the detector family.
	Cluster  int    `json:"cluster"`
	Model    string `json:"model,omitempty"`
	Template int    `json:"template"`
	// Score is the flagged message's anomaly score (negative
	// log-likelihood), strictly above Threshold.
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	// Window holds the most recent scored messages on this host, oldest
	// first, ending with the flagged message itself.
	Window []TraceStep `json:"window"`
	// ClusterSize is the size of the host's in-progress anomaly cluster
	// after this verdict; Warning marks the verdict that tipped the
	// cluster into an emitted warning signature.
	ClusterSize int  `json:"cluster_size"`
	Warning     bool `json:"warning"`
}

// TraceRing is a fixed-capacity ring buffer of decision traces: cheap to
// append, bounded in memory, and queryable newest-first. A nil TraceRing
// drops every Add — instrumented code never checks.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next uint64 // total traces ever added
}

// NewTraceRing returns a ring holding the last n traces (n >= 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]Trace, n)}
}

// Add appends one trace, stamping its sequence number, evicting the oldest
// when full.
func (r *TraceRing) Add(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next++
	t.Seq = r.next
	r.buf[(r.next-1)%uint64(len(r.buf))] = t
	r.mu.Unlock()
}

// Total returns how many traces were ever added (including evicted ones).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Filtered returns up to n traces newest first, keeping only those for
// host (when non-empty) and, with warningsOnly, only verdicts that
// emitted a warning. n <= 0 means every match retained.
func (r *TraceRing) Filtered(n int, host string, warningsOnly bool) []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	have := int(r.next)
	if have > len(r.buf) {
		have = len(r.buf)
	}
	var out []Trace
	for i := 0; i < have; i++ {
		t := &r.buf[(r.next-1-uint64(i))%uint64(len(r.buf))]
		if host != "" && t.Host != host {
			continue
		}
		if warningsOnly && !t.Warning {
			continue
		}
		out = append(out, *t)
		if n > 0 && len(out) >= n {
			break
		}
	}
	return out
}
