package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one trace through the serving pipeline. IDs are minted
// at frame accept (Tracer.Accept) and carried with the message through
// every stage, so a histogram exemplar, a /spans entry, and a log line can
// all name the same decision. The zero ID means "untraced". JSON renders
// the ID as a fixed-width hex string — the form exemplar labels use.
type SpanID uint64

// String renders the ID the way exemplars and /spans expose it.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the hex form.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex form.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("obs: bad span id %q", s)
	}
	*id = SpanID(v)
	return nil
}

// ParseSpanID parses the hex form (with or without leading zeros); it also
// accepts plain decimal for operator convenience. Returns 0 on garbage.
func ParseSpanID(s string) SpanID {
	if v, err := strconv.ParseUint(s, 16, 64); err == nil {
		return SpanID(v)
	}
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return SpanID(v)
	}
	return 0
}

// StageDurations decomposes one message's accept→verdict wall time into
// the pipeline stages it passed through. Each field is a wall-clock
// timeline segment, not an amortized cost share: while a drain's shared
// signature-tree section runs, every message in the drain is waiting on
// it, so the whole section is on each message's critical path. The named
// stages of a fully sampled decision span therefore sum to (within
// scheduler noise) the span's TotalNS.
//
// Zero fields marshal away: a synchronous HandleMessage span has no
// decode/queue/batch stages, a checkpoint span only its checkpoint stage.
type StageDurations struct {
	// DecodeNS is syslog parse time on the listener goroutine.
	DecodeNS int64 `json:"decode_ns,omitempty"`
	// QueueNS is time from accept to the scoring shard holding the
	// message under its mutex: shard-queue wait plus lock acquisition
	// (on the synchronous path, just the lock wait).
	QueueNS int64 `json:"queue_ns,omitempty"`
	// SigtreeNS is the template match/learn section of the message's
	// drain: tokenization plus the shared treeMu critical section for every
	// member, up to the first scored member's step starting.
	SigtreeNS int64 `json:"sigtree_ns,omitempty"`
	// BatchNS is the wait within a drain: from the drain's sigtree section
	// ending to this message's own step starting, i.e. the steps and
	// verdicts of the members ahead of it. 0 for the first scored message
	// of a drain, so always 0 on the synchronous path.
	BatchNS int64 `json:"batch_ns,omitempty"`
	// ScoreNS is this message's LSTM step.
	ScoreNS int64 `json:"score_ns,omitempty"`
	// VerdictNS is threshold evaluation, anomaly clustering, warning
	// emission, and building the explanation and the span.
	VerdictNS int64 `json:"verdict_ns,omitempty"`
	// CheckpointNS is snapshot+encode time (checkpoint spans only).
	CheckpointNS int64 `json:"checkpoint_ns,omitempty"`
}

// Sum adds the recorded stages.
func (s StageDurations) Sum() int64 {
	return s.DecodeNS + s.QueueNS + s.SigtreeNS + s.BatchNS + s.ScoreNS + s.VerdictNS + s.CheckpointNS
}

// Span kinds. Decision spans trace one message accept→verdict; checkpoint
// and adaptation spans trace the long-running maintenance operations that
// share the serving locks, so a latency tail can be attributed to them.
const (
	KindDecision   = "decision"
	KindCheckpoint = "checkpoint"
	KindAdaptation = "adaptation"
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

// Explanation is what an operator reads to answer "why was this message
// flagged?": which cluster's model scored it against which threshold, the
// host's most recent scored messages, and how far its anomaly cluster has
// grown. Every anomalous decision span carries one, and no other span does.
type Explanation struct {
	// Cluster is the model's cluster index (-1 when the deployment has a
	// single unclustered model); Model names the detector family.
	Cluster   int     `json:"cluster"`
	Model     string  `json:"model,omitempty"`
	Threshold float64 `json:"threshold"`
	// Window holds the host's most recent scored messages, oldest first,
	// ending with the flagged message itself: its Time is the message's
	// timestamp and its LogProb the negated score.
	Window []TraceStep `json:"window"`
	// ClusterSize is the size of the host's in-progress anomaly cluster
	// after this verdict.
	ClusterSize int `json:"cluster_size"`
}

// Span is one traced operation. For decision spans the stage fields
// decompose the accept→verdict latency. A span recorded only because its
// verdict was anomalous carries Sampled=false and its total but no stage
// breakdown: the stage clocks were never started for it.
type Span struct {
	// Seq is a monotonically increasing ring sequence (1-based), stamped
	// at Add, so operators can spot eviction between polls.
	Seq     uint64 `json:"seq"`
	TraceID SpanID `json:"trace_id"`
	Kind    string `json:"kind"`
	// Time is the wall-clock accept time (operation start for
	// checkpoint/adaptation spans).
	Time time.Time `json:"time"`
	// Host names the vPE (decision spans).
	Host string `json:"host,omitempty"`
	// Template/Score/Anomalous/Warning describe the verdict; Warning
	// marks spans whose verdict tipped an anomaly cluster into an
	// emitted warning signature.
	Template  int     `json:"template,omitempty"`
	Score     float64 `json:"score,omitempty"`
	Anomalous bool    `json:"anomalous,omitempty"`
	Warning   bool    `json:"warning,omitempty"`
	// Explain is set on anomalous decision spans, nil on every other.
	Explain *Explanation `json:"explain,omitempty"`
	// Sampled marks spans with a full stage breakdown.
	Sampled bool `json:"sampled"`
	// TotalNS is the end-to-end wall time (accept→verdict for decisions).
	TotalNS int64          `json:"total_ns"`
	Stages  StageDurations `json:"stages"`
}

// SpanRing is a fixed-capacity ring of spans, the storage behind /spans:
// cheap to append, bounded in memory, queryable newest-first. A nil
// SpanRing drops every Add.
type SpanRing struct {
	mu  sync.Mutex
	buf []Span
	// ex is each slot's explanation storage, reused by every explained
	// span the slot holds: once the ring has wrapped, recording an
	// anomalous verdict allocates nothing.
	ex   []Explanation
	next uint64
}

// NewSpanRing returns a ring holding the last n spans (n >= 1).
func NewSpanRing(n int) *SpanRing {
	if n < 1 {
		n = 1
	}
	return &SpanRing{buf: make([]Span, n), ex: make([]Explanation, n)}
}

// TraceRing is SpanRing's old name. It exists only for bench/ until
// ROADMAP item 1A deletes it.
type TraceRing = SpanRing

// NewTraceRing is NewSpanRing under its old name. It exists only for
// bench/ until ROADMAP item 1A deletes it.
func NewTraceRing(n int) *TraceRing { return NewSpanRing(n) }

// Add appends one span, stamping its sequence number. It copies the
// span's explanation, so the caller may reuse it once Add returns.
func (r *SpanRing) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next++
	s.Seq = r.next
	i := (r.next - 1) % uint64(len(r.buf))
	if s.Explain != nil {
		ex := &r.ex[i]
		window := append(ex.Window[:0], s.Explain.Window...)
		*ex = *s.Explain
		ex.Window = window
		s.Explain = ex
	}
	r.buf[i] = s
	r.mu.Unlock()
}

// Total returns how many spans were ever added (including evicted ones).
func (r *SpanRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// SpanQuery filters a SpanRing read. The zero query matches everything.
type SpanQuery struct {
	// N caps the result count (<= 0: everything retained).
	N int
	// Host, when non-empty, matches decision spans for one vPE.
	Host string
	// WarningsOnly keeps only spans whose verdict emitted a warning.
	WarningsOnly bool
	// AnomalousOnly keeps only anomalous verdicts: the spans that carry
	// an Explanation.
	AnomalousOnly bool
	// TraceID, when non-zero, matches one trace (exemplar resolution).
	TraceID SpanID
	// Kind, when non-empty, matches one span kind.
	Kind string
}

func (q SpanQuery) match(s *Span) bool {
	if q.Host != "" && s.Host != q.Host {
		return false
	}
	if q.WarningsOnly && !s.Warning {
		return false
	}
	if q.AnomalousOnly && !s.Anomalous {
		return false
	}
	if q.TraceID != 0 && s.TraceID != q.TraceID {
		return false
	}
	if q.Kind != "" && s.Kind != q.Kind {
		return false
	}
	return true
}

// Query returns up to q.N matching spans, newest first.
func (r *SpanRing) Query(q SpanQuery) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	have := int(r.next)
	if have > len(r.buf) {
		have = len(r.buf)
	}
	var out []Span
	for i := 0; i < have; i++ {
		s := &r.buf[(r.next-1-uint64(i))%uint64(len(r.buf))]
		if !q.match(s) {
			continue
		}
		out = append(out, *s)
		if s.Explain != nil { // the slot's storage is reused: copy it out
			ex := *s.Explain
			ex.Window = append([]TraceStep(nil), ex.Window...)
			out[len(out)-1].Explain = &ex
		}
		if q.N > 0 && len(out) >= q.N {
			break
		}
	}
	return out
}

// Tracer mints trace IDs at frame accept and decides which messages carry
// full stage clocks: N out of every M accepted messages are sampled
// (deterministic round-robin over the accept counter, so a steady stream
// samples evenly rather than in bursts), and every anomalous verdict gets
// a span regardless — an unsampled one carries the total latency but no
// stage breakdown, because its clocks were never started. All methods are
// nil-safe: a nil Tracer mints ID 0 and samples nothing, so instrumented
// paths pay one branch when tracing is off.
type Tracer struct {
	ring *SpanRing
	n, m uint64
	base uint64
	ctr  atomic.Uint64
	// aux mints IDs for out-of-band spans (MintID); separate from ctr so
	// maintenance spans never consume a message-sampling slot.
	aux atomic.Uint64

	// spans/sampled count emissions for the tracing metric family; nil
	// (no-op) when the tracer is not exported into a registry.
	spans   *Counter
	sampled *Counter
}

// NewTracer builds a tracer emitting into ring, sampling n of every m
// accepted messages. n <= 0 samples nothing (anomalous verdicts still emit);
// m <= 1 with n >= 1 samples everything. The ring may be nil (sampling
// decisions are still made, emissions dropped) but usually is not.
func NewTracer(ring *SpanRing, n, m int) *Tracer {
	if m < 1 {
		m = 1
	}
	if n < 0 {
		n = 0
	}
	if n > m {
		n = m
	}
	// High bits distinguish processes/restarts so exemplar IDs from a
	// previous incarnation do not resolve against the wrong ring entry.
	base := uint64(time.Now().UnixNano()) << 40
	return &Tracer{ring: ring, n: uint64(n), m: uint64(m), base: base}
}

// Export registers the tracer's counters in reg.
func (t *Tracer) Export(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.spans = reg.Counter("trace_spans_total", "Spans emitted into the span ring.")
	t.sampled = reg.Counter("trace_sampled_total", "Accepted messages chosen for full stage-clock sampling.")
}

// Accept mints the next trace ID and reports whether this message is
// sampled (full stage clocks). It is the hot-path entry: one atomic
// increment and a modulo.
func (t *Tracer) Accept() (SpanID, bool) {
	if t == nil {
		return 0, false
	}
	c := t.ctr.Add(1)
	sampled := (c-1)%t.m < t.n
	if sampled {
		t.sampled.Inc()
	}
	return SpanID(t.base | (c & 0xffffffffff)), sampled
}

// MintID mints a trace ID for an out-of-band span — checkpoint or
// adaptation — without touching the message-sampling state: the N-in-M
// rotation keeps its phase and trace_sampled_total still counts only
// accepted messages. IDs descend from the top of the 40-bit counter
// space while Accept's ascend from the bottom, so the two sequences
// cannot collide within a process lifetime.
func (t *Tracer) MintID() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.base | (^t.aux.Add(1) & 0xffffffffff))
}

// Emit records one finished span.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	t.spans.Inc()
	t.ring.Add(s)
}
