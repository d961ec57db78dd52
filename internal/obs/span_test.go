package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

func TestSpanIDString(t *testing.T) {
	id := SpanID(0xab)
	if got := id.String(); got != "00000000000000ab" {
		t.Fatalf("String() = %q, want fixed-width hex", got)
	}
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"00000000000000ab"` {
		t.Fatalf("MarshalJSON = %s", b)
	}
	var back SpanID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip = %v, want %v", back, id)
	}
}

func TestParseSpanID(t *testing.T) {
	if got := ParseSpanID("00000000000000ab"); got != 0xab {
		t.Fatalf("hex parse = %v", got)
	}
	if got := ParseSpanID("ab"); got != 0xab {
		t.Fatalf("short hex parse = %v", got)
	}
	// "99" is valid hex, so hex interpretation wins: 0x99.
	if got := ParseSpanID("99"); got != 0x99 {
		t.Fatalf("ambiguous parse = %v, want hex 0x99", got)
	}
	if got := ParseSpanID("not-an-id"); got != 0 {
		t.Fatalf("garbage parse = %v, want 0", got)
	}
}

func TestStageDurationsSum(t *testing.T) {
	s := StageDurations{DecodeNS: 1, QueueNS: 2, SigtreeNS: 3, BatchNS: 4, ScoreNS: 5, VerdictNS: 6, CheckpointNS: 7}
	if got := s.Sum(); got != 28 {
		t.Fatalf("Sum() = %d, want 28", got)
	}
	// Zero stages marshal away: a checkpoint span's JSON carries only its
	// checkpoint stage.
	b, err := json.Marshal(StageDurations{CheckpointNS: 9})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"checkpoint_ns":9}` {
		t.Fatalf("marshal = %s", b)
	}
}

func TestSpanRingQuery(t *testing.T) {
	r := NewSpanRing(4)
	for i := 1; i <= 6; i++ {
		r.Add(Span{
			TraceID: SpanID(i),
			Kind:    KindDecision,
			Host:    fmt.Sprintf("vpe-%d", i%2),
			Warning: i%3 == 0,
		})
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d", r.Total())
	}
	// Capacity 4: spans 3..6 retained, newest first.
	all := r.Query(SpanQuery{})
	if len(all) != 4 || all[0].TraceID != 6 || all[3].TraceID != 3 {
		t.Fatalf("Recent(0) = %+v", all)
	}
	if all[0].Seq != 6 {
		t.Fatalf("Seq = %d, want 6", all[0].Seq)
	}
	if got := r.Query(SpanQuery{N: 2}); len(got) != 2 || got[0].TraceID != 6 || got[1].TraceID != 5 {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if got := r.Query(SpanQuery{Host: "vpe-0"}); len(got) != 2 || got[0].TraceID != 6 || got[1].TraceID != 4 {
		t.Fatalf("host query = %+v", got)
	}
	if got := r.Query(SpanQuery{WarningsOnly: true}); len(got) != 2 || got[0].TraceID != 6 || got[1].TraceID != 3 {
		t.Fatalf("warnings query = %+v", got)
	}
	if got := r.Query(SpanQuery{TraceID: 5}); len(got) != 1 || got[0].TraceID != 5 {
		t.Fatalf("trace query = %+v", got)
	}
	if got := r.Query(SpanQuery{Kind: KindCheckpoint}); len(got) != 0 {
		t.Fatalf("kind query = %+v", got)
	}
	var nilRing *SpanRing
	nilRing.Add(Span{})
	if nilRing.Total() != 0 || nilRing.Query(SpanQuery{N: 1}) != nil {
		t.Fatal("nil ring not inert")
	}
}

func TestTracerSampling(t *testing.T) {
	ring := NewSpanRing(32)
	reg := NewRegistry()
	tr := NewTracer(ring, 1, 4)
	tr.Export(reg)
	sampledN := 0
	ids := make(map[SpanID]bool)
	for i := 0; i < 16; i++ {
		id, sampled := tr.Accept()
		if id == 0 {
			t.Fatal("minted zero trace ID")
		}
		if ids[id] {
			t.Fatalf("duplicate trace ID %v", id)
		}
		ids[id] = true
		if sampled {
			sampledN++
		}
	}
	if sampledN != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4", sampledN)
	}
	tr.Emit(Span{TraceID: 1})
	s := reg.Snapshot()
	if s.Counters["trace_sampled_total"] != 4 || s.Counters["trace_spans_total"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if ring.Total() != 1 {
		t.Fatalf("ring total = %d", ring.Total())
	}

	// n=0 samples nothing but still mints IDs.
	off := NewTracer(ring, 0, 16)
	for i := 0; i < 8; i++ {
		id, sampled := off.Accept()
		if id == 0 || sampled {
			t.Fatalf("n=0: id=%v sampled=%v", id, sampled)
		}
	}

	// Nil tracer: ID 0, nothing sampled, Emit is a no-op.
	var nilT *Tracer
	if id, sampled := nilT.Accept(); id != 0 || sampled {
		t.Fatal("nil tracer minted")
	}
	nilT.Emit(Span{})
}

// TestTracerMintID pins the out-of-band ID path: checkpoint/adaptation
// spans mint IDs without consuming a message-sampling slot, so the N-in-M
// rotation keeps its phase and trace_sampled_total counts only accepted
// messages.
func TestTracerMintID(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(NewSpanRing(8), 1, 4)
	tr.Export(reg)

	ids := make(map[SpanID]bool)
	for i := 0; i < 4; i++ {
		id := tr.MintID()
		if id == 0 || ids[id] {
			t.Fatalf("minted id %v (dup=%v)", id, ids[id])
		}
		ids[id] = true
	}
	if got := reg.Snapshot().Counters["trace_sampled_total"]; got != 0 {
		t.Fatalf("MintID bumped trace_sampled_total to %d", got)
	}
	// The sampling rotation is unmoved: the first accepted message is
	// still slot 0 of the 1-in-4 rotation, i.e. sampled.
	for i := 0; i < 8; i++ {
		id, sampled := tr.Accept()
		if sampled != (i%4 == 0) {
			t.Fatalf("accept %d sampled=%v after MintIDs: rotation phase moved", i, sampled)
		}
		if ids[id] {
			t.Fatalf("accept ID %v collides with a minted ID", id)
		}
	}
	if got := reg.Snapshot().Counters["trace_sampled_total"]; got != 2 {
		t.Fatalf("trace_sampled_total = %d, want 2", got)
	}
	var nilT *Tracer
	if nilT.MintID() != 0 {
		t.Fatal("nil tracer minted an out-of-band ID")
	}
}

func TestTracerBaseDistinguishesRestarts(t *testing.T) {
	a := NewTracer(nil, 1, 1)
	id, _ := a.Accept()
	if uint64(id)>>40 == 0 {
		t.Fatalf("trace ID %v carries no process base in its high bits", id)
	}
	if uint64(id)&0xffffffffff != 1 {
		t.Fatalf("low bits = %d, want counter 1", uint64(id)&0xffffffffff)
	}
}

// TestPrometheusExemplarGolden pins the two text expositions. The 0.0.4
// format (WritePrometheus) is exemplar-free — its parser treats a
// mid-line '#' as an error, so one exemplar suffix would cost a standard
// scrape every metric. The negotiated OpenMetrics form (WriteOpenMetrics)
// carries the ` # {trace_id="..."} value ts` suffix on exemplared
// buckets, renames counter families without their _total suffix, and
// ends with # EOF.
func TestPrometheusExemplarGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", "Accepted frames.").Add(7)
	h := r.Histogram("handle_seconds", "Handle latency.", []float64{0.1, 1})
	h.Observe(0.05)                      // bucket 0, no exemplar
	h.ObserveExemplar(0.5, SpanID(0xab)) // bucket 1 with exemplar
	h.Observe(0.6)                       // bucket 1 again: count advances, exemplar stays

	ex := h.Exemplars()
	if ex[0] != nil || ex[1] == nil || ex[2] != nil {
		t.Fatalf("exemplar layout = %v", ex)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP frames_total Accepted frames.
# TYPE frames_total counter
frames_total 7
# HELP handle_seconds Handle latency.
# TYPE handle_seconds histogram
handle_seconds_bucket{le="0.1"} 1
handle_seconds_bucket{le="1"} 3
handle_seconds_bucket{le="+Inf"} 3
handle_seconds_sum 1.15
handle_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Fatalf("0.0.4 exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	buf.Reset()
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprintf(`# HELP frames Accepted frames.
# TYPE frames counter
frames_total 7
# HELP handle_seconds Handle latency.
# TYPE handle_seconds histogram
handle_seconds_bucket{le="0.1"} 1
handle_seconds_bucket{le="1"} 3 # {trace_id="00000000000000ab"} 0.5 %.3f
handle_seconds_bucket{le="+Inf"} 3
handle_seconds_sum 1.15
handle_seconds_count 3
# EOF
`, float64(ex[1].Time.UnixNano())/1e9)
	if got := buf.String(); got != want {
		t.Fatalf("OpenMetrics exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// ID 0 must not allocate or attach an exemplar (the unsampled path).
	h2 := r.Histogram("other_seconds", "", []float64{1})
	h2.ObserveExemplar(0.5, 0)
	for _, e := range h2.Exemplars() {
		if e != nil {
			t.Fatal("zero trace ID recorded an exemplar")
		}
	}

	// JSON snapshot carries the exemplars only when at least one landed.
	s := r.Snapshot()
	if hs := s.Histograms["handle_seconds"]; len(hs.Exemplars) != 3 || hs.Exemplars[1] == nil {
		t.Fatalf("snapshot exemplars = %+v", hs.Exemplars)
	}
	if hs := s.Histograms["other_seconds"]; hs.Exemplars != nil {
		t.Fatalf("exemplar-free snapshot = %+v", hs.Exemplars)
	}
}

func TestLoggerWarnLimited(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(1000, 0)
	l := NewLogger(&buf, LevelInfo)
	l.now = func() time.Time { return now }
	suppressed := NewRegistry().Counter("log_suppressed_total", "")
	l.SetRateLimit(1, 2, suppressed)

	for i := 0; i < 5; i++ {
		l.WarnLimited("vpe-1", "warning signature", "i", i)
	}
	if got := strings.Count(buf.String(), "msg=\"warning signature\""); got != 2 {
		t.Fatalf("emitted %d lines, want burst of 2:\n%s", got, buf.String())
	}
	if suppressed.Value() != 3 {
		t.Fatalf("suppressed = %d, want 3", suppressed.Value())
	}
	// A different key has its own bucket.
	l.WarnLimited("vpe-2", "warning signature")
	if got := strings.Count(buf.String(), "msg=\"warning signature\""); got != 3 {
		t.Fatalf("second key suppressed: %d lines", got)
	}
	// Tokens refill with time: 2s at 1/s refills the burst.
	now = now.Add(2 * time.Second)
	l.WarnLimited("vpe-1", "warning signature")
	if got := strings.Count(buf.String(), "msg=\"warning signature\""); got != 4 {
		t.Fatalf("refill did not admit: %d lines", got)
	}
	// Without a limit, WarnLimited == Warn.
	l.SetRateLimit(0, 0, nil)
	for i := 0; i < 3; i++ {
		l.WarnLimited("vpe-1", "warning signature")
	}
	if got := strings.Count(buf.String(), "msg=\"warning signature\""); got != 7 {
		t.Fatalf("unlimited mode suppressed: %d lines", got)
	}
}

func TestLoggerRateLimitBucketBound(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLogger(io.Discard, LevelWarn)
	l.now = func() time.Time { return now }
	l.SetRateLimit(1, 1, nil)
	for i := 0; i < maxLogBuckets+50; i++ {
		l.WarnLimited(fmt.Sprintf("key-%d", i), "x")
		now = now.Add(time.Millisecond)
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > maxLogBuckets {
		t.Fatalf("bucket map grew to %d, bound is %d", n, maxLogBuckets)
	}
}

func TestBuildInfo(t *testing.T) {
	bi := GetBuildInfo()
	if bi.GoVersion == "" {
		t.Fatal("no go version in build info")
	}
	// Under `go test` the main module is resolvable.
	if bi.Module == "" {
		t.Fatal("no module path in build info")
	}
	if again := GetBuildInfo(); again != bi {
		t.Fatal("GetBuildInfo not stable")
	}
}
