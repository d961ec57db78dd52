package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatal("re-registering a counter must return the same handle")
	}
	c.Store(42)
	if got := c.Value(); got != 42 {
		t.Fatalf("after Store: %d", got)
	}

	g := r.Gauge("g", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v", got)
	}
	g.SetTime(time.Unix(100, 500e6))
	if got := g.Value(); math.Abs(got-100.5) > 1e-9 {
		t.Fatalf("gauge time = %v", got)
	}
	g.SetTime(time.Time{})
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge zero time = %v", got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter should panic")
		}
	}()
	r.Gauge("x", "")
}

// TestHistogramBuckets pins the bucket semantics: bucket i counts
// v <= bounds[i], underflow lands in bucket 0, overflow in the trailing
// +Inf bucket, and boundary values belong to the lower bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{
		-5,  // underflow → bucket 0
		0.5, // bucket 0
		1,   // boundary → bucket 0
		1.5, // bucket 1
		2,   // boundary → bucket 1
		3,   // bucket 2
		4,   // boundary → bucket 2
		4.1, // overflow
		100, // overflow
	} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if want := []float64{1, 2, 4}; len(bounds) != 3 || bounds[0] != want[0] || bounds[2] != want[2] {
		t.Fatalf("bounds = %v", bounds)
	}
	if want := []uint64{3, 2, 2, 2}; len(counts) != 4 ||
		counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] || counts[3] != want[3] {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-111.1) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v should panic", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; under -race this doubles as the data-race check, and the
// totals must balance exactly (no lost updates).
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", ExpBuckets(1, 2, 8))
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64((w*perWorker + i) % 300))
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	_, counts := h.Buckets()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != uint64(workers*perWorker) {
		t.Fatalf("bucket total = %d, want %d", total, workers*perWorker)
	}
	// The observed values are k%300 for k = 0..workers*perWorker-1: full
	// cycles of 0..299 plus a partial cycle, all exact in float64.
	n := workers * perWorker
	want := float64(n/300)*(299*300/2) + float64((n%300-1)*(n%300))/2
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1})
	var ring *SpanRing
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil handles")
	}
	c.Inc()
	c.Add(3)
	c.Store(7)
	g.Set(1)
	g.SetInt(1)
	g.SetTime(time.Now())
	h.Observe(1)
	h.ObserveDuration(h.Start())
	ring.Add(Span{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || ring.Total() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if !h.Start().IsZero() {
		t.Fatal("nil histogram Start must not read the clock")
	}
	if b, cs := h.Buckets(); b != nil || cs != nil {
		t.Fatal("nil histogram Buckets must be nil")
	}
	if ring.Query(SpanQuery{N: 5}) != nil {
		t.Fatal("nil ring Query must be nil")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var l *Logger
	l.Info("dropped")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger must be disabled")
	}
	var hl *Health
	hl.SetCondition("serving", false, "x")
	if ok, _ := hl.Ready(); !ok {
		t.Fatal("nil health must read ready")
	}
}

// TestHotPathAllocFree is the instrumentation-overhead contract: counter
// increments, gauge sets, and histogram observes allocate nothing — on
// both the live path and the no-op (nil handle) path.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExpBuckets(1, 2, 10))
	var nilC *Counter
	var nilH *Histogram
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter-inc", func() { c.Inc() }},
		{"counter-add", func() { c.Add(3) }},
		{"gauge-set", func() { g.Set(1.5) }},
		{"histogram-observe", func() { h.Observe(3.7) }},
		{"nil-counter-inc", func() { nilC.Inc() }},
		{"nil-histogram-observe", func() { nilH.Observe(3.7) }},
		{"nil-histogram-start", func() { _ = nilH.Start() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte: name
// order, HELP/TYPE lines, cumulative le-labelled buckets, and integer
// rendering.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "Last by name.").Add(7)
	r.Gauge("gauge_ratio", "A ratio.").Set(0.25)
	h := r.Histogram("req_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(30)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gauge_ratio A ratio.
# TYPE gauge_ratio gauge
gauge_ratio 0.25
# HELP req_seconds Request latency.
# TYPE req_seconds histogram
req_seconds_bucket{le="0.1"} 1
req_seconds_bucket{le="1"} 3
req_seconds_bucket{le="+Inf"} 4
req_seconds_sum 31.05
req_seconds_count 4
# HELP zz_total Last by name.
# TYPE zz_total counter
zz_total 7
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "").Set(1.5)
	r.Histogram("h", "", []float64{1, 2}).Observe(1.5)

	s := r.Snapshot()
	if s.Counters["c_total"] != 3 || s.Gauges["g"] != 1.5 {
		t.Fatalf("snapshot: %+v", s)
	}
	hs := s.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 1.5 || len(hs.Counts) != 3 || hs.Counts[1] != 1 {
		t.Fatalf("histogram snapshot: %+v", hs)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("JSON round trip: %v\n%s", err, buf.String())
	}
	if round.Counters["c_total"] != 3 {
		t.Fatalf("round trip: %+v", round)
	}
}

// TestTraceRing: the old name still builds a working ring, one that keeps
// the last n spans newest first with their sequence numbers in order.
func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(3)
	if got := ring.Query(SpanQuery{}); len(got) != 0 {
		t.Fatalf("empty ring Recent = %v", got)
	}
	for i := 1; i <= 5; i++ {
		ring.Add(Span{Host: "vpe", Score: float64(i)})
	}
	if ring.Total() != 5 {
		t.Fatalf("total = %d", ring.Total())
	}
	got := ring.Query(SpanQuery{})
	if len(got) != 3 {
		t.Fatalf("recent len = %d", len(got))
	}
	// Newest first, sequence numbers stamped in order.
	for i, s := range got {
		if wantScore := float64(5 - i); s.Score != wantScore || s.Seq != uint64(5-i) {
			t.Fatalf("recent[%d] = %+v", i, s)
		}
	}
	if got := ring.Query(SpanQuery{N: 1}); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("recent(1) = %+v", got)
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	ring := NewSpanRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ring.Add(Span{Anomalous: true, Explain: &Explanation{Window: []TraceStep{{Template: i}}}})
				ring.Query(SpanQuery{N: 8, AnomalousOnly: true})
			}
		}()
	}
	wg.Wait()
	if ring.Total() != 4000 {
		t.Fatalf("total = %d", ring.Total())
	}
}

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.now = func() time.Time { return time.Date(2018, 2, 3, 4, 5, 6, 0, time.UTC) }

	l.Debug("dropped below level")
	l.Info("status", "messages", 120, "rate", 1.5, "host", "vpe 01", "when", time.Date(2018, 2, 3, 0, 0, 0, 0, time.UTC))
	l.Warn("odd", "k")
	got := buf.String()
	want := "ts=2018-02-03T04:05:06Z level=info msg=status messages=120 rate=1.5 host=\"vpe 01\" when=2018-02-03T00:00:00Z\n" +
		"ts=2018-02-03T04:05:06Z level=warn msg=odd _extra=k\n"
	if got != want {
		t.Fatalf("log output:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelDebug) {
		t.Fatal("level gating wrong")
	}
}

func TestAdminMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "Hits.").Add(2)
	ring := NewSpanRing(8)
	ring.Add(Span{Kind: KindDecision, Host: "vpe01", Score: 7.5, Template: 3, Anomalous: true,
		Explain: &Explanation{Threshold: 6,
			Window: []TraceStep{{Template: 1, LogProb: -0.2}, {Template: 3, LogProb: -7.5}}}})
	ring.Add(Span{Kind: KindDecision, Host: "vpe02", Score: 0.1, Sampled: true})
	health := NewHealth()
	mux := NewAdminMux(AdminConfig{
		Registry: reg,
		Spans:    ring,
		Health:   health,
		Status:   func() any { return map[string]int{"hosts": 4} },
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hits_total 2") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !strings.Contains(body, `"hits_total": 2`) {
		t.Fatalf("/metrics json: %d\n%s", code, body)
	}
	if code, body := get("/statusz"); code != 200 || !strings.Contains(body, `"hosts": 4`) {
		t.Fatalf("/statusz: %d\n%s", code, body)
	}
	code, body := get("/spans?anomalous=1")
	if code != 200 {
		t.Fatalf("/spans?anomalous=1: %d", code)
	}
	var spans struct {
		Total uint64 `json:"total"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("spans JSON: %v\n%s", err, body)
	}
	if spans.Total != 2 || len(spans.Spans) != 1 || spans.Spans[0].Host != "vpe01" ||
		spans.Spans[0].Explain == nil || len(spans.Spans[0].Explain.Window) != 2 {
		t.Fatalf("spans: %+v", spans)
	}
	if code, _ := get("/spans?anomalous=1&n=bogus"); code != 400 {
		t.Fatalf("bad n should 400, got %d", code)
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz ready: %d", code)
	}
	health.SetCondition("serving", false, "hot-reload rejected")
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "hot-reload rejected") {
		t.Fatalf("/healthz unready: %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz unready: %d", code)
	}
	health.SetCondition("serving", true, "")
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz recovered: %d", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("pprof: %d", code)
	}
}

func TestHealthNamedConditions(t *testing.T) {
	h := NewHealth()
	if ok, _ := h.Ready(); !ok {
		t.Fatal("fresh health unready")
	}

	// Two critical conditions fail independently; readiness names both.
	h.SetCondition("bundle", false, "hot-reload of /tmp/bad.nfvm rejected")
	h.SetCondition("degradation", false, "scoring shed: warnings suppressed")
	ok, reason := h.Ready()
	if ok {
		t.Fatal("failing critical conditions left health ready")
	}
	for _, want := range []string{"bundle: hot-reload of /tmp/bad.nfvm rejected", "degradation: scoring shed"} {
		if !strings.Contains(reason, want) {
			t.Fatalf("reason %q missing %q", reason, want)
		}
	}

	// Clearing one still fails on the other, with the bare "name: reason" form.
	h.SetCondition("degradation", true, "")
	ok, reason = h.Ready()
	if ok || reason != "bundle: hot-reload of /tmp/bad.nfvm rejected" {
		t.Fatalf("single failing condition => (%v, %q)", ok, reason)
	}

	// Informational degradation never fails readiness but is listed.
	h.SetCondition("bundle", true, "")
	h.SetDegraded("adaptation", true, "breaker open")
	if ok, _ := h.Ready(); !ok {
		t.Fatal("informational degradation failed readiness")
	}
	degs := h.Degradations()
	if len(degs) != 1 || degs[0].Name != "adaptation" || degs[0].Reason != "breaker open" {
		t.Fatalf("degradations = %+v", degs)
	}
	conds := h.Conditions()
	if len(conds) != 3 {
		t.Fatalf("conditions = %+v, want 3 entries", conds)
	}
	for i := 1; i < len(conds); i++ {
		if conds[i-1].Name > conds[i].Name {
			t.Fatalf("conditions not sorted: %+v", conds)
		}
	}
	h.SetDegraded("adaptation", false, "")
	if degs := h.Degradations(); len(degs) != 0 {
		t.Fatalf("cleared degradation persists: %+v", degs)
	}
}

func TestAdminMuxReadyzConditions(t *testing.T) {
	health := NewHealth()
	mux := NewAdminMux(AdminConfig{Health: health})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Degraded-but-serving: 200 with the degradation named in the body.
	health.SetDegraded("degradation", true, "learning shed: shard queues backed up")
	code, body := get("/readyz")
	if code != 200 || !strings.Contains(body, "degraded: degradation: learning shed") {
		t.Fatalf("/readyz degraded = %d %q", code, body)
	}

	// JSON form lists every condition with its flags.
	health.SetCondition("bundle", false, "rejected")
	code, body = get("/readyz?format=json")
	if code != 503 {
		t.Fatalf("/readyz json unready = %d", code)
	}
	var doc struct {
		Ready      bool        `json:"ready"`
		Reason     string      `json:"reason"`
		Conditions []Condition `json:"conditions"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("readyz JSON: %v\n%s", err, body)
	}
	if doc.Ready || !strings.Contains(doc.Reason, "bundle: rejected") || len(doc.Conditions) != 2 {
		t.Fatalf("readyz doc = %+v", doc)
	}
}
