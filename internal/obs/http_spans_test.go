package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAdminMuxSpansAndSLO covers the span/SLO half of the admin surface:
// /spans with its filter set (?n=, ?host=, ?warnings=1, ?anomalous=1,
// ?trace=, ?kind=) and their combinations, and /slo.
func TestAdminMuxSpansAndSLO(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	spans := NewSpanRing(16)
	spans.Add(Span{TraceID: 0x10, Kind: KindDecision, Host: "vpe01", Sampled: true,
		TotalNS: 1000, Stages: StageDurations{QueueNS: 400, SigtreeNS: 300, ScoreNS: 200, VerdictNS: 100}})
	spans.Add(Span{TraceID: 0x11, Kind: KindDecision, Host: "vpe02", Anomalous: true, Warning: true, TotalNS: 900,
		Explain: &Explanation{Threshold: 6, ClusterSize: 2}})
	spans.Add(Span{TraceID: 0x12, Kind: KindCheckpoint, Sampled: true, TotalNS: 5000,
		Stages: StageDurations{CheckpointNS: 5000}})
	spans.Add(Span{TraceID: 0x13, Kind: KindDecision, Host: "vpe02", Anomalous: true, TotalNS: 800,
		Explain: &Explanation{Threshold: 6, ClusterSize: 1}})

	slos := NewSLOSet()
	lat := slos.Add(SLOConfig{Name: "accept_verdict_latency", Target: 0.99, NowNS: clk.now})
	lat.RecordN(50, 50)

	mux := NewAdminMux(AdminConfig{Spans: spans, SLO: slos})
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
	getSpans := func(path string) (uint64, []Span) {
		t.Helper()
		code, body := get(path)
		if code != 200 {
			t.Fatalf("%s: %d\n%s", path, code, body)
		}
		var doc struct {
			Total uint64 `json:"total"`
			Spans []Span `json:"spans"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, body)
		}
		return doc.Total, doc.Spans
	}

	if total, sp := getSpans("/spans"); total != 4 || len(sp) != 4 || sp[0].TraceID != 0x13 {
		t.Fatalf("/spans = total %d, %+v", total, sp)
	}
	if _, sp := getSpans("/spans?n=2"); len(sp) != 2 || sp[1].Kind != KindCheckpoint {
		t.Fatalf("/spans?n=1 = %+v", sp)
	}
	if _, sp := getSpans("/spans?host=vpe01"); len(sp) != 1 || sp[0].TraceID != 0x10 {
		t.Fatalf("host filter = %+v", sp)
	}
	if _, sp := getSpans("/spans?warnings=1"); len(sp) != 1 || sp[0].TraceID != 0x11 {
		t.Fatalf("warnings filter = %+v", sp)
	}
	if _, sp := getSpans("/spans?anomalous=1"); len(sp) != 2 || sp[0].TraceID != 0x13 || sp[1].Explain.ClusterSize != 2 {
		t.Fatalf("anomalous filter = %+v", sp)
	}
	if _, sp := getSpans("/spans?kind=checkpoint"); len(sp) != 1 || sp[0].Stages.CheckpointNS != 5000 {
		t.Fatalf("kind filter = %+v", sp)
	}
	// Exemplar resolution: the hex trace ID from a /metrics exemplar label
	// resolves to its span.
	if _, sp := getSpans("/spans?trace=0000000000000010"); len(sp) != 1 || sp[0].Host != "vpe01" {
		t.Fatalf("trace filter = %+v", sp)
	}
	if code, _ := get("/spans?trace=garbage"); code != 400 {
		t.Fatalf("garbage trace should 400, got %d", code)
	}
	if code, _ := get("/spans?n=-1"); code != 400 {
		t.Fatalf("bad n should 400, got %d", code)
	}

	// Filters combine: one host's warning-tipping verdicts.
	if _, sp := getSpans("/spans?host=vpe02&warnings=1"); len(sp) != 1 || sp[0].Host != "vpe02" || !sp[0].Warning {
		t.Fatalf("host+warnings filter = %+v", sp)
	}
	if _, sp := getSpans("/spans?anomalous=0"); len(sp) != 4 {
		t.Fatalf("anomalous=0 should not filter: %+v", sp)
	}

	// /slo: the objective's multi-window evaluation, burning at ratio 0.5.
	code, body := get("/slo")
	if code != 200 {
		t.Fatalf("/slo: %d", code)
	}
	var sdoc struct {
		SLOs []SLOStatus `json:"slos"`
	}
	if err := json.Unmarshal([]byte(body), &sdoc); err != nil {
		t.Fatalf("/slo JSON: %v\n%s", err, body)
	}
	if len(sdoc.SLOs) != 1 || sdoc.SLOs[0].Name != "accept_verdict_latency" {
		t.Fatalf("/slo = %+v", sdoc.SLOs)
	}
	if !sdoc.SLOs[0].Fast.Burning || sdoc.SLOs[0].Fast.Bad != 50 {
		t.Fatalf("/slo fast window = %+v", sdoc.SLOs[0].Fast)
	}
}

// TestMetricsExemplarNegotiation pins the /metrics content negotiation:
// a plain scrape gets the 0.0.4 exposition with no exemplar suffixes
// (the 0.0.4 parser rejects mid-line '#', so one exemplar would cost the
// scrape every metric), while an Accept header naming
// application/openmetrics-text — or ?format=openmetrics — gets the
// OpenMetrics exposition with exemplars and the terminal # EOF.
func TestMetricsExemplarNegotiation(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("handle_seconds", "Handle latency.", []float64{0.1, 1})
	h.ObserveExemplar(0.5, SpanID(0xab))

	srv := httptest.NewServer(NewAdminMux(AdminConfig{Registry: reg}))
	defer srv.Close()

	get := func(accept, query string) (string, string) {
		t.Helper()
		req, err := http.NewRequest("GET", srv.URL+"/metrics"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.Header.Get("Content-Type"), buf.String()
	}

	ct, body := get("", "")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("plain scrape content type = %q", ct)
	}
	if strings.Contains(body, `# {trace_id=`) || strings.Contains(body, "# EOF") {
		t.Fatalf("plain scrape not 0.0.4-clean:\n%s", body)
	}

	// Prometheus's exemplar-aware scrape and the curl-friendly query
	// parameter both negotiate OpenMetrics.
	for _, req := range [][2]string{
		{"application/openmetrics-text; version=1.0.0", ""},
		{"", "?format=openmetrics"},
	} {
		ct, body = get(req[0], req[1])
		if !strings.Contains(ct, "application/openmetrics-text") {
			t.Fatalf("negotiated content type = %q", ct)
		}
		if !strings.Contains(body, `# {trace_id="00000000000000ab"}`) {
			t.Fatalf("OpenMetrics scrape carries no exemplar:\n%s", body)
		}
		if !strings.HasSuffix(body, "# EOF\n") {
			t.Fatalf("OpenMetrics scrape not # EOF-terminated:\n%s", body)
		}
	}
}

// TestAdminMuxSpansAbsent pins graceful degradation: a mux built without
// span/SLO backends still serves the endpoints.
func TestAdminMuxSpansAbsent(t *testing.T) {
	srv := httptest.NewServer(NewAdminMux(AdminConfig{}))
	defer srv.Close()
	for _, path := range []string{"/spans", "/slo"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s without backend: %d", path, resp.StatusCode)
		}
	}
}
