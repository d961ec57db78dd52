package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Condition is one named readiness/degradation signal. Critical conditions
// (set via SetCondition) gate readiness: any failing one makes /readyz
// return 503. Informational conditions (set via SetDegraded) never fail
// readiness — they describe degraded-but-still-serving states (learning
// shed, breaker open) that an operator should see but a load balancer
// should not route around, because warnings are still being emitted.
type Condition struct {
	Name string `json:"name"`
	// OK is false when a critical condition is failing readiness.
	OK bool `json:"ok"`
	// Degraded marks an informational condition that is currently active.
	Degraded bool `json:"degraded,omitempty"`
	// Reason explains a failing or degraded condition.
	Reason string `json:"reason,omitempty"`
}

// Health tracks the process's liveness/readiness for the admin endpoints as
// a set of named conditions. Liveness means "the process is serving" (true
// from construction); readiness fails — with the failing conditions named —
// only when the process can no longer do its one critical job: emitting
// warnings (a rejected model bundle with nothing to serve, scoring shed).
// All methods are safe for concurrent use; a nil Health reads as alive,
// ready, and condition-free.
type Health struct {
	mu    sync.Mutex
	conds map[string]*Condition
}

// NewHealth returns a Health that starts ready with no conditions.
func NewHealth() *Health { return &Health{conds: make(map[string]*Condition)} }

// SetCondition records a critical condition: while any critical condition
// has ok=false, /readyz fails with every failing condition's name and
// reason. Setting ok=true clears it.
func (h *Health) SetCondition(name string, ok bool, reason string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conds == nil {
		h.conds = make(map[string]*Condition)
	}
	if ok {
		reason = ""
	}
	h.conds[name] = &Condition{Name: name, OK: ok, Reason: reason}
}

// SetDegraded records an informational condition: it is surfaced on
// /readyz and /statusz but never fails readiness. Setting degraded=false
// clears it.
func (h *Health) SetDegraded(name string, degraded bool, reason string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conds == nil {
		h.conds = make(map[string]*Condition)
	}
	if !degraded {
		reason = ""
	}
	h.conds[name] = &Condition{Name: name, OK: true, Degraded: degraded, Reason: reason}
}

// Conditions returns every recorded condition, sorted by name.
func (h *Health) Conditions() []Condition {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Condition, 0, len(h.conds))
	for _, c := range h.conds {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ready returns the readiness state and, when unready, the failing
// conditions joined as "name: reason" (single-condition failures keep the
// bare reason for backward compatibility with log/alert matchers).
func (h *Health) Ready() (bool, string) {
	if h == nil {
		return true, ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var failing []string
	for _, c := range h.conds {
		if !c.OK {
			failing = append(failing, c.Name+": "+c.Reason)
		}
	}
	if len(failing) == 0 {
		return true, ""
	}
	sort.Strings(failing)
	if len(failing) == 1 {
		// Preserve the single-reason body shape: "name: reason" reads
		// naturally and still contains the raw reason substring.
		return false, failing[0]
	}
	return false, strings.Join(failing, "; ")
}

// Degradations returns the active informational conditions, sorted by name.
func (h *Health) Degradations() []Condition {
	var out []Condition
	for _, c := range h.Conditions() {
		if c.Degraded {
			out = append(out, c)
		}
	}
	return out
}

// AdminConfig assembles the admin surface. Any field may be nil/zero; the
// corresponding endpoint degrades gracefully (empty metrics, empty traces,
// always-ready health, `{}` status).
type AdminConfig struct {
	// Registry backs /metrics (Prometheus text; ?format=json for the JSON
	// exposition).
	Registry *Registry
	// Traces backs /traces (?n=50 limits the count, newest first;
	// ?host= and ?warnings=1 filter).
	Traces *TraceRing
	// Spans backs /spans (?n=, ?host=, ?warnings=1, ?trace=<hex id>,
	// ?kind= filters, newest first) — the stage-latency counterpart of
	// /traces, and the resolver for histogram exemplar trace IDs.
	Spans *SpanRing
	// SLO backs /slo: every objective's multi-window burn evaluation.
	SLO *SLOSet
	// Health backs /healthz and /readyz: both return 503 with the reason
	// while unready, 200 otherwise. /healthz answers "is the process
	// serving and not degraded"; /readyz is the load-balancer form of the
	// same state.
	Health *Health
	// Status returns the /statusz document; it is JSON-marshaled per
	// request so the snapshot is always current.
	Status func() any
}

// queryCount parses an ?n= style count parameter; on a bad value it writes
// a 400 and reports ok=false.
func queryCount(w http.ResponseWriter, raw, endpoint string) (int, bool) {
	if raw == "" {
		return 0, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		http.Error(w, endpoint+": n must be a non-negative integer", http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// boolParam interprets a filter flag: present and not explicitly off.
func boolParam(raw string) bool {
	return raw != "" && raw != "0" && !strings.EqualFold(raw, "false")
}

// wantsOpenMetrics reports whether a /metrics scrape negotiated the
// OpenMetrics exposition — an Accept header naming
// application/openmetrics-text (what Prometheus sends when exemplar
// scraping is on) or an explicit ?format=openmetrics for curl use. The
// 0.0.4 text parser has no exemplar syntax, so exemplars render only
// when the client asked for a format whose parser can read them.
func wantsOpenMetrics(r *http.Request) bool {
	if r.URL.Query().Get("format") == "openmetrics" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// NewAdminMux builds the admin HTTP handler: /metrics, /statusz, /traces,
// /spans, /slo, /healthz, /readyz, and the pprof suite under
// /debug/pprof/. It is its own mux (never http.DefaultServeMux) so
// importing this package does not leak handlers into unrelated servers.
func NewAdminMux(cfg AdminConfig) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Query().Get("format") == "json":
			w.Header().Set("Content-Type", "application/json")
			cfg.Registry.WriteJSON(w)
		case wantsOpenMetrics(r):
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			cfg.Registry.WriteOpenMetrics(w)
		default:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			cfg.Registry.WritePrometheus(w)
		}
	})

	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var doc any = struct{}{}
		if cfg.Status != nil {
			doc = cfg.Status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n, ok := queryCount(w, q.Get("n"), "traces")
		if !ok {
			return
		}
		traces := cfg.Traces.Filtered(n, q.Get("host"), boolParam(q.Get("warnings")))
		if traces == nil {
			traces = []Trace{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Total  uint64  `json:"total"`
			Traces []Trace `json:"traces"`
		}{cfg.Traces.Total(), traces})
	})

	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n, ok := queryCount(w, q.Get("n"), "spans")
		if !ok {
			return
		}
		sq := SpanQuery{
			N:            n,
			Host:         q.Get("host"),
			WarningsOnly: boolParam(q.Get("warnings")),
			Kind:         q.Get("kind"),
		}
		if t := q.Get("trace"); t != "" {
			if sq.TraceID = ParseSpanID(t); sq.TraceID == 0 {
				http.Error(w, "spans: trace must be a hex span id", http.StatusBadRequest)
				return
			}
		}
		spans := cfg.Spans.Query(sq)
		if spans == nil {
			spans = []Span{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Total uint64 `json:"total"`
			Spans []Span `json:"spans"`
		}{cfg.Spans.Total(), spans})
	})

	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		statuses := cfg.SLO.Statuses()
		if statuses == nil {
			statuses = []SLOStatus{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			SLOs []SLOStatus `json:"slos"`
		}{statuses})
	})

	health := func(w http.ResponseWriter, r *http.Request) {
		ok, reason := cfg.Health.Ready()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			json.NewEncoder(w).Encode(struct {
				Ready      bool        `json:"ready"`
				Reason     string      `json:"reason,omitempty"`
				Conditions []Condition `json:"conditions"`
			}{ok, reason, cfg.Health.Conditions()})
			return
		}
		if !ok {
			http.Error(w, "unready: "+reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
		for _, c := range cfg.Health.Degradations() {
			fmt.Fprintf(w, "degraded: %s: %s\n", c.Name, c.Reason)
		}
	}
	mux.HandleFunc("/healthz", health)
	mux.HandleFunc("/readyz", health)

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}
