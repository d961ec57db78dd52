package ingest

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
)

// TestMonitorDecisionTrace injects a synthetic anomaly into a monitor with
// tracing enabled and checks the resulting trace explains the verdict: the
// flagged template, the score vs. threshold that produced it, the
// per-window log-probabilities of the preceding context, and the
// cluster/model identity.
func TestMonitorDecisionTrace(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(16)
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.Metrics = reg
	mcfg.Traces = ring
	mcfg.ClusterOf = func(host string) int { return 3 }
	spans := obs.NewSpanRing(128)
	mcfg.Tracer = obs.NewTracer(spans, 1, 4)
	mon := NewMonitor(mcfg, tree, det, nil)

	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
		"fpc 1 cpu utilization 30 percent memory 45 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 80 us",
	}
	mk := func(text string, at time.Time) logfmt.Message {
		return logfmt.Message{Time: at, Host: "vpe07", Tag: "rpd", Text: text}
	}
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 80; i++ {
		mon.HandleMessage(mk(normal[i%len(normal)], at))
		at = at.Add(30 * time.Second)
	}
	if ring.Total() != 0 {
		t.Fatalf("traces during normal traffic: %+v", ring.Filtered(0, "", false))
	}

	mon.HandleMessage(mk("invalid response from peer chassis-control session 42 retries 3", at))
	traces := ring.Filtered(0, "", false)
	if len(traces) != 1 {
		t.Fatalf("expected one trace, got %d", len(traces))
	}
	tr := traces[0]
	if tr.Host != "vpe07" || tr.Cluster != 3 || tr.Model != "lstm" {
		t.Fatalf("trace identity: %+v", tr)
	}
	if tr.Threshold != 4 || tr.Score <= tr.Threshold {
		t.Fatalf("trace score/threshold: score=%v threshold=%v", tr.Score, tr.Threshold)
	}
	if len(tr.Window) != DefaultTraceWindow {
		t.Fatalf("trace window length = %d, want %d", len(tr.Window), DefaultTraceWindow)
	}
	// The window ends with the flagged message itself: its log-prob is the
	// negated score, its template the flagged template.
	last := tr.Window[len(tr.Window)-1]
	if last.Template != tr.Template || last.LogProb != -tr.Score {
		t.Fatalf("window tail does not match verdict: %+v vs %+v", last, tr)
	}
	// The context steps are the well-predicted normal messages.
	for _, step := range tr.Window[:len(tr.Window)-1] {
		if -step.LogProb > tr.Threshold {
			t.Fatalf("context step scored above threshold: %+v", step)
		}
	}
	if tr.ClusterSize != 1 || tr.Warning {
		t.Fatalf("first anomaly should open a cluster of 1: %+v", tr)
	}

	// Two more anomalies within the window: the warning-tipping verdict is
	// marked on its trace.
	for i := 0; i < 2; i++ {
		at = at.Add(15 * time.Second)
		mon.HandleMessage(mk("invalid response from peer chassis-control session 42 retries 3", at))
	}
	var tipped *obs.Trace
	for _, cand := range ring.Filtered(0, "", false) {
		if cand.Warning {
			c := cand
			tipped = &c
		}
	}
	if tipped == nil || tipped.ClusterSize != detect.DefaultMinClusterSize {
		t.Fatalf("warning-tipping verdict not marked in traces: %+v", ring.Filtered(0, "", false))
	}

	// The registry exports the same numbers Stats() reports — one set of
	// counters, two views.
	st := mon.Stats()
	snap := reg.Snapshot()
	if snap.Counters["monitor_messages_total"] != st.Messages ||
		snap.Counters["monitor_anomalies_total"] != st.Anomalies ||
		snap.Counters["monitor_warnings_total"] != st.Warnings {
		t.Fatalf("registry/Stats divergence: %+v vs %+v", snap.Counters, st)
	}
	if st.Anomalies != 3 || st.Warnings != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if snap.Histograms["monitor_score"].Count != st.Messages {
		t.Fatalf("score histogram count %d, messages %d",
			snap.Histograms["monitor_score"].Count, st.Messages)
	}
	// The handle histogram rides the sampling decision: one observation per
	// sampled message, none for the rest.
	sampled := 0
	for _, s := range spans.Query(obs.SpanQuery{}) {
		if s.Sampled {
			sampled++
		}
	}
	if n := snap.Histograms["monitor_handle_seconds"].Count; sampled == 0 || n != uint64(sampled) {
		t.Fatalf("handle histogram count %d, sampled messages %d of %d", n, sampled, st.Messages)
	}
}

// TestServerStatsOnRegistry checks the server counters are thin views over
// the registry, so /metrics and Stats() cannot drift, and that a server —
// fed through a test's func sink or a ShardSink — registers exactly the
// three families Stats reports and nothing else.
func TestServerStatsOnRegistry(t *testing.T) {
	discard := func(logfmt.Message) {}
	sinks := map[string]struct {
		sharded ShardSink
		fn      func(logfmt.Message)
	}{
		"func sink":  {fn: discard},
		"shard sink": {sharded: funcSink(discard)},
	}
	for name, sink := range sinks {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := DefaultServerConfig()
			cfg.Metrics = reg
			cfg.Sharded = sink.sharded
			srv, err := NewServer(cfg, sink.fn)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			w := &wireState{s: srv}
			srv.enqueue([]byte(sampleLine(1)), w)
			srv.enqueue([]byte("not syslog at all"), w)
			w.flush() // as before the next socket read
			st := srv.Stats()
			if st.Received != 1 || st.Malformed != 1 {
				t.Fatalf("stats: %+v", st)
			}
			snap := reg.Snapshot()
			want := map[string]uint64{
				"ingest_received_total":    st.Received,
				"ingest_malformed_total":   st.Malformed,
				"ingest_shard_drops_total": st.ShardDropped,
			}
			if !reflect.DeepEqual(snap.Counters, want) || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
				t.Fatalf("registry holds %+v, want exactly the counters %+v", snap, want)
			}
		})
	}
}

// TestMonitorTraceWindowSurvivesCheckpoint ensures a restored monitor keeps
// tracing: restored hosts get fresh context rings sized by the restoring
// config.
func TestMonitorTraceWindowSurvivesCheckpoint(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.Traces = obs.NewTraceRing(8)
	mon := NewMonitor(mcfg, tree, det, nil)
	mk := func(text string, at time.Time) logfmt.Message {
		return logfmt.Message{Time: at, Host: "vpe07", Tag: "rpd", Text: text}
	}
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		mon.HandleMessage(mk("bgp keepalive exchanged with peer 10.0.0.2 hold 90", at))
		at = at.Add(30 * time.Second)
	}

	var buf bytes.Buffer
	if err := mon.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ring2 := obs.NewTraceRing(8)
	rcfg := mcfg
	rcfg.Traces = ring2
	restored, err := RestoreMonitor(bytes.NewReader(buf.Bytes()), rcfg, func(string) *detect.LSTMDetector { return det }, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored.HandleMessage(mk("invalid response from peer chassis-control session 42 retries 3", at))
	traces := ring2.Filtered(0, "", false)
	if len(traces) != 1 || len(traces[0].Window) == 0 {
		t.Fatalf("restored monitor did not trace: %+v", traces)
	}
}
