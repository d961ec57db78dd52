package ingest

import (
	"sync"
	"testing"
	"unsafe"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
)

// countingSink takes every message handed to it and counts them.
type countingSink struct{ n int }

func (c *countingSink) Enqueue(logfmt.Message) bool { c.n++; return true }

// One socket read of handoffBatch frames is parsed into one batch and
// handed over whole. The frames' fields are cut from one string made at
// the handoff, so the batch costs at most two allocations, where a string
// per frame would cost handoffBatch.
func TestListenerBatchAllocs(t *testing.T) {
	sink := &countingSink{}
	cfg := DefaultServerConfig()
	cfg.Sharded = sink
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	frames := make([][]byte, handoffBatch)
	for i := range frames {
		frames[i] = []byte(sampleLine(i) + "\n")
	}
	w := &wireState{s: srv}
	read := func() {
		w.stamp()
		for _, f := range frames {
			srv.enqueue(f, w)
		}
		w.flush()
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, read)
	if want := (runs + 1) * handoffBatch; sink.n != want {
		t.Fatalf("sink saw %d messages, want %d", sink.n, want)
	}
	if allocs > 2 {
		t.Fatalf("%v allocations per batch of %d frames, want at most 2", allocs, handoffBatch)
	}
}

// extent is the memory a string occupies.
type extent struct{ lo, hi uintptr }

func extentOf(s string) extent {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return extent{p, p + uintptr(len(s))}
}

// A listener's batch string lives only as long as its messages. Everything
// the monitor keeps once a drain is done — the host state and its map key,
// warnings, decision traces, spans and the hosts the OnScored hook is
// given — must hold its own copy of the host, never a piece of a batch.
func TestBatchStringsAreNotRetained(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg, _, ring, _ := spanMonitorConfig(t, 1)
	mcfg.Shards = 2
	traces := obs.NewTraceRing(1024)
	mcfg.Traces = traces
	var hookMu sync.Mutex
	var hooked []string
	mcfg.OnScored = func(host string, _ int, _ features.Event, _ float64, _, _ bool) {
		hookMu.Lock()
		hooked = append(hooked, host)
		hookMu.Unlock()
	}
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	cfg := DefaultServerConfig()
	cfg.Sharded = mon
	cfg.Tracer = mcfg.Tracer
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03", "vpe04"}, 20)
	w := &wireState{s: srv}
	w.stamp()
	for _, m := range msgs {
		srv.enqueue([]byte(m.Format3164()), w)
	}
	w.flush()
	// Workers are not started yet: every message sits in a queue, and its
	// fields mark out the batch string it was cut from.
	var batches []extent
	for _, sh := range mon.shards {
		for _, m := range sh.q.queued() {
			h, x := extentOf(m.Host), extentOf(m.Text)
			if x.lo < h.hi {
				t.Fatalf("message fields are not cut from one batch string: %+v", m)
			}
			batches = append(batches, extent{h.lo, x.hi})
		}
	}
	if len(batches) != len(msgs) {
		t.Fatalf("%d of %d messages queued", len(batches), len(msgs))
	}
	mon.Start()
	mon.Stop()
	if got := mon.Stats().Messages; got != uint64(len(msgs)) {
		t.Fatalf("scored %d of %d messages", got, len(msgs))
	}

	check := func(what, host string) {
		t.Helper()
		s := extentOf(host)
		for _, b := range batches {
			if s.lo < b.hi && b.lo < s.hi {
				t.Fatalf("%s %q shares memory with a listener batch string", what, host)
			}
		}
	}
	kept := 0
	for _, sh := range mon.shards {
		for key, el := range sh.hosts {
			check("host map key", key)
			check("host state", el.Value.(*hostState).host)
			kept++
		}
	}
	warnings := mon.Warnings()
	for _, wn := range warnings {
		check("warning", wn.VPE)
	}
	trs := traces.Filtered(0, "", false)
	for _, tr := range trs {
		check("decision trace", tr.Host)
	}
	spans := ring.Query(obs.SpanQuery{})
	for _, s := range spans {
		check("span", s.Host)
	}
	for _, h := range hooked {
		check("OnScored host", h)
	}
	if kept != 4 || len(warnings) == 0 || len(trs) == 0 || len(spans) == 0 || len(hooked) != len(msgs) {
		t.Fatalf("nothing to check: %d hosts, %d warnings, %d traces, %d spans, %d hooked",
			kept, len(warnings), len(trs), len(spans), len(hooked))
	}
}
