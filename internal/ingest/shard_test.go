package ingest

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/sigtree"
)

// TestShardedSyncEquivalence is the sharding contract for the synchronous
// path: the same message sequence fed through HandleMessage by a single
// caller must yield identical warnings — and byte-identical checkpoints —
// at 1 and at 8 shards. Sharding redistributes state; it must not change a
// single scored bit.
func TestShardedSyncEquivalence(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03", "vpe04", "vpe05"}, 40)

	run := func(shards int) (*Monitor, []byte) {
		mcfg := DefaultMonitorConfig()
		mcfg.Threshold = 4
		mcfg.Shards = shards
		mon := NewMonitorWithResolver(mcfg, cloneTree(t, tree), func(string) *detect.LSTMDetector { return det }, nil)
		for _, m := range msgs {
			mon.HandleMessage(m)
		}
		var buf bytes.Buffer
		if err := mon.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return mon, buf.Bytes()
	}

	mon1, ckpt1 := run(1)
	mon8, ckpt8 := run(8)

	w1, w8 := mon1.Warnings(), mon8.Warnings()
	if len(w1) == 0 {
		t.Fatal("traffic produced no warnings; test has no teeth")
	}
	if len(w1) != len(w8) {
		t.Fatalf("warning counts differ: %d vs %d", len(w1), len(w8))
	}
	for i := range w1 {
		if w1[i] != w8[i] {
			t.Fatalf("warning %d differs: %+v vs %+v", i, w1[i], w8[i])
		}
	}
	s1, s8 := mon1.Stats(), mon8.Stats()
	if s1.Messages != s8.Messages || s1.Anomalies != s8.Anomalies || s1.ActiveHosts != s8.ActiveHosts {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s8)
	}
	if !bytes.Equal(ckpt1, ckpt8) {
		t.Fatalf("checkpoints not byte-identical across shard counts (%d vs %d bytes)", len(ckpt1), len(ckpt8))
	}
}

// TestShardedKillAndRestore runs the kill-and-restore scenario on a sharded
// monitor, restoring onto a different shard count than the checkpoint was
// written at: the host hash is stable, so state redistributes cleanly and
// warnings and counters match an uninterrupted run exactly.
func TestShardedKillAndRestore(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03"}, 60)
	cut := len(msgs) / 2

	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.Shards = 8

	ref := NewMonitorWithResolver(mcfg, cloneTree(t, tree), resolve, nil)
	for _, m := range msgs {
		ref.HandleMessage(m)
	}

	mon := NewMonitorWithResolver(mcfg, cloneTree(t, tree), resolve, nil)
	for _, m := range msgs[:cut] {
		mon.HandleMessage(m)
	}
	var ckpt bytes.Buffer
	if err := mon.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	rcfg := mcfg
	rcfg.Shards = 3 // restore onto a different shard count
	restored, err := RestoreMonitor(bytes.NewReader(ckpt.Bytes()), rcfg, resolve, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[cut:] {
		restored.HandleMessage(m)
	}

	a, b := ref.Stats(), restored.Stats()
	if a.Messages != b.Messages || a.Anomalies != b.Anomalies || a.Warnings != b.Warnings {
		t.Fatalf("restored sharded run diverged: ref=%+v restored=%+v", a, b)
	}
	wa, wb := ref.Warnings(), restored.Warnings()
	if len(wa) == 0 {
		t.Fatal("no warnings produced")
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("warning %d differs: %+v vs %+v", i, wa[i], wb[i])
		}
	}
}

// TestAsyncShardedCompleteness drives the async path (Enqueue + workers)
// and checks nothing is lost or double-counted: every accepted message is
// scored, and per-host scoring matches the synchronous reference (same
// anomaly and warning totals, same warning set).
func TestAsyncShardedCompleteness(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	hosts := []string{"vpe01", "vpe02", "vpe03", "vpe04"}
	msgs := monitorTraffic(hosts, 50)

	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	sync := NewMonitorWithResolver(mcfg, cloneTree(t, tree), resolve, nil)
	for _, m := range msgs {
		sync.HandleMessage(m)
	}

	acfg := mcfg
	acfg.Shards = 4
	async := NewMonitorWithResolver(acfg, cloneTree(t, tree), resolve, nil)
	async.Start()
	for _, m := range msgs {
		for !async.Enqueue(m) {
			time.Sleep(time.Millisecond) // full queue: wait for the worker
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && async.Stats().Messages < uint64(len(msgs)) {
		time.Sleep(2 * time.Millisecond)
	}
	async.Stop()

	sa, aa := sync.Stats(), async.Stats()
	if aa.Messages != uint64(len(msgs)) {
		t.Fatalf("async lost messages: %d of %d", aa.Messages, len(msgs))
	}
	if sa.Anomalies != aa.Anomalies || sa.Warnings != aa.Warnings {
		t.Fatalf("async scoring diverged: sync=%+v async=%+v", sa, aa)
	}
	// Warning order across hosts depends on worker interleaving; the set
	// must match exactly.
	ws, wa := sync.Warnings(), async.Warnings()
	if len(ws) == 0 || len(ws) != len(wa) {
		t.Fatalf("warning sets differ in size: %d vs %d", len(ws), len(wa))
	}
	seen := make(map[detect.Warning]int)
	for _, w := range ws {
		seen[w]++
	}
	for _, w := range wa {
		if seen[w] == 0 {
			t.Fatalf("async produced warning the sync run did not: %+v", w)
		}
		seen[w]--
	}
}

// evictingTraffic visits six hosts two at a time — block i interleaves
// hosts i and i+1 for four normal rounds, then host i bursts three
// anomalies — so that under a host cap of 3 a host is evicted two blocks after
// its last message and re-created cold a lap later. A block is 11 messages,
// so evictions, cold starts and bursts all fall inside 16-message drains.
func evictingTraffic() []logfmt.Message {
	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
	}
	var out []logfmt.Message
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	add := func(host int, text string) {
		out = append(out, logfmt.Message{Time: at, Host: fmt.Sprintf("vpe%02d", host%6), Tag: "rpd", Text: text})
		at = at.Add(5 * time.Second)
	}
	for block := 0; block < 18; block++ {
		for round := 0; round < 4; round++ {
			add(block, normal[round%2])
			add(block+1, normal[round%2])
		}
		for i := 0; i < 3; i++ {
			add(block, fmt.Sprintf("invalid response from peer chassis-control session %d retries 3", i))
		}
	}
	return out
}

// flapTraffic gives one flapping host 5 of every 16 consecutive messages
// (a full drain's worth), alternating a quiet and a bursting cycle, with
// four steady hosts sharing the other 11 slots.
func flapTraffic() []logfmt.Message {
	var out []logfmt.Message
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for cycle := 0; cycle < 12; cycle++ {
		for slot := 0; slot < 16; slot++ {
			m := logfmt.Message{Time: at, Host: fmt.Sprintf("vpe%02d", 1+slot%4), Tag: "rpd",
				Text: "bgp keepalive exchanged with peer 10.0.0.2 hold 90"}
			if slot%3 == 0 && slot < 15 {
				m.Host = "vpe00"
				if cycle%2 == 1 {
					m.Text = fmt.Sprintf("invalid response from peer chassis-control session %d retries 3", slot)
				}
			}
			out = append(out, m)
			at = at.Add(2 * time.Second)
		}
	}
	return out
}

// TestDrainEqualsSync is the one-scoring-function contract where it is
// hardest: a shard worker's full drains must leave exactly what a
// HandleMessage replay of the same sequence leaves — the same warnings in
// the same order and a byte-identical checkpoint — when hosts are evicted
// and re-created cold inside a drain, and when one host holds several of a
// drain's slots. One shard, everything enqueued before Start, so the drains
// are full and the same on every run.
func TestDrainEqualsSync(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	for _, tc := range []struct {
		name     string
		maxHosts int
		msgs     []logfmt.Message
	}{
		{"evictions", 3, evictingTraffic()},
		{"flap", DefaultMaxHosts, flapTraffic()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(feed func(*Monitor)) (*Monitor, []byte) {
				mcfg := DefaultMonitorConfig()
				mcfg.Threshold = 4
				mon := NewMonitorWithResolver(mcfg, cloneTree(t, tree), resolve, nil)
				mon.capHosts(tc.maxHosts)
				feed(mon)
				var buf bytes.Buffer
				if err := mon.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				return mon, buf.Bytes()
			}
			ref, refCkpt := run(func(mon *Monitor) {
				for _, m := range tc.msgs {
					mon.HandleMessage(m)
				}
			})
			got, gotCkpt := run(func(mon *Monitor) {
				for _, m := range tc.msgs {
					if !mon.Enqueue(m) {
						t.Fatal("enqueue refused")
					}
				}
				mon.Start()
				mon.Stop()
			})
			wr, wg := ref.Warnings(), got.Warnings()
			if len(wr) < 3 {
				t.Fatalf("replay produced %d warnings; test has no teeth", len(wr))
			}
			if tc.maxHosts < 6 && ref.Stats().EvictedHosts < 6 {
				t.Fatalf("replay evicted %d hosts; test has no teeth", ref.Stats().EvictedHosts)
			}
			if len(wr) != len(wg) {
				t.Fatalf("warnings: %d from the replay, %d from the drains", len(wr), len(wg))
			}
			for i := range wr {
				if wr[i] != wg[i] {
					t.Fatalf("warning %d: replay %+v, drains %+v", i, wr[i], wg[i])
				}
			}
			if rs, gs := ref.Stats(), got.Stats(); rs != gs {
				t.Fatalf("stats: replay %+v, drains %+v", rs, gs)
			}
			if !bytes.Equal(refCkpt, gotCkpt) {
				t.Fatalf("checkpoints differ (%d vs %d bytes)", len(refCkpt), len(gotCkpt))
			}
		})
	}
}

// TestShardLifecycleConcurrency exercises every public entry point
// concurrently with running workers — the -race gate for the shard
// lifecycle (Start/Stop idempotence, Enqueue during Stop, checkpoint and
// hot-swap under load).
func TestShardLifecycleConcurrency(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	msgs := monitorTraffic([]string{"vpe01", "vpe02", "vpe03", "vpe04"}, 20)
	tree2 := cloneTree(t, tree)

	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.Shards = 4
	mon := NewMonitorWithResolver(mcfg, cloneTree(t, tree), resolve, nil)
	mon.capQueues(64)
	mon.Start()
	mon.Start() // idempotent while running

	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for _, m := range msgs {
			mon.Enqueue(m) // drops under pressure are fine here
		}
	}()
	go func() {
		defer wg.Done()
		for _, m := range msgs {
			mon.HandleMessage(m)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			mon.Stats()
			mon.Warnings()
			mon.Threshold()
			mon.hasHost("vpe01")
		}
	}()
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		if err := mon.Checkpoint(&buf); err != nil {
			t.Error(err)
		}
		mon.SwapModel(&bundle.Bundle{Tree: tree2, Detectors: []*detect.LSTMDetector{det, det},
			Assign: map[string]int{"vpe01": 1, "vpe02": 1, "vpe03": 1, "vpe04": 1}, Threshold: 5})
	}()
	wg.Wait()

	mon.Stop()
	mon.Stop() // idempotent when stopped
	if got := mon.Threshold(); got != 5 {
		t.Fatalf("threshold after swap: %v", got)
	}
	// The monitor restarts cleanly after a full stop.
	mon.Start()
	before := mon.Stats().Messages // read first: the worker may drain the message at once
	if !mon.Enqueue(msgs[0]) {
		t.Fatal("enqueue after restart refused")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && mon.Stats().Messages == before {
		time.Sleep(2 * time.Millisecond)
	}
	mon.Stop()
	if mon.Stats().Messages == before {
		t.Fatal("restarted workers not draining")
	}
}

// TestServerShardRouting wires the server's direct-to-shard path end to
// end: UDP datagrams for several hosts land on their shard queues from the
// listener goroutine and are scored by the workers.
func TestServerShardRouting(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg := DefaultMonitorConfig()
	mcfg.Shards = 4
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	mon.Start()
	defer mon.Stop()

	cfg := DefaultServerConfig()
	cfg.Sharded = mon
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	defer srv.Close()

	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const total = 40
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < total; i++ {
		m := logfmt.Message{
			Time: at, Host: fmt.Sprintf("vpe%02d", i%8), Tag: "rpd",
			Text: "bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		}
		if _, err := fmt.Fprint(conn, m.Format3164()); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && mon.Stats().Messages < total {
		time.Sleep(2 * time.Millisecond)
	}
	if got := mon.Stats().Messages; got != total {
		t.Fatalf("scored %d of %d routed messages", got, total)
	}
	st := srv.Stats()
	if st.Received != total || st.ShardDropped != 0 {
		t.Fatalf("server stats: %+v", st)
	}
	if mon.Stats().ActiveHosts != 8 {
		t.Fatalf("active hosts: %+v", mon.Stats())
	}
}

// TestTCPQuietPeerIsServed sends three frames in one write over a TCP
// connection that then stays open and silent. The listener holds parsed
// frames in a pending batch, so only the handoff before its next socket
// read, the one that blocks, can deliver them: all three verdicts must
// arrive while the connection is still open.
func TestTCPQuietPeerIsServed(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	var verdicts atomic.Int64
	mcfg := DefaultMonitorConfig()
	mcfg.Shards = 2
	mcfg.OnScored = func(string, int, features.Event, float64, bool, bool) { verdicts.Add(1) }
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	mon.Start()
	defer mon.Stop()

	cfg := DefaultServerConfig()
	cfg.Sharded = mon
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var burst []byte
	for _, m := range monitorTraffic([]string{"vpe01", "vpe02", "vpe03"}, 1)[:3] {
		line := m.Format3164()
		burst = fmt.Appendf(burst, "%d %s", len(line), line)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	// The listener counts a batch just after handing it over, so the
	// verdicts can overtake the count.
	deadline := time.Now().Add(10 * time.Second)
	for verdicts.Load() < 3 || srv.Stats().Received < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 verdicts from a quiet open connection; server %+v", verdicts.Load(), srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerShardDropAccounting hands ten frames to a stopped monitor's
// four-slot shard queue as one socket read's batch and checks the server
// counts every refused message under the dedicated shard-drop counter
// rather than blocking or losing it silently, and that the full queue
// refused the latecomers: the first four frames in arrival order are the
// ones queued.
func TestServerShardDropAccounting(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg := DefaultMonitorConfig()
	mcfg.Shards = 1
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	mon.capQueues(4)
	// Workers intentionally not started: the queue can only fill.

	cfg := DefaultServerConfig()
	cfg.Sharded = mon
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	w := &wireState{s: srv}
	for i := 0; i < 10; i++ {
		srv.enqueue([]byte(sampleLine(i)), w)
	}
	w.flush() // as before the next socket read
	st := srv.Stats()
	if st.Received != 4 || st.ShardDropped != 6 {
		t.Fatalf("drop accounting: %+v (want received=4 shard_dropped=6)", st)
	}
	queued := mon.shards[0].q.queued()
	if len(queued) != 4 {
		t.Fatalf("%d messages queued, want 4", len(queued))
	}
	for i, m := range queued {
		if m.Time.Second() != i {
			t.Fatalf("queue slot %d holds frame %d; a full queue must refuse the latest frames", i, m.Time.Second())
		}
	}
}

// benchmarkMonitorParallel measures concurrent HandleMessage throughput at
// a given shard count: GOMAXPROCS goroutines hammer a 64-host fleet. This
// is the acceptance pair for the sharding tentpole — compare ns/op between
// MonitorParallelShards1 (the old single-mutex behavior) and
// MonitorParallelShards8.
func benchmarkMonitorParallel(b *testing.B, shards int) {
	tree, det := trainMonitorDetector(b)
	mcfg := DefaultMonitorConfig()
	mcfg.Shards = shards
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	const hosts = 64
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	msgs := make([]logfmt.Message, hosts)
	for i := range msgs {
		msgs[i] = logfmt.Message{
			Time: base, Host: fmt.Sprintf("vpe%03d", i), Tag: "rpd",
			Text: "bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		}
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			m := msgs[i%hosts]
			m.Time = m.Time.Add(time.Duration(i) * time.Second)
			mon.HandleMessage(m)
		}
	})
}

// BenchmarkShardSerialSection measures the only per-message work the
// sharded path still serializes globally: the signature-tree learn under
// treeMu, LearnSyms on symbols prepared outside the lock (tokenization is
// measured separately). Its share of BenchmarkMonitorHandleMessage bounds
// the parallel speedup (Amdahl); the rest of the pipeline — LSTM step,
// clustering, LRU — is per-shard and scales with cores.
func BenchmarkShardSerialSection(b *testing.B) {
	tree, _ := trainMonitorDetector(b)
	var tb sigtree.TokenBuf
	syms, _ := tree.AppendSyms(nil, "bgp keepalive exchanged with peer 10.0.0.1 hold 90", &tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.LearnSyms(syms)
	}
}

// BenchmarkShardTokenize is the tokenization half, AppendSyms into a
// reused arena, which shards run outside the tree lock.
func BenchmarkShardTokenize(b *testing.B) {
	tree := sigtree.New()
	text := "bgp keepalive exchanged with peer 10.0.0.1 hold 90"
	var tb sigtree.TokenBuf
	var syms []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syms, _ = tree.AppendSyms(syms[:0], text, &tb)
	}
}

// BenchmarkServerHandoffShed times one frame over loopback TCP into a
// two-shard monitor that sheds scoring: socket read, framing, parse, the
// listener's batch handoff, the shard queues and the workers' drains down
// to the template learn — the path bench/'s shed_ingest workload measures.
// At most half a queue is in flight per shard, so no frame is refused.
func BenchmarkServerHandoffShed(b *testing.B) {
	mcfg := DefaultMonitorConfig()
	mcfg.Shards = 2
	mon := NewMonitorWithResolver(mcfg, sigtree.New(), func(string) *detect.LSTMDetector { return nil }, nil)
	mon.SetDegrade(resilience.ModeShedScoring)
	mon.Start()
	defer mon.Stop()
	cfg := DefaultServerConfig()
	cfg.UDPAddr = ""
	cfg.Sharded = mon
	srv, err := NewServer(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	srv.Start(context.Background())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	var frames [][]byte
	for _, m := range monitorTraffic([]string{"vpe01", "vpe02", "vpe03", "vpe04"}, 64) {
		line := m.Format3164()
		frames = append(frames, fmt.Appendf(nil, "%d %s", len(line), line))
	}
	w := bufio.NewWriterSize(conn, 64<<10)
	done := func() int { n, _ := mon.Counters(); return int(n) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			for i-done() > DefaultShardQueue/2 {
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		if _, err := w.Write(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	for done() < b.N {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	if st := srv.Stats(); st.ShardDropped != 0 || st.Malformed != 0 {
		b.Fatalf("server stats: %+v", st)
	}
}

func BenchmarkMonitorParallelShards1(b *testing.B) { benchmarkMonitorParallel(b, 1) }
func BenchmarkMonitorParallelShards4(b *testing.B) { benchmarkMonitorParallel(b, 4) }
func BenchmarkMonitorParallelShards8(b *testing.B) { benchmarkMonitorParallel(b, 8) }
