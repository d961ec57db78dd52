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
	defer mon.Stop()
	before := mon.Stats().Messages // read first: the worker may drain the message at once
	if !mon.Enqueue(msgs[0]) {
		t.Fatal("enqueue after restart refused")
	}
	settle(t, mon)
	if mon.Stats().Messages != before+1 {
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
	waitUntil(t, "the listener counts every datagram", func() bool { return srv.Stats().Received >= total })
	settle(t, mon)
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
	waitUntil(t, "the listener counts 3 frames", func() bool { return srv.Stats().Received >= 3 })
	settle(t, mon)
	if got := verdicts.Load(); got != 3 {
		t.Fatalf("%d of 3 verdicts from a quiet open connection", got)
	}
}

// refusing is a ShardSink that refuses every fifth message.
type refusing struct{ n atomic.Int64 }

func (r *refusing) Enqueue(logfmt.Message) bool { return r.n.Add(1)%5 != 0 }

// TestTCPEOFMeansHandedOver is the socket barrier: a sender that
// half-closes its connection and reads to EOF finds every frame it sent
// counted (received, malformed or refused by its shard queue) with no
// wait, over twenty connections.
func TestTCPEOFMeansHandedOver(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.UDPAddr, cfg.Sharded = "", &refusing{}
	srv, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	defer srv.Close()
	var frames []byte
	for i := 0; i < 250; i++ {
		line := sampleLine(i)
		if i%97 == 0 {
			line = "no priority, no header"
		}
		frames = fmt.Appendf(frames, "%d %s", len(line), line)
	}
	for sent := uint64(250); sent <= 20*250; sent += 250 {
		conn, err := net.Dial("tcp", srv.TCPAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		halfClose(t, conn)
		conn.Close()
		if st := srv.Stats(); st.Received+st.Malformed+st.ShardDropped != sent || st.Malformed == 0 || st.ShardDropped == 0 {
			t.Fatalf("at EOF the listener counted %d received + %d malformed + %d refused of %d sent",
				st.Received, st.Malformed, st.ShardDropped, sent)
		}
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
	waitUntil(b, "the listener counts every frame", func() bool { return srv.Stats().Received >= uint64(b.N) })
	settle(b, mon)
	b.StopTimer()
	if st := srv.Stats(); st.ShardDropped != 0 || st.Malformed != 0 {
		b.Fatalf("server stats: %+v", st)
	}
}

func BenchmarkMonitorParallelShards1(b *testing.B) { benchmarkMonitorParallel(b, 1) }
func BenchmarkMonitorParallelShards4(b *testing.B) { benchmarkMonitorParallel(b, 4) }
func BenchmarkMonitorParallelShards8(b *testing.B) { benchmarkMonitorParallel(b, 8) }
