package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/sigtree"
)

// collector gathers sink messages thread-safely and supports waiting.
type collector struct {
	mu   sync.Mutex
	msgs []logfmt.Message
}

func (c *collector) sink(m logfmt.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) waitFor(t *testing.T, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d messages reach the sink", n), func() bool { return c.count() >= n })
}

func startServer(t *testing.T) (*Server, *collector) {
	t.Helper()
	col := &collector{}
	srv, err := NewServer(DefaultServerConfig(), col.sink)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	t.Cleanup(srv.Close)
	return srv, col
}

// halfClose half-closes conn and reads to EOF: the listener has then
// counted every frame sent on conn and handed it to the sink.
func halfClose(t testing.TB, conn net.Conn) {
	t.Helper()
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
}

func sampleLine(i int) string {
	m := logfmt.Message{
		Time:     time.Date(2018, 2, 3, 4, 5, i%60, 0, time.UTC),
		Host:     "vpe01",
		Facility: logfmt.FacDaemon,
		Severity: logfmt.Warning,
		Tag:      "rpd",
		Text:     fmt.Sprintf("bgp peer 10.0.0.%d state change", i%250+1),
	}
	return m.Format3164()
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(DefaultServerConfig(), nil); err == nil {
		t.Fatal("nil sink should error")
	}
	if _, err := NewServer(ServerConfig{}, func(logfmt.Message) {}); err == nil {
		t.Fatal("no listeners should error")
	}
}

func TestUDPIngestion(t *testing.T) {
	srv, col := startServer(t)
	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		if _, err := fmt.Fprint(conn, sampleLine(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the listener counts 10 datagrams", func() bool { return srv.Stats().Received >= 10 })
	if col.msgs[0].Host != "vpe01" || col.msgs[0].Tag != "rpd" {
		t.Fatalf("parsed message wrong: %+v", col.msgs[0])
	}
	if col.msgs[0].Time.Year() != 2018 {
		t.Fatalf("year not applied: %v", col.msgs[0].Time)
	}
	if st := srv.Stats(); st.Received != 10 || st.Malformed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUDPMalformed(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "this is not syslog")
	fmt.Fprint(conn, sampleLine(1))
	waitUntil(t, "both datagrams are counted", func() bool { st := srv.Stats(); return st.Received+st.Malformed >= 2 })
	if st := srv.Stats(); st.Malformed != 1 || st.Received != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTCPLFFraming(t *testing.T) {
	srv, col := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		if _, err := fmt.Fprintf(conn, "%s\n", sampleLine(i)); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 5)
}

func TestTCPOctetCounting(t *testing.T) {
	srv, col := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		line := sampleLine(i)
		if _, err := fmt.Fprintf(conn, "%d %s", len(line), line); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 5)
}

func TestTCPMultipleConnections(t *testing.T) {
	srv, col := startServer(t)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.TCPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := 0; i < 25; i++ {
				fmt.Fprintf(conn, "%s\n", sampleLine(c*25+i))
			}
		}(c)
	}
	wg.Wait()
	col.waitFor(t, 100)
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	srv.Close()
	srv.Close() // must not panic or deadlock
}

func TestContextCancelStopsServer(t *testing.T) {
	col := &collector{}
	srv, err := NewServer(DefaultServerConfig(), col.sink)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	cancel()
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after context cancel")
	}
}

// trainMonitorDetector builds a sigtree+detector pair on a cyclic message
// corpus resembling the simulator's normal traffic.
func trainMonitorDetector(t testing.TB) (*sigtree.Tree, *detect.LSTMDetector) {
	t.Helper()
	tree := sigtree.New()
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
		"fpc 0 cpu utilization 20 percent memory 40 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 120 us",
	}
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1200; i++ {
		tpl := tree.Learn(texts[i%len(texts)])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden = []int{16}
	cfg.MaxVocab = 16
	cfg.Epochs = 6
	cfg.OverSampleRounds = 0
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	return tree, det
}

func TestMonitorEmitsWarningOnAnomalyBurst(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	var fired []detect.Warning
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mon := NewMonitor(mcfg, tree, det, func(w detect.Warning) { fired = append(fired, w) })

	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
		"fpc 1 cpu utilization 30 percent memory 45 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 80 us",
	}
	mk := func(text string, at time.Time) logfmt.Message {
		return logfmt.Message{Time: at, Host: "vpe07", Facility: logfmt.FacDaemon, Severity: logfmt.Info, Tag: "rpd", Text: text}
	}
	// Warm-up with normal traffic: no warnings expected.
	at := base
	for i := 0; i < 120; i++ {
		mon.HandleMessage(mk(normal[i%len(normal)], at))
		at = at.Add(30 * time.Second)
	}
	if len(fired) != 0 {
		t.Fatalf("warnings during normal traffic: %+v", fired)
	}
	// Anomaly burst: three never-seen messages within a minute.
	for i := 0; i < 3; i++ {
		mon.HandleMessage(mk("invalid response from peer chassis-control session 42 retries 3", at))
		at = at.Add(15 * time.Second)
	}
	if len(fired) != 1 {
		t.Fatalf("expected exactly one warning, got %+v", fired)
	}
	if fired[0].VPE != "vpe07" || fired[0].Size < 2 {
		t.Fatalf("warning: %+v", fired[0])
	}
	if got := mon.Warnings(); len(got) != 1 {
		t.Fatalf("Warnings(): %+v", got)
	}
	msgs, anoms := mon.Counters()
	if msgs != 123 || anoms < 2 {
		t.Fatalf("counters: msgs=%d anoms=%d", msgs, anoms)
	}
}

func TestMonitorIsolatedAnomalyNoWarning(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	var fired []detect.Warning
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mon := NewMonitor(mcfg, tree, det, func(w detect.Warning) { fired = append(fired, w) })
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	mk := func(text string, at time.Time) logfmt.Message {
		return logfmt.Message{Time: at, Host: "vpe07", Tag: "rpd", Text: text}
	}
	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
		"fpc 1 cpu utilization 30 percent memory 45 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 80 us",
	}
	at := base
	for i := 0; i < 60; i++ {
		mon.HandleMessage(mk(normal[i%len(normal)], at))
		at = at.Add(30 * time.Second)
	}
	// One isolated anomaly, then 10 minutes of quiet, then another.
	mon.HandleMessage(mk("totally unexpected kernel catastrophe message here", at))
	at = at.Add(10 * time.Minute)
	mon.HandleMessage(mk("another single unexpected kernel event occurred now", at))
	if len(fired) != 0 {
		t.Fatalf("isolated anomalies must not warn (§5.1 rule): %+v", fired)
	}
}

// End-to-end: syslog over UDP through the server into the monitor.
func TestServerToMonitorEndToEnd(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	warned := make(chan detect.Warning, 4)
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mon := NewMonitor(mcfg, tree, det, func(w detect.Warning) { warned <- w })

	cfg := DefaultServerConfig()
	cfg.Year = 2018
	srv, err := NewServer(cfg, mon.HandleMessage)
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

	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	send := func(text string, at time.Time) {
		m := logfmt.Message{Time: at, Host: "vpe03", Facility: logfmt.FacDaemon, Severity: logfmt.Info, Tag: "rpd", Text: text}
		fmt.Fprint(conn, m.Format3164())
	}
	at := base
	for i := 0; i < 80; i++ {
		send("bgp keepalive exchanged with peer 10.0.0.5 hold 90", at)
		at = at.Add(30 * time.Second)
	}
	for i := 0; i < 3; i++ {
		send("invalid response from peer chassis-control session 7 retries 2", at)
		at = at.Add(10 * time.Second)
	}
	select {
	case w := <-warned:
		if w.VPE != "vpe03" {
			t.Fatalf("warning from wrong vPE: %+v", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no warning arrived end-to-end")
	}
}

// TestServingPathAllocGate is the serving-path allocation contract: after
// warm-up (host state created, templates learned, symbols interned, shard
// scratch grown), HandleMessage averages at most 2 allocs per message.
// HandleMessage is a drain of one through shard.process, the function the
// shard workers run, so this is the served code and not a copy of it.
// The interned tokenize path actually runs at 0; the slack tolerates rare
// amortized events (symbol-table republish, cluster-state turnover)
// without flaking.
func TestServingPathAllocGate(t *testing.T) {
	mon, msg := spanBenchMonitor(t, false)
	for i := 0; i < 200; i++ {
		msg.Time = msg.Time.Add(time.Second)
		mon.HandleMessage(msg)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		msg.Time = msg.Time.Add(time.Second)
		mon.HandleMessage(msg)
	})
	if allocs > 2 {
		t.Fatalf("HandleMessage allocates %.2f/op after warm-up, gate is 2", allocs)
	}
}

// BenchmarkMonitorHandleMessage times one message through HandleMessage: a
// drain of one through shard.process, so every per-drain cost (lock round,
// tree section, scratch set-up) lands on a single message.
func BenchmarkMonitorHandleMessage(b *testing.B) {
	tree := sigtree.New()
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
	}
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 400; i++ {
		tpl := tree.Learn(texts[i%2])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden = []int{16}
	cfg.MaxVocab = 8
	cfg.Epochs = 1
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		b.Fatal(err)
	}
	mon := NewMonitor(DefaultMonitorConfig(), tree, det, nil)
	msg := logfmt.Message{Time: base, Host: "vpe00", Tag: "rpd", Text: texts[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Time = msg.Time.Add(time.Second)
		mon.HandleMessage(msg)
	}
}

func TestTCPOctetCountOversizeFrame(t *testing.T) {
	srv, col := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Oversize frame length: the connection must be dropped as malformed
	// without crashing the server.
	fmt.Fprintf(conn, "999999 junk")
	waitUntil(t, "the oversize frame is counted as malformed", func() bool { return srv.Stats().Malformed >= 1 })
	// The server still accepts new connections afterwards.
	conn2, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "%s\n", sampleLine(1))
	col.waitFor(t, 1)
}

func TestTCPMixedFramingOnOneConnection(t *testing.T) {
	srv, col := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// RFC 6587 allows either; our server decides per frame by first byte.
	a := sampleLine(1)
	fmt.Fprintf(conn, "%d %s", len(a), a) // octet counted
	fmt.Fprintf(conn, "%s\n", sampleLine(2))
	b := sampleLine(3)
	fmt.Fprintf(conn, "%d %s", len(b), b)
	col.waitFor(t, 3)
	_ = srv
}

// TestUDPOversizedDatagram sends a datagram larger than the reader buffer
// can hold; it must be counted (as malformed once truncated parsing fails)
// without wedging the reader.
func TestUDPOversizedDatagram(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// ~65k of junk: at the UDP payload ceiling. Depending on the platform
	// the send may fail locally; either way the server must stay alive.
	junk := bytes.Repeat([]byte("x"), 65000)
	_, _ = conn.Write(junk)
	fmt.Fprint(conn, sampleLine(5))
	waitUntil(t, "the listener counts the good datagram", func() bool { return srv.Stats().Received >= 1 })
	if st := srv.Stats(); st.Received != 1 {
		t.Fatalf("stats after oversized datagram: %+v", st)
	}
}

// TestTCPEmptyAndMalformedOctetFrames covers the frame-length edge cases:
// "0 " (empty frame), leading-zero lengths, and junk after digits. Each is
// malformed but must not kill the connection — later well-formed frames on
// the same connection still arrive.
func TestTCPEmptyAndMalformedOctetFrames(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Malformed: empty octet frame. Resyncs at the next LF.
	fmt.Fprint(conn, "0 \n")
	// Malformed: leading-zero length. Resyncs at the next LF.
	fmt.Fprint(conn, "007 bond\n")
	// Malformed: absurdly long digit run. Resyncs at the next LF.
	fmt.Fprintf(conn, "%s\n", strings.Repeat("9", 40))
	// Well-formed frame on the same connection: must still be delivered.
	line := sampleLine(9)
	fmt.Fprintf(conn, "%d %s", len(line), line)
	halfClose(t, conn)
	st := srv.Stats()
	if st.Malformed < 3 {
		t.Fatalf("expected >=3 malformed frames, got %+v", st)
	}
	if st.Received != 1 {
		t.Fatalf("resync failed, good frame lost: %+v", st)
	}
}

// TestTCPOversizeOctetFrameResync: a parseable but oversize length skips
// exactly that many bytes and the connection keeps working.
func TestTCPOversizeOctetFrameResync(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Over maxLine: the server must discard exactly that many bytes then
	// resume.
	over := maxLine + 100
	fmt.Fprintf(conn, "%d %s", over, strings.Repeat("j", over))
	line := sampleLine(3)
	fmt.Fprintf(conn, "%d %s", len(line), line)
	halfClose(t, conn)
	if st := srv.Stats(); st.Malformed != 1 || st.Received != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTCPLineWithoutLFIsBounded sends 64 read buffers of LF-framed junk
// with no LF, then a good line. The junk is one malformed frame, the good
// line still arrives, and the listener skips the junk a buffer at a time
// instead of collecting it: the process allocates far less than the junk's
// size while serving it.
func TestTCPLineWithoutLFIsBounded(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	junk := bytes.Repeat([]byte("x"), 64*maxLine)
	junk = append(junk, '\n')
	good := []byte(sampleLine(1) + "\n")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(good); err != nil {
		t.Fatal(err)
	}
	halfClose(t, conn)
	runtime.ReadMemStats(&after)
	if st := srv.Stats(); st.Malformed != 1 || st.Received != 1 {
		t.Fatalf("stats: %+v (want malformed=1 received=1)", st)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*maxLine {
		t.Fatalf("serving %d bytes without an LF allocated %d bytes, bound %d", len(junk), grew, 8*maxLine)
	}
}

// TestCloseDuringInFlightTCPFrame opens a frame, sends only part of it, and
// closes the server: Close must interrupt the blocked handler rather than
// deadlock.
func TestCloseDuringInFlightTCPFrame(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise 100 bytes, deliver 10, then go silent.
	fmt.Fprint(conn, "100 0123456789")
	time.Sleep(50 * time.Millisecond) // let serveTCP block in ReadFull
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on an in-flight TCP frame")
	}
}

// TestTCPPeerDiesMidFrame tears the peer's write partway through a frame
// with a fault point, then closes the peer's connection: the server must
// count nothing received for the torn frame and keep accepting other peers.
func TestTCPPeerDiesMidFrame(t *testing.T) {
	srv, _ := startServer(t)
	raw, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	line := sampleLine(0)
	frame := fmt.Sprintf("%d %s", len(line), line)
	faults := faultinject.NewRegistry()
	if err := faults.Arm("peer.write", faultinject.Arming{Mode: faultinject.ModeTorn, Bytes: int64(len(frame) / 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := faults.Point("peer.write", "").Writer(raw).Write([]byte(frame)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn peer write = %v, want the injected fault", err)
	}
	raw.Close()
	// A second, healthy peer still gets through.
	conn2, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "%s\n", sampleLine(1))
	halfClose(t, conn2)
	if st := srv.Stats(); st.Received != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
