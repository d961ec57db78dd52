// Package ingest is the runtime half of the reproduction: a syslog
// ingestion server (UDP datagrams and TCP with RFC 6587 framing) feeding
// an online anomaly monitor, so the predictive-analysis system can run
// "in parallel with existing reactive monitoring systems" (§1) against a
// live vPE fleet instead of an offline trace.
package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/resilience"
)

// ServerConfig configures the listeners.
type ServerConfig struct {
	// UDPAddr and TCPAddr are listen addresses ("127.0.0.1:5514");
	// empty disables that listener. Use port 0 for an ephemeral port.
	UDPAddr, TCPAddr string
	// Year resolves RFC 3164 timestamps (which carry no year).
	Year int
	// Metrics, when set, is the registry the Stats counters report into.
	// When nil they live on a private registry and Stats() still works.
	Metrics *obs.Registry

	// Sharded is where parsed messages go: the listener goroutines hand
	// them over directly, so the scoring shards are the concurrency and
	// there is no queue in the server. A refused message (shard queue
	// full) is dropped and counted under ingest_shard_drops_total;
	// listeners never block on a slow scorer.
	Sharded ShardSink

	// Tracer, when set, mints a trace ID for every accepted message at the
	// accept boundary (before decode) and stamps the message's TraceCtx —
	// the start of the accept→verdict span the monitor finishes. Nil
	// disables tracing with zero per-message cost beyond one branch.
	Tracer *obs.Tracer
	// DropSLO, when set, records queue admission as an SLO event stream:
	// good on enqueue, bad on a drop (shard-queue overflow) — the
	// shard-drop-ratio objective.
	DropSLO *obs.SLO
}

// ShardSink accepts parsed messages into per-shard bounded queues without
// blocking. *ingest.Monitor implements it, and the listener hands a
// monitor each batch of parsed messages whole (one queue lock round per
// shard). Any other sink is fed by the same listener code one Enqueue call
// per message, from the listener goroutine that parsed it.
type ShardSink interface {
	// Enqueue reports false when the message's shard queue is full; the
	// caller owns the drop accounting.
	Enqueue(msg logfmt.Message) bool
}

// batchSink is the listener's one handoff: each pending batch goes to
// enqueueBatch, which reports how many of its messages were accepted.
// *Monitor implements it; NewServer wraps any other ShardSink in eachSink.
type batchSink interface {
	enqueueBatch(msgs []logfmt.Message) (accepted int)
}

// eachSink hands a batch to a ShardSink one message at a time.
type eachSink struct{ ShardSink }

func (e eachSink) enqueueBatch(msgs []logfmt.Message) (accepted int) {
	for i := range msgs {
		if e.Enqueue(msgs[i]) {
			accepted++
		}
	}
	return accepted
}

// handoffBatch caps a listener's pending batch: a full one is handed to the
// shards at once, so a socket read holding many frames pipelines into the
// workers instead of waiting for the read to be parsed to its end.
const handoffBatch = 64

// DefaultServerConfig returns loopback-friendly defaults.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		UDPAddr: "127.0.0.1:0",
		TCPAddr: "127.0.0.1:0",
		Year:    2018,
	}
}

// maxLine bounds a single TCP frame: it sizes each connection's read
// buffer, which holds every frame while it is parsed. An octet-counted
// frame announcing more is skipped whole, and an LF line that fills the
// buffer is skipped through its LF; each counts as malformed.
const maxLine = 8192

// Stats counts server activity; all fields are cumulative.
type Stats struct {
	// Received is the number of well-formed messages accepted. It and
	// ShardDropped are counted when the listener hands a batch over.
	Received uint64
	// Malformed is the number of lines that failed to parse.
	Malformed uint64
	// ShardDropped is the number of messages refused by a full shard
	// queue.
	ShardDropped uint64
}

// Server receives syslog over UDP and TCP, parses each frame on the
// goroutine that read it and hands the messages of each socket read to a
// ShardSink.
type Server struct {
	cfg  ServerConfig
	sink batchSink

	udp     *net.UDPConn
	tcp     net.Listener
	wg      sync.WaitGroup
	closed  chan struct{}
	closeMu sync.Once

	// connMu guards conns, the set of accepted TCP connections. Close
	// closes them all so serveTCP goroutines blocked mid-frame unblock
	// instead of deadlocking the shutdown.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// Counters live on the registry (cfg.Metrics, or a private one) so
	// Stats(), logs, and /metrics report the same numbers with no double
	// bookkeeping.
	received   *obs.Counter
	malformed  *obs.Counter
	shardDrops *obs.Counter
}

// funcSink adapts a callback to ShardSink: it runs on the listener
// goroutine that parsed the message and accepts every message.
type funcSink func(logfmt.Message)

func (f funcSink) Enqueue(msg logfmt.Message) bool { f(msg); return true }

// NewServer creates a server delivering parsed messages to cfg.Sharded.
// Only tests pass a sink: it stands in for cfg.Sharded, is called from
// every listener goroutine (so it does its own locking) and never refuses.
func NewServer(cfg ServerConfig, sink func(logfmt.Message)) (*Server, error) {
	if cfg.Sharded == nil {
		if sink == nil {
			return nil, errors.New("ingest: sink must not be nil")
		}
		cfg.Sharded = funcSink(sink)
	}
	if cfg.UDPAddr == "" && cfg.TCPAddr == "" {
		return nil, errors.New("ingest: at least one of UDPAddr/TCPAddr required")
	}
	s := &Server{
		cfg:    cfg,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	if b, ok := cfg.Sharded.(batchSink); ok {
		s.sink = b
	} else {
		s.sink = eachSink{cfg.Sharded}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.received = reg.Counter("ingest_received_total", "Well-formed syslog messages accepted.")
	s.malformed = reg.Counter("ingest_malformed_total", "Lines or frames that failed to parse.")
	s.shardDrops = reg.Counter("ingest_shard_drops_total", "Messages refused by a full shard queue (sharded routing).")
	if cfg.UDPAddr != "" {
		addr, err := net.ResolveUDPAddr("udp", cfg.UDPAddr)
		if err != nil {
			return nil, fmt.Errorf("ingest: resolving UDP addr: %w", err)
		}
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("ingest: listening UDP: %w", err)
		}
		// Syslog senders burst; a generous kernel buffer absorbs spikes
		// the listener hasn't read yet. Best-effort: some platforms
		// clamp the size.
		_ = conn.SetReadBuffer(4 << 20)
		s.udp = conn
	}
	if cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", cfg.TCPAddr)
		if err != nil {
			if s.udp != nil {
				s.udp.Close()
			}
			return nil, fmt.Errorf("ingest: listening TCP: %w", err)
		}
		s.tcp = ln
	}
	return s, nil
}

// UDPAddr returns the bound UDP address, or nil when UDP is disabled.
func (s *Server) UDPAddr() net.Addr {
	if s.udp == nil {
		return nil
	}
	return s.udp.LocalAddr()
}

// TCPAddr returns the bound TCP address, or nil when TCP is disabled.
func (s *Server) TCPAddr() net.Addr {
	if s.tcp == nil {
		return nil
	}
	return s.tcp.Addr()
}

// Stats returns a snapshot of the server counters — a thin view over the
// same registry counters exported at /metrics.
func (s *Server) Stats() Stats {
	return Stats{
		Received:     s.received.Value(),
		Malformed:    s.malformed.Value(),
		ShardDropped: s.shardDrops.Value(),
	}
}

// Start launches the reader goroutines; it returns immediately. Cancel ctx
// or call Close to stop.
func (s *Server) Start(ctx context.Context) {
	if s.udp != nil {
		s.wg.Add(1)
		go s.readUDP()
	}
	if s.tcp != nil {
		s.wg.Add(1)
		go s.acceptTCP()
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.closed:
			}
		}()
	}
}

// Close stops the listeners, interrupts accepted connections (so a handler
// blocked mid-frame cannot stall shutdown), and waits for in-flight work to
// drain.
func (s *Server) Close() {
	s.closeMu.Do(func() {
		close(s.closed)
		if s.udp != nil {
			s.udp.Close()
		}
		if s.tcp != nil {
			s.tcp.Close()
		}
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
}

// trackConn registers an accepted connection for shutdown; it reports false
// when the server is already closing (the caller should drop the conn).
func (s *Server) trackConn(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[c] = struct{}{}
	return true
}

// untrackConn removes a finished connection.
func (s *Server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// wireState is one listener's per-read state: the accept stamp its frames
// share, the parsed messages not yet handed to the shards, and the
// drop-SLO events the handoffs have produced since the last flush. For a
// TCP connection it is also the io.Reader under the bufio.Reader, so every
// socket read, the only place the listener can block, flushes before it
// and restamps after it: no parsed message waits on the socket.
//
// A pending message is parsed in place: its header fields are written into
// its slot, its tail from the host onward is appended to block and the
// field bounds kept in tails. At handoff block becomes one string and every
// pending message's Host, Tag and Text are substrings of it, so a batch
// costs one allocation however many frames it holds.
type wireState struct {
	s    *Server
	conn io.Reader
	// accept is when the read holding the current frames returned; it is
	// read only when a tracer is attached.
	accept    time.Time
	pending   []logfmt.Message
	tails     [handoffBatch]tailBounds
	block     []byte
	good, bad uint64
}

// tailBounds locates one pending message's fields in wireState.block:
// host block[start:hostEnd], tag block[hostEnd+1:tagEnd], text
// block[tagEnd+2:end].
type tailBounds struct{ start, hostEnd, tagEnd, end int32 }

// blockBytes caps a batch block: a frame whose line would take the block
// past it hands the pending batch over first. A batch string lives as long
// as any of its messages is referenced (queued, in a drain, or in a stale
// ring slot), so the cap bounds what one message can keep alive to about
// what the largest TCP frame copied on its own would. Nothing that
// outlives its drain keeps a string from a batch (see shard.hostFor).
const blockBytes = 2 * maxLine

func (w *wireState) Read(p []byte) (int, error) {
	w.flush()
	n, err := w.conn.Read(p)
	w.stamp()
	return n, err
}

// stamp records the accept time of the bytes just read.
func (w *wireState) stamp() {
	if w.s.cfg.Tracer != nil {
		w.accept = time.Now()
	}
}

// flush hands the pending messages to the shards and records the batched
// drop-SLO events in one clock read.
func (w *wireState) flush() {
	w.handoff()
	w.s.cfg.DropSLO.RecordN(w.good, w.bad)
	w.good, w.bad = 0, 0
}

// handoff gives the pending messages to the sink in one call and counts
// what it accepted and refused. It first turns the batch block into the
// one string the messages' fields are cut from.
func (w *wireState) handoff() {
	n := len(w.pending)
	if n == 0 {
		return
	}
	blk := string(w.block)
	w.block = w.block[:0]
	for i := range w.pending {
		t, m := &w.tails[i], &w.pending[i]
		m.Host = blk[t.start:t.hostEnd]
		m.Tag = blk[t.hostEnd+1 : t.tagEnd]
		m.Text = blk[t.tagEnd+2 : t.end]
	}
	took := w.s.sink.enqueueBatch(w.pending)
	w.pending = w.pending[:0]
	w.s.received.Add(uint64(took))
	w.good += uint64(took)
	if dropped := uint64(n - took); dropped > 0 {
		w.s.shardDrops.Add(dropped)
		w.bad += dropped
	}
}

// enqueue parses one raw line into the pending batch, handing the batch to
// the shards once it is full. line is only borrowed: the parse copies its
// tail into the batch block.
func (s *Server) enqueue(line []byte, w *wireState) {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) == 0 {
		return
	}
	if len(w.block)+len(line) > blockBytes {
		w.handoff()
	}
	n := len(w.pending)
	if n < cap(w.pending) {
		w.pending = w.pending[:n+1]
	} else {
		w.pending = append(w.pending, logfmt.Message{})
	}
	msg := &w.pending[n]
	tail, hostEnd, tagEnd, err := logfmt.Parse3164Header(line, s.cfg.Year, msg)
	if err != nil {
		w.pending = w.pending[:n]
		s.malformed.Add(1)
		return
	}
	start := len(w.block)
	w.block = append(w.block, tail...)
	w.tails[n] = tailBounds{int32(start), int32(start + hostEnd), int32(start + tagEnd), int32(len(w.block))}
	msg.Trace = logfmt.TraceCtx{}
	if s.cfg.Tracer != nil {
		id, sampled := s.cfg.Tracer.Accept()
		msg.Trace = logfmt.TraceCtx{ID: uint64(id), Sampled: sampled, Accept: w.accept}
		if sampled {
			// Only a sampled span reads the decode stage, so only a
			// sampled frame pays for a second clock read.
			msg.Trace.DecodeNS = int64(time.Since(w.accept))
		}
	}
	if n+1 == handoffBatch {
		w.handoff()
	}
}

// listenerBackoff builds the retry pacing for one listener goroutine:
// exponential 1ms→1s with +50% jitter, clock-seeded so a fleet of monitors
// that all saw the same transient error (e.g. EMFILE on accept) de-
// synchronizes instead of retrying in lockstep. Callers Reset after a
// success.
func listenerBackoff() *resilience.Backoff {
	return resilience.NewBackoff(time.Millisecond, time.Second, 0.5, 0)
}

// backoffSleep sleeps the backoff's next delay, interrupted by Close.
func (s *Server) backoffSleep(b *resilience.Backoff) {
	t := time.NewTimer(b.Next())
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.closed:
	}
}

// readUDP treats each datagram as one syslog message.
func (s *Server) readUDP() {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	retry := listenerBackoff()
	w := &wireState{s: s}
	for {
		n, _, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.backoffSleep(retry)
			continue
		}
		retry.Reset()
		w.stamp()
		s.enqueue(buf[:n], w)
		w.flush()
	}
}

// acceptTCP serves each connection with RFC 6587 framing.
func (s *Server) acceptTCP() {
	defer s.wg.Done()
	retry := listenerBackoff()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.backoffSleep(retry)
			continue
		}
		retry.Reset()
		if !s.trackConn(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrackConn(conn)
			defer conn.Close()
			s.serveTCP(conn)
		}()
	}
}

// serveTCP reads RFC 6587 frames: octet counting ("123 <pri>...") when the
// stream starts with a digit, non-transparent LF framing otherwise. Every
// frame is parsed in place in the read buffer; frames already buffered
// share the accept stamp of the read that brought them.
//
// Malformed frames do not kill the connection: an oversize but parseable
// length skips exactly that many bytes (frame-level resync), an
// unparseable or zero/leading-zero length falls back to discarding
// through the next LF, and an LF line longer than the buffer is discarded
// through its LF. Each is counted as one malformed frame and the peer
// keeps its connection — one bad sender line must not silently drop a vPE
// from monitoring.
func (s *Server) serveTCP(conn net.Conn) {
	w := &wireState{s: s, conn: conn, pending: make([]logfmt.Message, 0, handoffBatch), block: make([]byte, 0, blockBytes)}
	defer w.flush()
	r := bufio.NewReaderSize(w, maxLine)
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		b, err := r.Peek(1)
		if err != nil {
			return
		}
		if b[0] >= '0' && b[0] <= '9' {
			// Octet counting: "<len> <msg>".
			n, ok, err := readOctetLen(r)
			if err != nil {
				return
			}
			if !ok || n <= 0 {
				// Unusable length (leading zero, overlong, junk, or "0").
				// Resync on the LF boundary like a non-transparent frame.
				s.malformed.Add(1)
				if skipLine(r) != nil {
					return
				}
				continue
			}
			if n > maxLine {
				// Parseable but oversize: skip the advertised frame so the
				// stream stays in sync, then keep serving the peer.
				s.malformed.Add(1)
				if _, err := r.Discard(n); err != nil {
					return
				}
				continue
			}
			frame, err := r.Peek(n)
			if err != nil {
				return
			}
			s.enqueue(frame, w)
			r.Discard(n) // cannot fail: Peek buffered all n bytes
			continue
		}
		// LF framing.
		line, err := r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			s.malformed.Add(1)
			if skipLine(r) != nil {
				return
			}
			continue
		}
		if len(line) > 0 {
			s.enqueue(line, w)
		}
		if err != nil {
			return
		}
	}
}

// skipLine discards through the next LF a buffer at a time, so a line
// that never ends costs the listener no memory.
func skipLine(r *bufio.Reader) error {
	for {
		_, err := r.ReadSlice('\n')
		if !errors.Is(err, bufio.ErrBufferFull) {
			return err
		}
	}
}

// maxOctetDigits bounds the octet-count field; RFC 6587 lengths fit well
// within it, and the bound keeps a malicious all-digit stream from growing
// an unbounded length token.
const maxOctetDigits = 10

// readOctetLen consumes an octet-count prefix "<digits> " from r. It
// returns ok=false (with the bad digits consumed) when the field is
// syntactically unusable: leading zero, more than maxOctetDigits digits,
// or a non-space after the digits. err is an I/O error from the stream.
// The value accumulates in place as digits stream by — no scratch slice,
// no strconv round-trip through a string — and maxOctetDigits keeps the
// accumulator far from int64 overflow.
func readOctetLen(r *bufio.Reader) (n int, ok bool, err error) {
	v, nd := 0, 0
	leadZero := false
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, false, err
		}
		if b == ' ' {
			break
		}
		if b < '0' || b > '9' || nd >= maxOctetDigits {
			return 0, false, nil
		}
		if nd == 0 && b == '0' {
			leadZero = true
		}
		v = v*10 + int(b-'0')
		nd++
	}
	if nd == 0 || (leadZero && nd > 1) {
		return 0, false, nil
	}
	return v, true, nil
}
