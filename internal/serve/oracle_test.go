package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/wireframe"
)

// A drive is how a variant hands the trace to the stack: sync is
// HandleMessage on a stack never started, async is Enqueue, socket is
// octet-framed TCP into the stack's own listener. Async and socket settle
// after every oracleChunk messages: traffic's burst period, so a chunk
// holds one burst on one vPE and the shards cannot learn two bursts'
// templates in either order.
const (
	syncDrive, asyncDrive, socketDrive = "sync", "async", "socket"
	oracleChunk                        = 200
)

// variant is one way of serving the trace: a promotion forced after
// promote messages, and a checkpoint after restart messages with the rest
// served by a second stack over the same options at onto shards (0: none).
type variant struct {
	name                   string
	shards                 int
	drive                  string
	promote, restart, onto int
}

// verdict is one decision span's judgement of a message.
type verdict struct {
	Template          int
	Score             uint64 // math.Float64bits
	Anomalous, Warned bool
}

// record is what a variant served.
type record struct {
	verdicts   map[string][]verdict // per host, in the order scored
	warnings   []detect.Warning
	stats      ingest.MonitorStats // Shards zeroed
	checkpoint []byte              // canonical Monitor.Checkpoint
	served     []uint64            // GET /models fingerprints
	ingest     ingest.Stats
}

// TestServedPathsAgree is the parity table: one trace served through New
// under each variant, against a 1-shard reference that scores it through
// HandleMessage on a stack never started and takes the same forced
// promotion. Every row holds each host's verdicts (score bits included),
// the counters and the served fingerprints to the reference; a sync row
// also the warnings in order and the checkpoint; an async or socket row
// the warning multiset (warning order and host recency follow the
// shards' interleaving); a socket row every frame received.
func TestServedPathsAgree(t *testing.T) {
	// Restarts cut a burst in half: a restart that lost a host's open
	// anomaly cluster would warn again or not at all.
	const n, midBurst, promote = 2000, 1195, 300
	msgs := trafficTrace(n)
	ref := func(promote int) record {
		return serveTrace(t, msgs, variant{shards: 1, drive: syncDrive, promote: promote})
	}
	refs := map[int]record{0: ref(0), promote: ref(promote)}
	scored := 0
	for _, vs := range refs[0].verdicts {
		scored += len(vs)
	}
	if scored != n || len(refs[0].verdicts) < 8 || len(refs[0].warnings) == 0 ||
		reflect.DeepEqual(refs[0].served, refs[promote].served) {
		t.Fatalf("the reference holds %d verdicts of %d over %d vPEs and %d warnings, and serves %x promoted: no teeth",
			scored, n, len(refs[0].verdicts), len(refs[0].warnings), refs[promote].served)
	}
	for _, v := range []variant{
		{name: "sync_8_shards", shards: 8, drive: syncDrive},
		{name: "sync_restart_1_onto_1", shards: 1, drive: syncDrive, restart: midBurst, onto: 1},
		{name: "sync_restart_8_onto_3", shards: 8, drive: syncDrive, restart: midBurst, onto: 3},
		{name: "async_4_shards", shards: 4, drive: asyncDrive},
		{name: "socket_4_shards", shards: 4, drive: socketDrive},
		{name: "promotion_then_restart", shards: 2, drive: syncDrive, promote: promote, restart: 395, onto: 4},
	} {
		t.Run(v.name, func(t *testing.T) {
			got := serveTrace(t, msgs, v)
			got.compare(t, refs[v.promote], v.drive)
			if v.drive == socketDrive && got.ingest != (ingest.Stats{Received: n}) {
				t.Fatalf("the listener counted %+v of %d frames sent", got.ingest, n)
			}
		})
	}
}

// serveTrace serves msgs through New under v, over adaptOptions.
func serveTrace(t *testing.T, msgs []logfmt.Message, v variant) record {
	t.Helper()
	o := adaptOptions(t)
	o.UDPAddr, o.TCPAddr, o.Year, o.SpanBuffer, o.Shards = "", "127.0.0.1:0", 2018, 2*len(msgs), v.shards
	s := v.stack(t, o)
	rec := record{verdicts: map[string][]verdict{}}
	done := 0
	if v.promote > 0 {
		done = v.feed(t, s, msgs, done, v.promote)
		if res := s.Lifecycle.TriggerCycle(true); !res.Promoted {
			t.Fatalf("forced cycle did not promote: %+v", res)
		}
	}
	if v.restart > 0 {
		done = v.feed(t, s, msgs, done, v.restart)
		if err := s.Checkpoint("test"); err != nil {
			t.Fatal(err)
		}
		rec.collect(s)
		s.Close()
		o.Shards = v.onto
		if s = v.stack(t, o); s.RestoredAt.IsZero() {
			t.Fatal("checkpoint on disk was not restored")
		}
	}
	v.feed(t, s, msgs, done, len(msgs))
	rec.collect(s)
	rec.warnings, rec.stats, rec.ingest = s.Monitor.Warnings(), s.Monitor.Stats(), s.Server.Stats()
	rec.stats.Shards = 0
	var ckpt bytes.Buffer
	if err := s.Monitor.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	rec.checkpoint, rec.served = canonical(t, ckpt.Bytes()), servedFingerprints(t, s)
	return rec
}

// stack builds a stack over o and, unless the drive is sync, starts it.
func (v variant) stack(t *testing.T, o Options) *Stack {
	s := newStack(t, o)
	if v.drive != syncDrive {
		s.Start(context.Background())
	}
	return s
}

// feed hands msgs[from:to] to s the variant's way and returns to, with
// every one of them judged.
func (v variant) feed(t *testing.T, s *Stack, msgs []logfmt.Message, from, to int) int {
	t.Helper()
	for i := from; i < to; i += oracleChunk {
		chunk := msgs[i:min(to, i+oracleChunk)]
		switch v.drive {
		case syncDrive:
			for _, m := range chunk {
				s.Monitor.HandleMessage(m)
			}
		case asyncDrive:
			for _, m := range chunk {
				// Stamp the trace as the listener does: every verdict leaves a span.
				id, sampled := s.Tracer.Accept()
				m.Trace = logfmt.TraceCtx{ID: uint64(id), Sampled: sampled, Accept: time.Now()}
				if !s.Monitor.Enqueue(m) {
					t.Fatalf("a shard queue refused %s's message", m.Host)
				}
			}
			settle(t, s)
		case socketDrive:
			sendFrames(t, s.Server.TCPAddr().String(), chunk)
			settle(t, s)
		}
	}
	return to
}

// collect appends the verdicts in s's span ring, oldest first, to each
// host's sequence.
func (r *record) collect(s *Stack) {
	spans := s.Spans.Query(obs.SpanQuery{Kind: obs.KindDecision})
	for i := len(spans) - 1; i >= 0; i-- {
		sp := &spans[i]
		r.verdicts[sp.Host] = append(r.verdicts[sp.Host],
			verdict{sp.Template, math.Float64bits(sp.Score), sp.Anomalous, sp.Warning})
	}
}

// compare fails t where r differs from the reference; the order of the
// warnings and the checkpoint count only under the sync drive.
func (r record) compare(t *testing.T, ref record, drive string) {
	t.Helper()
	for host, want := range ref.verdicts {
		if got := r.verdicts[host]; !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: %d verdicts, the reference %d; from verdict %d:\n got  %+v\n want %+v",
				host, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
		}
	}
	got, want := r.warnings, ref.warnings
	if drive != syncDrive {
		got, want = sortedWarnings(got), sortedWarnings(want)
	}
	switch {
	case len(r.verdicts) != len(ref.verdicts):
		t.Fatalf("verdicts for %d vPEs, the reference %d", len(r.verdicts), len(ref.verdicts))
	case r.stats != ref.stats:
		t.Fatalf("counters differ:\n got  %+v\n want %+v", r.stats, ref.stats)
	case !reflect.DeepEqual(r.served, ref.served):
		t.Fatalf("serves %x, the reference %x", r.served, ref.served)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("warnings differ:\n got  %+v\n want %+v", got, want)
	case drive == syncDrive && !bytes.Equal(r.checkpoint, ref.checkpoint):
		t.Fatalf("checkpoint of %d bytes, the reference's %d: not byte-identical", len(r.checkpoint), len(ref.checkpoint))
	}
}

// sortedWarnings is ws as a multiset: a sorted copy.
func sortedWarnings(ws []detect.Warning) []detect.Warning {
	out := slices.Clone(ws)
	slices.SortFunc(out, func(a, b detect.Warning) int {
		return cmp.Or(strings.Compare(a.VPE, b.VPE), a.Time.Compare(b.Time), a.Size-b.Size)
	})
	return out
}

// canonical is checkpoint ckpt's payload with the generation it carries
// cut out and its fingerprint, lineage and threshold appended: gob writes
// the detectors' maps in no fixed order, so two stacks that serve one
// generation encode it in different bytes.
func canonical(t *testing.T, ckpt []byte) []byte {
	t.Helper()
	saved, err := ingest.LoadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := wireframe.Decode(ckpt, ingest.CheckpointMagic, ingest.CheckpointVersion)
	var wf struct{ Generation []byte }
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wf); err != nil {
		t.Fatal(err)
	}
	out := bytes.Replace(payload, wf.Generation, nil, 1)
	if gen := saved.Generation; gen != nil {
		out = fmt.Appendf(out, "generation %016x lineage %016x threshold %v", gen.Fingerprint(), gen.Lineage, gen.Threshold)
	}
	return out
}

// sendFrames writes msgs to addr as octet-counted RFC 6587 frames on one
// connection, half-closes it and reads to EOF. The listener hands its
// pending frames to the shards before every socket read and when the
// connection ends, and closes the connection only after that: at EOF
// every frame sent has been counted and handed over.
func sendFrames(t testing.TB, addr string, msgs []logfmt.Message) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frames []byte
	for i := range msgs {
		line := msgs[i].Format3164()
		frames = fmt.Appendf(frames, "%d %s", len(line), line)
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("waiting for the listener to end the connection: %v", err)
	}
}

// settle waits until s has judged every message its shards accepted.
func settle(t testing.TB, s *Stack) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Monitor.Settle(ctx); err != nil {
		t.Fatal(err)
	}
}
