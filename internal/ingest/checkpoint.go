package ingest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"nfvpredict/internal/atomicfile"
	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/sigtree"
	"nfvpredict/internal/wireframe"
)

// Checkpoint framing constants (see internal/wireframe for the layout).
const (
	// CheckpointMagic identifies a monitor checkpoint file.
	CheckpointMagic = "NFVC"
	// CheckpointVersion is the current checkpoint format version.
	CheckpointVersion uint32 = 1
)

// hostWire is one host's checkpointed state: the LSTM stream snapshot, the
// fingerprint of the detector the stream ran under, and the in-progress
// anomaly cluster. Detector is 0 in checkpoints written before it was
// recorded (gob leaves an absent field zero); such a stream restores
// unchecked into whatever detector now serves its host.
type hostWire struct {
	Host        string
	Stream      detect.StreamSnapshot
	Detector    uint64
	HasCluster  bool
	First, Last time.Time
	Size        int
	Reported    bool
}

// checkpointWire is the gob payload of a checkpoint. Hosts are stored in
// LRU order, least recently seen first, so a restored monitor evicts in
// exactly the order the original would have — a requirement for the
// kill-and-restore bit-identity guarantee. Generation (the served one,
// over Tree) and Spool (Cut.Spool) are empty in checkpoints written before
// they rode along; gob leaves absent fields zero, so the version stays 1.
type checkpointWire struct {
	Tree       []byte
	Hosts      []hostWire
	Warnings   []detect.Warning
	Messages   uint64
	Anoms      uint64
	Evicted    uint64
	Swaps      uint64
	Generation []byte
	Spool      []byte
}

// A Cut is one consistent snapshot of the monitor's online state — the
// grown signature tree, every host's recurrent scoring stream, in-progress
// anomaly clusters, warning history, counters — and the generation it
// served, so a restarted monitor resumes mid-stream instead of cold.
type Cut struct {
	// Spool rides along, opaque to the monitor: the lifecycle's spool and
	// drift references, snapshotted just before the cut.
	Spool []byte

	m     *Monitor
	start time.Time
	cutNS int64
	wf    checkpointWire
}

// Cut takes the snapshot with every shard mutex held, as SwapModel
// installs a generation, so the streams and the generation agree. Hosts
// are emitted in global least-recently-seen order (each host carries a
// recency stamp, Monitor.seq), so the bytes a single-caller monitor
// checkpoints are identical at any shard count.
func (m *Monitor) Cut() (*Cut, error) {
	c := &Cut{m: m, start: time.Now()}
	type stamped struct {
		hw  hostWire
		seq uint64
		det *detect.LSTMDetector
	}
	m.lockAll()
	m.treeMu.Lock()
	var tb bytes.Buffer
	err := m.tree.Save(&tb)
	m.treeMu.Unlock()
	if err != nil {
		m.unlockAll()
		return nil, fmt.Errorf("checkpoint: saving tree: %w", err)
	}
	c.wf.Tree = tb.Bytes()
	gen := m.gen
	var hosts []stamped
	for _, sh := range m.shards {
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			hs := el.Value.(*hostState)
			hw := hostWire{Host: hs.host, Stream: hs.stream.Snapshot()}
			if cs := hs.cluster; cs != nil {
				hw.HasCluster = true
				hw.First, hw.Last = cs.first, cs.last
				hw.Size, hw.Reported = cs.size, cs.reported
			}
			hosts = append(hosts, stamped{hw, hs.seq, hs.det})
		}
	}
	m.warnMu.Lock()
	c.wf.Warnings = append([]detect.Warning(nil), m.warnings...)
	m.warnMu.Unlock()
	c.wf.Messages, c.wf.Anoms = m.messages.Value(), m.anoms.Value()
	c.wf.Evicted, c.wf.Swaps = m.evicted.Value(), m.swaps.Value()
	m.unlockAll()

	sort.Slice(hosts, func(i, j int) bool { return hosts[i].seq < hosts[j].seq })
	// Weights are immutable once served, so the fingerprints (once per
	// detector) and the generation are taken outside the locks.
	fps := make(fingerprints)
	for _, h := range hosts {
		h.hw.Detector = fps.of(h.det)
		c.wf.Hosts = append(c.wf.Hosts, h.hw)
	}
	if gen != nil {
		if c.wf.Generation, err = m.marshalGeneration(gen); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	c.cutNS = int64(time.Since(c.start))
	return c, nil
}

// Checkpoint cuts the monitor and writes the cut to w.
func (m *Monitor) Checkpoint(w io.Writer) error {
	c, err := m.Cut()
	if err != nil {
		return err
	}
	return c.Encode(w)
}

// Encode writes the cut to w as a framed checkpoint; a retry writes the
// same state again.
func (c *Cut) Encode(w io.Writer) error {
	start, m, wf := time.Now(), c.m, c.wf
	wf.Spool = c.Spool
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&wf); err != nil {
		return fmt.Errorf("checkpoint: encoding: %w", err)
	}
	if err := wireframe.Encode(w, CheckpointMagic, CheckpointVersion, payload.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	total := c.cutNS + int64(time.Since(start))
	m.ckptSeconds.Observe(time.Duration(total).Seconds())
	m.ckptSaves.Inc()
	if m.cfg.Tracer != nil {
		// Checkpoints hold every shard lock; a span makes their cost
		// visible next to the decision latencies they stall. MintID, not
		// Accept: a checkpoint is not an accepted message and must not
		// consume a sampling slot.
		m.cfg.Tracer.Emit(obs.Span{
			TraceID: m.cfg.Tracer.MintID(),
			Kind:    obs.KindCheckpoint,
			Time:    c.start,
			Sampled: true,
			TotalNS: total,
			Stages:  obs.StageDurations{CheckpointNS: total},
		})
	}
	return nil
}

// WriteFile writes the cut to path atomically (temp file + fsync +
// rename): a crash or a failed write leaves the previous checkpoint
// intact. The checkpoint.write fault point injects disk-full/torn/slow
// failures inside that window.
func (c *Cut) WriteFile(path string) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		return c.Encode(c.m.fpCkpt.Writer(w))
	})
}

// genWire is the encoding of a served generation, which is immutable:
// each is encoded once, or taken as read from the checkpoint it was
// restored from. gob writes maps in no fixed order, so a restarted monitor
// checkpoints the very bytes the one it resumes did.
type genWire struct {
	gen  *bundle.Bundle
	data []byte
}

func (m *Monitor) marshalGeneration(gen *bundle.Bundle) ([]byte, error) {
	if w := m.genWire.Load(); w != nil && w.gen == gen {
		return w.data, nil
	}
	data, err := gen.MarshalGeneration()
	if err == nil {
		m.genWire.Store(&genWire{gen, data})
	}
	return data, err
}

// fingerprints caches detector weight fingerprints for one checkpoint or
// restore: a fleet shares a few detectors, each hashed once.
type fingerprints map[*detect.LSTMDetector]uint64

func (f fingerprints) of(d *detect.LSTMDetector) uint64 {
	fp, ok := f[d]
	if !ok {
		fp = d.Fingerprint()
		f[d] = fp
	}
	return fp
}

// Saved is a decoded checkpoint: one cut's monitor state, the generation
// served at the cut (over Tree; nil when the checkpoint carries none) and
// the Spool that rode along.
type Saved struct {
	Tree       *sigtree.Tree
	Generation *bundle.Bundle
	Spool      []byte
	wf         checkpointWire
}

// LoadCheckpoint decodes a checkpoint.
func LoadCheckpoint(r io.Reader) (*Saved, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading: %w", err)
	}
	payload, err := wireframe.Decode(data, CheckpointMagic, CheckpointVersion)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Saved{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s.wf); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding: %w", err)
	}
	if s.Tree, err = sigtree.Load(bytes.NewReader(s.wf.Tree)); err != nil {
		return nil, fmt.Errorf("checkpoint: loading tree: %w", err)
	}
	if len(s.wf.Generation) > 0 {
		if s.Generation, err = bundle.UnmarshalGeneration(s.wf.Generation, s.Tree); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	s.Spool = s.wf.Spool
	return s, nil
}

// Restore resumes a monitor serving gen, whose Tree must be s.Tree. The
// callbacks are not part of the snapshot and must be supplied again. A
// host whose stream was cut under other weights than gen now gives it (a
// fingerprint mismatch), or under a different architecture, produces a
// descriptive error: the caller should fall back to a cold start, as
// after a redeploy. A host the checkpoint recorded no fingerprint for
// restores its stream into whatever detector serves it. Hosts gen
// resolves to no detector are dropped silently, matching what
// HandleMessage would do with their next message.
func (s *Saved) Restore(cfg MonitorConfig, gen *bundle.Bundle, onWarning func(detect.Warning)) (*Monitor, error) {
	m, err := s.restore(cfg, gen.Tree, gen.DetectorFor, onWarning)
	if err != nil {
		return nil, err
	}
	m.gen = gen
	if gen == s.Generation {
		m.genWire.Store(&genWire{gen, s.wf.Generation})
	}
	return m, nil
}

// RestoreMonitor rebuilds a monitor from a checkpoint as Saved.Restore
// does, under a detector resolver; the generation and spool the
// checkpoint carries are not used.
func RestoreMonitor(r io.Reader, cfg MonitorConfig, resolve func(host string) *detect.LSTMDetector, onWarning func(detect.Warning)) (*Monitor, error) {
	s, err := LoadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return s.restore(cfg, s.Tree, resolve, onWarning)
}

func (s *Saved) restore(cfg MonitorConfig, tree *sigtree.Tree, resolve func(host string) *detect.LSTMDetector, onWarning func(detect.Warning)) (*Monitor, error) {
	wf := &s.wf
	m := NewMonitorWithResolver(cfg, tree, resolve, onWarning)
	fps := make(fingerprints)
	// Hosts arrive least recent first; PushFront in order (with fresh
	// ascending seq stamps) rebuilds each shard's LRU and the global
	// recency order. The host hash is stable, so a checkpoint written at
	// one shard count restores onto any other.
	for _, hw := range wf.Hosts {
		det := resolve(hw.Host)
		if det == nil {
			continue
		}
		if fp := fps.of(det); hw.Detector != 0 && hw.Detector != fp {
			return nil, fmt.Errorf("checkpoint: host %q: stream was cut under detector %016x, %016x serves it now",
				hw.Host, hw.Detector, fp)
		}
		st, err := det.RestoreStream(hw.Stream)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: host %q: %w", hw.Host, err)
		}
		hs := &hostState{host: hw.Host, det: det, stream: st, seq: m.seq.Add(1)}
		if m.cfg.Tracer != nil {
			hs.recent = new([DefaultTraceWindow]obs.TraceStep)
		}
		if hw.HasCluster {
			hs.cluster = &clusterState{first: hw.First, last: hw.Last, size: hw.Size, reported: hw.Reported}
		}
		sh := m.shards[m.shardFor(hw.Host)]
		sh.hosts[hw.Host] = sh.lru.PushFront(hs)
		m.hostCount.Add(1)
	}
	m.warnings = wf.Warnings
	m.messages.Store(wf.Messages)
	m.anoms.Store(wf.Anoms)
	m.warningsC.Store(uint64(len(wf.Warnings)))
	m.evicted.Store(wf.Evicted)
	m.swaps.Store(wf.Swaps)
	m.activeHosts.SetInt(int(m.hostCount.Load()))
	return m, nil
}
