package ingest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"nfvpredict/internal/atomicfile"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
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
// kill-and-restore bit-identity guarantee.
type checkpointWire struct {
	Tree     []byte
	Hosts    []hostWire
	Warnings []detect.Warning
	Messages uint64
	Anoms    uint64
	Evicted  uint64
	Swaps    uint64
}

// Checkpoint snapshots the monitor's full online state — the grown
// signature tree, every host's recurrent scoring stream, in-progress
// anomaly clusters, warning history, and counters — so a restarted monitor
// resumes scoring mid-stream instead of cold. The snapshot is taken with
// every shard mutex held (a consistent cut across shards); encoding
// happens outside the locks.
//
// Hosts are emitted in global least-recently-seen order (each host carries
// a recency stamp, Monitor.seq), so the bytes a single-caller monitor
// checkpoints are identical at any shard count — and identical to the
// historical single-shard format.
func (m *Monitor) Checkpoint(w io.Writer) error {
	start := m.ckptSeconds.Start()
	var spanStart time.Time
	if m.cfg.Tracer != nil {
		spanStart = time.Now()
	}
	var wf checkpointWire
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
		return fmt.Errorf("checkpoint: saving tree: %w", err)
	}
	wf.Tree = tb.Bytes()
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
	wf.Warnings = append([]detect.Warning(nil), m.warnings...)
	m.warnMu.Unlock()
	wf.Messages, wf.Anoms = m.messages.Value(), m.anoms.Value()
	wf.Evicted, wf.Swaps = m.evicted.Value(), m.swaps.Value()
	m.unlockAll()

	sort.Slice(hosts, func(i, j int) bool { return hosts[i].seq < hosts[j].seq })
	// Weights are immutable once served, so the fingerprints are taken
	// outside the locks, once per detector.
	fps := make(fingerprints)
	wf.Hosts = make([]hostWire, len(hosts))
	for i, h := range hosts {
		wf.Hosts[i] = h.hw
		wf.Hosts[i].Detector = fps.of(h.det)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&wf); err != nil {
		return fmt.Errorf("checkpoint: encoding: %w", err)
	}
	if err := wireframe.Encode(w, CheckpointMagic, CheckpointVersion, payload.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	m.ckptSeconds.ObserveDuration(start)
	m.ckptSaves.Inc()
	if m.cfg.Tracer != nil {
		// Checkpoints hold every shard lock; a span makes their cost
		// visible next to the decision latencies they stall. MintID, not
		// Accept: a checkpoint is not an accepted message and must not
		// consume a sampling slot.
		id := m.cfg.Tracer.MintID()
		total := int64(time.Since(spanStart))
		m.cfg.Tracer.Emit(obs.Span{
			TraceID: id,
			Kind:    obs.KindCheckpoint,
			Time:    spanStart,
			Sampled: true,
			TotalNS: total,
			Stages:  obs.StageDurations{CheckpointNS: total},
		})
	}
	return nil
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

// RestoreMonitor rebuilds a monitor from a checkpoint written by
// Checkpoint. The detector resolver and callbacks are not part of the
// snapshot and must be supplied again. A host whose stream was cut under
// other weights than its detector now has (a fingerprint mismatch), or
// under a different architecture, produces a descriptive error: the
// caller should fall back to a cold start, as after a redeploy. A
// checkpoint that recorded no fingerprint for a host restores its stream
// into whatever detector serves it. Hosts whose resolver now returns nil
// are dropped silently, matching what HandleMessage would do with their
// next message.
func RestoreMonitor(r io.Reader, cfg MonitorConfig, resolve func(host string) *detect.LSTMDetector, onWarning func(detect.Warning)) (*Monitor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading: %w", err)
	}
	payload, err := wireframe.Decode(data, CheckpointMagic, CheckpointVersion)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var wf checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wf); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding: %w", err)
	}
	tree, err := sigtree.Load(bytes.NewReader(wf.Tree))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: loading tree: %w", err)
	}
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

// CheckpointFile writes the checkpoint to path atomically (temp file +
// fsync + rename): a crash mid-checkpoint leaves the previous checkpoint
// intact, never a torn file. The checkpoint.write fault point (when a
// fault registry is wired) injects disk-full/torn/slow failures inside
// the atomic-write window — the write fails, the temp file is discarded,
// and the previous checkpoint generation survives untouched.
func (m *Monitor) CheckpointFile(path string) error {
	var fp *faultinject.Point
	if m.cfg.Faults != nil {
		fp = m.cfg.Faults.Point("checkpoint.write",
			"Inside the atomic checkpoint write: disk-full/torn/slow failures that must never cost the previous generation.")
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		return m.Checkpoint(fp.Writer(w))
	})
}

// TreeCopy returns a private copy of the serving tree, encoded under the
// tree lock and decoded outside it: the tree a generation saved beside a
// checkpoint carries, since the live one keeps growing.
func (m *Monitor) TreeCopy() (*sigtree.Tree, error) {
	var buf bytes.Buffer
	m.treeMu.Lock()
	err := m.tree.Save(&buf)
	m.treeMu.Unlock()
	if err != nil {
		return nil, err
	}
	return sigtree.Load(&buf)
}

// RestoreMonitorFile restores a monitor from the checkpoint at path.
func RestoreMonitorFile(path string, cfg MonitorConfig, resolve func(host string) *detect.LSTMDetector, onWarning func(detect.Warning)) (*Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return RestoreMonitor(f, cfg, resolve, onWarning)
}
