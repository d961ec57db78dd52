// Package bundle packages a trained deployment — the grown signature tree
// plus one trained LSTM detector per cluster and the cluster assignment —
// into a single file, closing the offline→online loop: cmd/nfvtrain
// produces a bundle from a recorded trace and cmd/nfvmonitor serves it
// against live syslog.
//
// The on-disk format is framed for operational safety: a magic header and
// format version, a gob payload, and a CRC32 trailer. A truncated or
// bit-flipped file is rejected with a descriptive error before any of its
// contents are trusted, and Load additionally cross-validates the payload
// (cluster indices in range, sane threshold) so a structurally corrupt
// bundle cannot silently mis-route hosts at serve time. SaveFile writes
// atomically (temp file + fsync + rename), so a crash mid-save never
// leaves a half-written bundle where the monitor expects a good one.
package bundle

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"nfvpredict/internal/atomicfile"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/sigtree"
	"nfvpredict/internal/wireframe"
)

// Format framing constants. Version is bumped whenever the payload layout
// changes incompatibly; Load rejects versions it does not understand.
const (
	// Magic identifies a framed bundle file.
	Magic = "NFVB"
	// Version is the current format version.
	Version uint32 = 2
)

// Bundle is a deployable trained system.
type Bundle struct {
	// Tree is the signature tree grown during training.
	Tree *sigtree.Tree
	// Detectors holds one trained LSTM detector per cluster.
	Detectors []*detect.LSTMDetector
	// Assign maps each vPE hostname to its cluster index. Hosts not in
	// the map (new routers) fall back to cluster 0.
	Assign map[string]int
	// Threshold is the recommended operating threshold (best-F from the
	// training evaluation).
	Threshold float64
	// TrainHist, when present, holds one template-frequency histogram per
	// cluster (template ID → count over that cluster's training data) —
	// the training-time distribution the online lifecycle compares live
	// traffic against for drift detection. Optional: bundles written
	// before this field (or by trainers that skip it) load with a nil
	// slice, and the lifecycle falls back to capturing a live baseline.
	// Gob tolerates the field in both directions, so the format version
	// is unchanged.
	TrainHist []map[int]float64
	// Lineage identifies the trained bundle a generation descends from:
	// the Fingerprint of the bundle a serving process loaded, as it was at
	// load. internal/serve stamps it when it first serves a bundle, and
	// every checkpoint carries it with the serving generation, so a
	// restart can tell whether that generation descends from the bundle it
	// is given. A bundle nfvtrain writes carries 0. Gob tolerates the field
	// both ways, as for TrainHist.
	Lineage uint64
	// Source is the file this generation was read from: the bundle
	// LoadFile read, or the checkpoint a restarted stack serves it from;
	// "" for one trained in process. It is not serialized, so it is not
	// part of Fingerprint, and Clone (every promotion) carries it.
	Source string
}

// Fingerprint identifies the trained model: FNV-1a over the tree's
// fingerprint, every detector's weight fingerprint, the host assignment
// and the training histograms, maps in key order. Retraining that changes
// any of them changes it, even over a byte-identical tree. The threshold
// is left out: it is an operating setting (-threshold applies to any
// model), not part of what the detectors learned.
func (b *Bundle) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	mix(b.Tree.Fingerprint())
	mix(uint64(len(b.Detectors)))
	for _, d := range b.Detectors {
		mix(d.Fingerprint())
	}
	hosts := make([]string, 0, len(b.Assign))
	for host := range b.Assign {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	mix(uint64(len(hosts)))
	for _, host := range hosts {
		for i := 0; i < len(host); i++ {
			h = (h ^ uint64(host[i])) * 1099511628211
		}
		mix(uint64(int64(b.Assign[host])))
	}
	mix(uint64(len(b.TrainHist)))
	for _, hist := range b.TrainHist {
		ids := make([]int, 0, len(hist))
		for id := range hist {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		mix(uint64(len(ids)))
		for _, id := range ids {
			mix(uint64(int64(id)))
			mix(math.Float64bits(hist[id]))
		}
	}
	return h
}

// ClusterOf returns the cluster index that scores host: its assignment,
// or cluster 0 for a host the assignment does not name (a new router) or
// names out of range. It is the one "unmapped → cluster 0" rule; the
// monitor's traces and the lifecycle spool read clusters through it.
func (b *Bundle) ClusterOf(host string) int {
	ci, ok := b.Assign[host]
	if !ok || ci < 0 || ci >= len(b.Detectors) {
		return 0
	}
	return ci
}

// DetectorFor returns the detector responsible for host.
func (b *Bundle) DetectorFor(host string) *detect.LSTMDetector {
	if len(b.Detectors) == 0 {
		return nil
	}
	return b.Detectors[b.ClusterOf(host)]
}

// Resolver returns DetectorFor. It is kept only for bench/, which still
// names it; nothing else calls it.
func (b *Bundle) Resolver() func(host string) *detect.LSTMDetector { return b.DetectorFor }

// Clone returns a copy sharing everything but the Detectors slice: a
// promotion replaces one cluster's detector in the clone without touching
// the generation it was cloned from. Tree, Assign and TrainHist are shared.
func (b *Bundle) Clone() *Bundle {
	out := *b
	out.Detectors = append([]*detect.LSTMDetector(nil), b.Detectors...)
	return &out
}

// Validate cross-checks the bundle's components: the pieces a monitor is
// about to trust must be mutually consistent. It is called by both Save
// (don't ship garbage) and Load (don't serve garbage).
func (b *Bundle) Validate() error {
	if b.Tree == nil {
		return fmt.Errorf("bundle: missing signature tree")
	}
	if len(b.Detectors) == 0 {
		return fmt.Errorf("bundle: no detectors")
	}
	for i, d := range b.Detectors {
		if d == nil {
			return fmt.Errorf("bundle: detector %d is nil", i)
		}
	}
	for host, ci := range b.Assign {
		if ci < 0 || ci >= len(b.Detectors) {
			return fmt.Errorf("bundle: host %q assigned to cluster %d, valid range [0,%d)",
				host, ci, len(b.Detectors))
		}
	}
	if b.Threshold < 0 || math.IsNaN(b.Threshold) {
		return fmt.Errorf("bundle: invalid threshold %v (must be >= 0)", b.Threshold)
	}
	if len(b.TrainHist) != 0 && len(b.TrainHist) != len(b.Detectors) {
		return fmt.Errorf("bundle: %d training histograms for %d detectors (must match or be absent)",
			len(b.TrainHist), len(b.Detectors))
	}
	return nil
}

// wire is the gob form: nested gob blobs keep the component formats
// independent of the bundle layout. A generation a checkpoint carries
// leaves Tree empty: its tree is the checkpoint's.
type wire struct {
	Tree      []byte
	Detectors [][]byte
	Assign    map[string]int
	Threshold float64
	TrainHist []map[int]float64
	Lineage   uint64
}

// Save serializes the bundle to w in the framed format: magic, version,
// payload length, gob payload, CRC32 (IEEE) of the payload.
func (b *Bundle) Save(w io.Writer) error {
	if err := b.Validate(); err != nil {
		return err
	}
	var tree bytes.Buffer
	if err := b.Tree.Save(&tree); err != nil {
		return fmt.Errorf("bundle: saving tree: %w", err)
	}
	payload, err := b.encode(tree.Bytes())
	if err != nil {
		return err
	}
	if err := wireframe.Encode(w, Magic, Version, payload); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	return nil
}

// MarshalGeneration encodes b without its tree: the serving generation
// as a checkpoint carries it beside the tree it cut.
func (b *Bundle) MarshalGeneration() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b.encode(nil)
}

func (b *Bundle) encode(tree []byte) ([]byte, error) {
	wf := wire{Tree: tree, Assign: b.Assign, Threshold: b.Threshold, TrainHist: b.TrainHist, Lineage: b.Lineage}
	for i, d := range b.Detectors {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			return nil, fmt.Errorf("bundle: saving detector %d: %w", i, err)
		}
		wf.Detectors = append(wf.Detectors, buf.Bytes())
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&wf); err != nil {
		return nil, fmt.Errorf("bundle: encoding: %w", err)
	}
	return payload.Bytes(), nil
}

// Load reconstructs and validates a bundle saved with Save. Input with a
// missing or damaged magic, unknown version, short payload, or checksum
// mismatch is rejected with an error naming the failure.
func Load(r io.Reader) (*Bundle, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("bundle: reading: %w", err)
	}
	payload, err := wireframe.Decode(data, Magic, Version)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	return UnmarshalGeneration(payload, nil)
}

// UnmarshalGeneration decodes and validates a generation MarshalGeneration
// encoded, over tree; a nil tree is loaded from the payload, as Save
// wrote it.
func UnmarshalGeneration(data []byte, tree *sigtree.Tree) (*Bundle, error) {
	var wf wire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wf); err != nil {
		return nil, fmt.Errorf("bundle: decoding: %w", err)
	}
	if tree == nil {
		var err error
		if tree, err = sigtree.Load(bytes.NewReader(wf.Tree)); err != nil {
			return nil, fmt.Errorf("bundle: loading tree: %w", err)
		}
	}
	b := &Bundle{Tree: tree, Assign: wf.Assign, Threshold: wf.Threshold, TrainHist: wf.TrainHist, Lineage: wf.Lineage}
	for i, raw := range wf.Detectors {
		d, err := detect.LoadLSTMDetector(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("bundle: loading detector %d: %w", i, err)
		}
		b.Detectors = append(b.Detectors, d)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// SaveFile writes the bundle to path atomically: a crash at any point
// leaves either the previous file or the complete new one.
func (b *Bundle) SaveFile(path string) error {
	return atomicfile.Write(path, b.Save)
}

// LoadFile loads and validates the bundle at path and records path as its
// Source. The bundle.load fault point (process-wide registry) can inject
// load failures to drill the hot-reload rejection path: a failed load must
// leave the serving model untouched and flip readiness, never crash the
// monitor.
func LoadFile(path string) (*Bundle, error) {
	if err := faultinject.Default.Point("bundle.load",
		"Before reading a model bundle: error/slow failures drill the hot-reload rejection path.").Fire(); err != nil {
		return nil, fmt.Errorf("bundle: load %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := Load(f)
	if err != nil {
		return nil, err
	}
	b.Source = path
	return b, nil
}
