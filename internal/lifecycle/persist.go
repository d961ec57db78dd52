package lifecycle

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"nfvpredict/internal/atomicfile"
	"nfvpredict/internal/cluster"
	"nfvpredict/internal/features"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/wireframe"
)

// Spool file framing. The spool records template IDs, which are only
// meaningful against the exact signature-tree lineage that produced them,
// so the file carries the tree fingerprint and Load discards the spool on
// any mismatch — a cold spool is always safe, a misinterpreted one is not.
const (
	// SpoolMagic identifies a framed lifecycle spool file.
	SpoolMagic = "NFVS"
	// SpoolVersion is the current spool format version.
	SpoolVersion uint32 = 1
)

// spoolWire is the gob payload of a spool file.
type spoolWire struct {
	// TreeFP is the serving tree's fingerprint at save time.
	TreeFP uint64
	// Clusters holds each cluster's completed windows and live histogram.
	// In-progress (building) windows are not persisted; hosts resume cold.
	Clusters []spoolClusterWire
	// Refs are the drift reference histograms in force at save: the
	// bundle's TrainHist, a baseline captured live when it shipped none,
	// or the distribution a promotion adapted to. A restored spool's refs
	// replace the bundle's, so a restart judges drift as the process that
	// wrote them did instead of re-firing against a pre-update histogram
	// or re-arming a first-cycle capture.
	Refs []cluster.Histogram
}

type spoolClusterWire struct {
	Windows    [][]features.Event
	Quarantine [][]features.Event
	Hist       cluster.Histogram
}

// SaveSpool persists the spool (and drift references) to path atomically,
// stamped with the attached monitor's current tree fingerprint. Call it
// alongside the monitor checkpoint so the two artifacts agree on lineage.
// A "" path is a no-op.
func (m *Manager) SaveSpool(path string) error {
	if path == "" {
		return nil
	}
	m.mu.Lock()
	mon := m.mon
	refs := append([]cluster.Histogram(nil), m.refs...)
	m.mu.Unlock()
	if mon == nil {
		return fmt.Errorf("lifecycle: no monitor attached; cannot stamp spool lineage")
	}
	wf := spoolWire{TreeFP: mon.TreeFingerprint(), Refs: refs}
	ss := m.spools.Load()
	for _, cs := range ss.clusters {
		clean, quar, hist := cs.snapshot(false)
		wf.Clusters = append(wf.Clusters, spoolClusterWire{Windows: clean, Quarantine: quar, Hist: hist})
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		// The spool.write fault point injects disk-full/torn failures inside
		// the atomic-write window: the temp file is discarded and the
		// previous spool generation survives.
		w = m.fpSpoolW.Writer(w)
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&wf); err != nil {
			return fmt.Errorf("lifecycle: encoding spool: %w", err)
		}
		return wireframe.Encode(w, SpoolMagic, SpoolVersion, payload.Bytes())
	})
}

// LoadSpool restores a spool saved by SaveSpool. A missing file is a clean
// cold start (nil error). A fingerprint mismatch — the tree lineage moved
// since the spool was written — discards the spool and starts cold, also
// nil: stale template IDs must never seed an adaptation. A torn, truncated,
// or bit-flipped spool is quarantined (renamed *.corrupt, preserving the
// evidence) and the manager cold-starts, also nil — corrupt durable state
// must never take the process down. Only I/O errors (including injected
// spool.read faults, which the caller may retry) are returned.
func (m *Manager) LoadSpool(path string) error {
	if path == "" {
		return nil
	}
	if err := m.fpSpoolR.Fire(); err != nil {
		return fmt.Errorf("lifecycle: spool %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	payload, err := wireframe.Decode(data, SpoolMagic, SpoolVersion)
	if err != nil {
		return m.quarantineSpool(path, err)
	}
	var wf spoolWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wf); err != nil {
		return m.quarantineSpool(path, fmt.Errorf("decoding: %w", err))
	}
	m.mu.Lock()
	mon := m.mon
	m.mu.Unlock()
	if mon == nil {
		return fmt.Errorf("lifecycle: no monitor attached; cannot verify spool lineage")
	}
	if fp := mon.TreeFingerprint(); fp != wf.TreeFP {
		m.logf("lifecycle: spool %s discarded: tree fingerprint %x != %x (lineage moved)", path, wf.TreeFP, fp)
		return nil
	}
	ss := m.spools.Load()
	for ci, cw := range wf.Clusters {
		if ci >= len(ss.clusters) {
			break
		}
		ss.clusters[ci].seed(cw.Windows, cw.Quarantine, cw.Hist)
	}
	m.mu.Lock()
	for ci, ref := range wf.Refs {
		if ci < len(m.refs) && len(ref) > 0 {
			m.refs[ci] = ref
		}
	}
	m.mu.Unlock()
	return nil
}

// quarantineSpool sets a corrupt spool aside (path → path.corrupt) so the
// next save starts clean and the evidence survives for inspection, then
// reports a cold start (nil). A failed rename is returned — leaving the
// corrupt file in place would re-fail every restart.
func (m *Manager) quarantineSpool(path string, cause error) error {
	qpath, qerr := resilience.Quarantine(path)
	if qerr != nil {
		return fmt.Errorf("lifecycle: spool %s: %v (and quarantine failed: %w)", path, cause, qerr)
	}
	m.spoolQuarC.Inc()
	m.logf("lifecycle: spool %s corrupt (%v); quarantined to %s, starting cold", path, cause, qpath)
	return nil
}
