package lifecycle

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"nfvpredict/internal/cluster"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
)

// spoolWire is the spool as a checkpoint carries it (ingest.Cut.Spool).
// Its template IDs mean what they meant in the tree of the same cut.
type spoolWire struct {
	// Clusters holds each cluster's completed windows and live histogram.
	// In-progress (building) windows are not persisted; hosts resume cold.
	Clusters []spoolClusterWire
	// Refs are the drift reference histograms in force at the cut: the
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

// Cut takes the attached monitor's checkpoint cut with the spool riding
// along: every cluster's windows and live histogram and the drift
// references, snapshotted just before the cut. Both happen under m.mu,
// which every generation change holds (promotion, rollback, reload), so
// the spool belongs to the lineage of the cut's tree. It may miss the
// windows completed in between, but holds no template ID the cut's tree
// lacks: IDs only grow within a lineage. m.mu is taken before the
// monitor's shard locks, in the order a promotion takes them.
func (m *Manager) Cut() (*ingest.Cut, error) {
	m.mu.Lock()
	wf := spoolWire{Refs: append([]cluster.Histogram(nil), m.refs...)}
	for _, cs := range m.spools.Load().clusters {
		clean, quar, hist := cs.snapshot(false)
		wf.Clusters = append(wf.Clusters, spoolClusterWire{Windows: clean, Quarantine: quar, Hist: hist})
	}
	c, err := m.mon.Cut()
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wf); err != nil {
		return nil, fmt.Errorf("lifecycle: encoding spool: %w", err)
	}
	c.Spool = buf.Bytes()
	return c, nil
}

// Spool is a spool decoded from a checkpoint (ingest.Saved.Spool), ready
// to Seed a manager.
type Spool struct{ wf spoolWire }

// DecodeSpool decodes the spool a Cut carried.
func DecodeSpool(data []byte) (*Spool, error) {
	sp := &Spool{}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sp.wf); err != nil {
		return nil, fmt.Errorf("lifecycle: decoding spool: %w", err)
	}
	return sp, nil
}

// Seed refills the spool and drift references from sp, restored with the
// checkpoint whose tree the attached monitor now grows. Clusters beyond
// the serving generation's are ignored.
func (m *Manager) Seed(sp *Spool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := m.spools.Load()
	for ci, cw := range sp.wf.Clusters {
		if ci >= len(ss.clusters) {
			break
		}
		ss.clusters[ci].seed(cw.Windows, cw.Quarantine, cw.Hist)
	}
	for ci, ref := range sp.wf.Refs {
		if ci < len(m.refs) && len(ref) > 0 {
			m.refs[ci] = ref
		}
	}
}
