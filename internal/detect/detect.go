// Package detect implements the paper's anomaly detectors behind one
// interface: the LSTM next-template likelihood detector (§4.2, the primary
// contribution), and the Autoencoder and one-class-SVM baselines (§5.2).
// All three support the customization/adaptation protocol of §4.3 —
// initial training, monthly incremental updates, and fast transfer-
// learning adaptation after a system update — so the Figure 6 comparison
// is apples-to-apples ("for a fair comparison, we applied the same
// customization and adaptation mechanisms on all three approaches").
//
// Detectors emit per-event anomaly scores; thresholding and the ≥2-within-
// a-minute warning-clustering rule (§5.1) live here too, shared by every
// method.
package detect

import (
	"sort"
	"time"

	"nfvpredict/internal/features"
)

// ScoredEvent is one detector observation: higher Score = more anomalous.
type ScoredEvent struct {
	// Time is the event (message or window) timestamp.
	Time time.Time
	// VPE names the router the event belongs to.
	VPE string
	// Score is the anomaly score on the detector's own scale.
	Score float64
}

// Detector is the common interface of all three methods.
type Detector interface {
	// Name identifies the method ("lstm", "autoencoder", "ocsvm").
	Name() string
	// Train fits the detector from scratch on per-vPE normal streams.
	Train(streams [][]features.Event) error
	// Update performs a monthly incremental (online) update (§4.3).
	Update(streams [][]features.Event) error
	// Adapt performs the fast post-update recovery: copy the teacher,
	// fine-tune the top layers on a short window of fresh data (§4.3).
	Adapt(streams [][]features.Event) error
	// Score returns anomaly scores for one vPE's event stream.
	Score(vpe string, stream []features.Event) []ScoredEvent
}

// Anomaly is a thresholded scored event.
type Anomaly struct {
	Time time.Time
	VPE  string
}

// Threshold filters events with Score > thr into anomalies.
func Threshold(events []ScoredEvent, thr float64) []Anomaly {
	var out []Anomaly
	for _, e := range events {
		if e.Score > thr {
			out = append(out, Anomaly{Time: e.Time, VPE: e.VPE})
		}
	}
	return out
}

// Warning is a reported warning signature: a cluster of ≥MinClusterSize
// anomalies on one vPE within ClusterWindow (§5.1: tickets are preceded by
// at least two anomalies less than a minute apart, so the system "reports
// a warning signature upon detecting a small cluster of two or more
// anomalies").
type Warning struct {
	// VPE names the router.
	VPE string
	// Time is the first anomaly's timestamp in the cluster.
	Time time.Time
	// Size is the number of anomalies merged into this warning.
	Size int
}

// Clustering defaults from §5.1.
const (
	// DefaultClusterWindow is the max gap between anomalies in a cluster.
	DefaultClusterWindow = time.Minute
	// DefaultMinClusterSize is the minimum anomalies per warning.
	DefaultMinClusterSize = 2
)

// ClusterWarnings groups per-vPE anomalies into warning signatures: a new
// cluster starts when the gap to the previous anomaly exceeds window;
// clusters smaller than minSize are dropped.
func ClusterWarnings(anoms []Anomaly, window time.Duration, minSize int) []Warning {
	byVPE := make(map[string][]Anomaly)
	for _, a := range anoms {
		byVPE[a.VPE] = append(byVPE[a.VPE], a)
	}
	var out []Warning
	for vpe, as := range byVPE {
		sort.Slice(as, func(i, j int) bool { return as[i].Time.Before(as[j].Time) })
		start := 0
		for i := 1; i <= len(as); i++ {
			if i == len(as) || as[i].Time.Sub(as[i-1].Time) > window {
				if size := i - start; size >= minSize {
					out = append(out, Warning{VPE: vpe, Time: as[start].Time, Size: size})
				}
				start = i
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].VPE < out[j].VPE
	})
	return out
}

// ScoreQuantile returns the q-quantile (0..1) of the event scores, the
// standard way to place an operating threshold from a validation pass.
func ScoreQuantile(events []ScoredEvent, q float64) float64 {
	if len(events) == 0 {
		return 0
	}
	xs := make([]float64, len(events))
	for i, e := range events {
		xs[i] = e.Score
	}
	sort.Float64s(xs)
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	idx := int(q * float64(len(xs)))
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// ThresholdSweep returns n thresholds spanning the score distribution of
// events, spaced by quantile so every operating region of the PRC is
// covered regardless of the method's score scale.
func ThresholdSweep(events []ScoredEvent, n int) []float64 {
	if n < 2 || len(events) == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	seen := map[float64]bool{}
	for i := 0; i < n; i++ {
		q := 0.5 + 0.5*float64(i)/float64(n-1) // sweep the upper half
		thr := ScoreQuantile(events, q)
		if !seen[thr] {
			out = append(out, thr)
			seen[thr] = true
		}
	}
	sort.Float64s(out)
	return out
}

// gapSeconds returns the inter-arrival gap of stream[i] in seconds, as
// LSTMStream.Push sees it: 60 for the first event, and 0 — not a negative
// gap — for an event stamped before its predecessor.
func gapSeconds(stream []features.Event, i int) float64 {
	if i == 0 {
		return 60
	}
	if gap := stream[i].Time.Sub(stream[i-1].Time).Seconds(); gap > 0 {
		return gap
	}
	return 0
}
