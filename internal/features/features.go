// Package features engineers the fixed-length feature vectors required by
// the paper's baseline detectors: TF-IDF vectors over template counts in
// sliding time windows for the Autoencoder (Zhang et al. 2016, §5.2) and
// normalized count vectors for the one-class SVM. The LSTM path needs no
// feature engineering — that asymmetry is exactly the point the paper
// makes when the deep sequence model wins (§5.2).
package features

import (
	"math"
	"sort"
	"time"

	"nfvpredict/internal/mat"
)

// Event is a timestamped template observation (one syslog message after
// signature-tree extraction).
type Event struct {
	// Time is the message timestamp.
	Time time.Time
	// Template is the signature-tree template ID.
	Template int
}

// Window is one fixed-duration window's worth of template counts.
type Window struct {
	// Start is the window's first instant; windows cover
	// [Start, Start+Width).
	Start time.Time
	// Counts maps template ID → occurrences inside the window.
	Counts map[int]int
	// N is the total message count.
	N int
}

// Windowize buckets events into consecutive windows of the given width,
// skipping empty windows. Events must be sorted by time.
func Windowize(events []Event, width time.Duration) []Window {
	if width <= 0 {
		panic("features: window width must be positive")
	}
	var out []Window
	var cur *Window
	for _, e := range events {
		start := e.Time.Truncate(width)
		if cur == nil || !cur.Start.Equal(start) {
			out = append(out, Window{Start: start, Counts: make(map[int]int)})
			cur = &out[len(out)-1]
		}
		cur.Counts[e.Template]++
		cur.N++
	}
	return out
}

// Vectorizer converts windows into dense feature vectors. Fit on training
// windows, then Transform anything; the vocabulary and IDF weights are
// frozen at Fit time so that novel post-update templates fold into an
// explicit "unknown" slot rather than silently resizing the model input.
type Vectorizer struct {
	// UseTFIDF applies IDF weighting (the Autoencoder input of §5.2);
	// otherwise vectors are L2-normalized raw counts (OC-SVM input).
	UseTFIDF bool

	index map[int]int // template ID → slot
	idf   []float64   // per-slot IDF weight (1s when UseTFIDF is false)
	dim   int
}

// NewVectorizer returns an unfitted vectorizer.
func NewVectorizer(useTFIDF bool) *Vectorizer {
	return &Vectorizer{UseTFIDF: useTFIDF}
}

// Fit builds the vocabulary (all templates seen in train, in sorted order
// for determinism) plus one trailing unknown slot, and computes smoothed
// IDF weights idf(t) = ln((1+N)/(1+df(t))) + 1.
func (v *Vectorizer) Fit(train []Window) {
	df := map[int]int{}
	for _, w := range train {
		for tid := range w.Counts {
			df[tid]++
		}
	}
	ids := make([]int, 0, len(df))
	for tid := range df {
		ids = append(ids, tid)
	}
	sort.Ints(ids)
	v.index = make(map[int]int, len(ids))
	for slot, tid := range ids {
		v.index[tid] = slot
	}
	v.dim = len(ids) + 1 // trailing unknown slot
	v.idf = make([]float64, v.dim)
	n := float64(len(train))
	for tid, slot := range v.index {
		if v.UseTFIDF {
			v.idf[slot] = math.Log((1+n)/(1+float64(df[tid]))) + 1
		} else {
			v.idf[slot] = 1
		}
	}
	// Unknown templates are maximally surprising under TF-IDF.
	if v.UseTFIDF {
		v.idf[v.dim-1] = math.Log(1+n) + 1
	} else {
		v.idf[v.dim-1] = 1
	}
}

// Dim returns the output dimensionality (0 before Fit).
func (v *Vectorizer) Dim() int { return v.dim }

// Transform converts one window into an L2-normalized feature vector.
// It panics if the vectorizer has not been fitted.
func (v *Vectorizer) Transform(w Window) mat.Vector {
	if v.dim == 0 {
		panic("features: Transform before Fit")
	}
	x := mat.NewVector(v.dim)
	if w.N == 0 {
		return x
	}
	for tid, c := range w.Counts {
		slot, ok := v.index[tid]
		if !ok {
			slot = v.dim - 1
		}
		tf := float64(c) / float64(w.N)
		x[slot] += tf * v.idf[slot]
	}
	if n := x.Norm2(); n > 0 {
		x.ScaleInPlace(1 / n)
	}
	return x
}
