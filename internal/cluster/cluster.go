// Package cluster groups vPEs by the similarity of their syslog template
// distributions, implementing §4.3 of the paper: K-means over normalized
// template histograms, with K chosen by a modularity-style score. vPEs in
// one cluster share an LSTM model trained on their pooled syslog, cutting
// the per-model data-collection latency from ~3 months to ~1 month (§5.2).
//
// It also provides the cosine-similarity analytics behind Figure 3 (each
// vPE's distribution vs the fleet aggregate) and the Cosine that the
// month-over-month drift checks of §3.3 are built on (a drop below ~0.4
// signals a system update that obsoletes trained models): the offline one
// in pipeline, the online one in lifecycle.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nfvpredict/internal/mat"
)

// Histogram is a sparse template-frequency histogram: template ID → count.
type Histogram map[int]float64

// Add increments the count for template id.
func (h Histogram) Add(id int) { h[id]++ }

// Total returns the sum of all counts.
func (h Histogram) Total() float64 {
	var s float64
	for _, v := range h {
		s += v
	}
	return s
}

// Merge adds other's counts into h.
func (h Histogram) Merge(other Histogram) {
	for k, v := range other {
		h[k] += v
	}
}

// Cosine returns the cosine similarity of two histograms.
func Cosine(a, b Histogram) float64 {
	var dot, na, nb float64
	for k, v := range a {
		na += v * v
		if w, ok := b[k]; ok {
			dot += v * w
		}
	}
	for _, w := range b {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Dense converts h to a normalized dense vector over [0, dim) template
// IDs; IDs ≥ dim are folded into the last slot.
func (h Histogram) Dense(dim int) mat.Vector {
	v := mat.NewVector(dim)
	for k, c := range h {
		if k < 0 {
			continue
		}
		if k >= dim {
			k = dim - 1
		}
		v[k] += c
	}
	if t := v.Sum(); t > 0 {
		v.ScaleInPlace(1 / t)
	}
	return v
}

// SimilarityToAggregate computes, for each named histogram, the cosine
// similarity between it and the aggregate of all histograms — the Figure 3
// quantity. Results are keyed by the input keys.
func SimilarityToAggregate(hists map[string]Histogram) map[string]float64 {
	agg := Histogram{}
	for _, h := range hists {
		agg.Merge(h)
	}
	out := make(map[string]float64, len(hists))
	for k, h := range hists {
		out[k] = Cosine(h, agg)
	}
	return out
}

// Quantiles returns the (0, 0.25, 0.5, 0.75, 1) quantiles of xs, the five
// values plotted per vPE in Figure 3.
func Quantiles(xs []float64) [5]float64 {
	var out [5]float64
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	qs := [5]float64{0, 0.25, 0.5, 0.75, 1}
	for i, q := range qs {
		idx := int(q * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}

// Result is a clustering outcome.
type Result struct {
	// K is the number of clusters.
	K int
	// Assign maps each input key to its cluster in [0, K).
	Assign map[string]int
	// Score is the modularity-style quality score used to select K.
	Score float64
}

// Members returns the keys in cluster c, sorted.
func (r *Result) Members(c int) []string {
	var out []string
	for k, ci := range r.Assign {
		if ci == c {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// KMeans clusters the histograms into k groups using cosine-based K-means
// (spherical K-means) with k-means++ seeding. It is deterministic for a
// given seed. It panics if k < 1; if k exceeds the number of points it is
// clamped.
func KMeans(hists map[string]Histogram, k int, dim int, seed int64) *Result {
	if k < 1 {
		panic("cluster: k must be ≥ 1")
	}
	keys := make([]string, 0, len(hists))
	for key := range hists {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if k > len(keys) {
		k = len(keys)
	}
	if k == 0 {
		return &Result{K: 0, Assign: map[string]int{}}
	}
	points := make([]mat.Vector, len(keys))
	for i, key := range keys {
		points[i] = hists[key].Dense(dim)
		normalize(points[i])
	}
	rng := rand.New(rand.NewSource(seed))

	// k-means++ seeding in cosine space (distance = 1 − cosine).
	centers := make([]mat.Vector, 0, k)
	centers = append(centers, points[rng.Intn(len(points))].Clone())
	for len(centers) < k {
		d2 := make([]float64, len(points))
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := 1 - p.Dot(c); d < best {
					best = d
				}
			}
			d2[i] = best * best
			total += d2[i]
		}
		if total == 0 {
			centers = append(centers, points[rng.Intn(len(points))].Clone())
			continue
		}
		u := rng.Float64() * total
		idx := 0
		for acc := 0.0; idx < len(points); idx++ {
			acc += d2[idx]
			if acc >= u {
				break
			}
		}
		if idx >= len(points) {
			idx = len(points) - 1
		}
		centers = append(centers, points[idx].Clone())
	}

	assign := make([]int, len(points))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, p := range points {
			best, bestSim := 0, -2.0
			for ci, c := range centers {
				if sim := p.Dot(c); sim > bestSim {
					best, bestSim = ci, sim
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centers as normalized means.
		for ci := range centers {
			sum := mat.NewVector(dim)
			n := 0
			for i, p := range points {
				if assign[i] == ci {
					sum.AddInPlace(p)
					n++
				}
			}
			if n > 0 {
				normalize(sum)
				centers[ci] = sum
			}
		}
		if !changed {
			break
		}
	}

	res := &Result{K: k, Assign: make(map[string]int, len(keys))}
	for i, key := range keys {
		res.Assign[key] = assign[i]
	}
	res.Score = modularityScore(points, assign, k)
	return res
}

// SelectK runs KMeans for every k in [kMin, kMax] and returns the result
// with the best modularity-style score — the paper's "choose the number
// of groups K based on the modularity" (§4.3), which yielded K=4 for its
// 38-vPE fleet.
func SelectK(hists map[string]Histogram, kMin, kMax, dim int, seed int64) (*Result, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("cluster: invalid K range [%d, %d]", kMin, kMax)
	}
	var best *Result
	for k := kMin; k <= kMax; k++ {
		r := KMeans(hists, k, dim, seed)
		if best == nil || r.Score > best.Score {
			best = r
		}
	}
	return best, nil
}

// modularityScore is Newman modularity on a centered cosine-similarity
// graph: edge weights are w_ij = max(0, cos_ij − mean off-diagonal cos),
// and Q = (1/2m) Σ_ij [w_ij − s_i s_j / 2m] δ(c_i, c_j) over ordered
// pairs (diagonal null-model terms included, w_ii = 0). Centering is the
// usual adaptation of modularity to similarity graphs: syslog histograms
// share so much common chatter that the raw cosine graph is nearly
// complete, where no partition can beat the null model. Putting the whole
// graph in one community scores exactly 0, so real structure must beat
// the null model for K > 1 to win — the property the paper's "choose K
// based on the modularity" rule (§4.3) relies on.
func modularityScore(points []mat.Vector, assign []int, k int) float64 {
	n := len(points)
	if n == 0 || k <= 0 {
		return 0
	}
	raw := func(i, j int) float64 { return points[i].Dot(points[j]) }
	var mean float64
	if n > 1 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += raw(i, j)
			}
		}
		mean = s / float64(n*(n-1)/2)
	}
	sim := func(i, j int) float64 {
		s := raw(i, j) - mean
		if s < 0 {
			return 0
		}
		return s
	}
	strength := make([]float64, n)
	var total float64 // m = total edge weight
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := sim(i, j)
			strength[i] += w
			strength[j] += w
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	m2 := 2 * total
	var q float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if assign[i] != assign[j] {
				continue
			}
			var w float64
			if i != j {
				w = sim(i, j)
			}
			q += w - strength[i]*strength[j]/m2
		}
	}
	return q / m2
}

func normalize(v mat.Vector) {
	n := v.Norm2()
	if n > 0 {
		v.ScaleInPlace(1 / n)
	}
}
