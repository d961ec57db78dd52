// Package svm implements the one-class support vector machine baseline
// the paper compares against (§5.2, citing Wang et al. 2004): a shallow
// model of normal syslog feature vectors with an RBF kernel, trained by a
// simplified SMO solver on the standard one-class dual
//
//	min ½ αᵀQα   s.t.  0 ≤ αᵢ ≤ 1/(νn),  Σαᵢ = 1,
//
// where Q is the kernel Gram matrix. A new window is anomalous when its
// decision value f(x) = Σ αᵢ k(xᵢ, x) − ρ is negative; the anomaly score
// ρ − f grows with distance from the learned support region.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"nfvpredict/internal/mat"
)

// Config parameterizes training.
type Config struct {
	// Nu is the one-class ν parameter: an upper bound on the training
	// outlier fraction and lower bound on the support-vector fraction.
	Nu float64
	// Gamma is the RBF kernel width k(x,y) = exp(−γ‖x−y‖²).
	Gamma float64
	// Iters is the number of SMO pair optimizations.
	Iters int
	// Seed drives pair selection.
	Seed int64
}

// Model is a trained one-class SVM.
type Model struct {
	cfg     Config
	support []mat.Vector // support vectors (αᵢ > 0)
	alpha   []float64    // matching coefficients
	rho     float64
}

// Train fits a one-class SVM on the given (normal) training vectors.
func Train(xs []mat.Vector, cfg Config) (*Model, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("svm: no training data")
	}
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: Nu must be in (0,1], got %v", cfg.Nu)
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("svm: Gamma must be positive, got %v", cfg.Gamma)
	}
	c := 1 / (cfg.Nu * float64(n))

	// Precompute the Gram matrix; baseline training sets are subsampled
	// upstream, so n is small (hundreds).
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			k := rbf(xs[i], xs[j], cfg.Gamma)
			gram[i][j], gram[j][i] = k, k
		}
	}

	// Feasible start: α uniform over the first ⌈1/c⌉ points.
	alpha := make([]float64, n)
	remaining := 1.0
	for i := 0; i < n && remaining > 0; i++ {
		a := math.Min(c, remaining)
		alpha[i] = a
		remaining -= a
	}

	// Cache g_i = (Qα)_i for cheap pair updates.
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * gram[i][j]
			}
		}
		g[i] = s
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	iters := cfg.Iters
	if iters <= 0 {
		iters = 2000
	}
	for it := 0; it < iters; it++ {
		// Working pair: the most violating pair in a random probe set,
		// a cheap stand-in for full WSS heuristics.
		i := pickExtreme(rng, alpha, g, c, n, true)
		j := pickExtreme(rng, alpha, g, c, n, false)
		if i == j || i < 0 || j < 0 {
			continue
		}
		// Minimize over αᵢ + αⱼ = const: δ applied as αᵢ += δ, αⱼ −= δ.
		denom := gram[i][i] + gram[j][j] - 2*gram[i][j]
		if denom <= 1e-12 {
			continue
		}
		delta := (g[j] - g[i]) / denom
		// Box constraints.
		if delta > 0 {
			delta = math.Min(delta, math.Min(c-alpha[i], alpha[j]))
		} else {
			delta = math.Max(delta, math.Max(-alpha[i], alpha[j]-c))
		}
		if delta == 0 {
			continue
		}
		alpha[i] += delta
		alpha[j] -= delta
		for k := 0; k < n; k++ {
			g[k] += delta * (gram[k][i] - gram[k][j])
		}
	}

	// ρ = average decision value over margin support vectors (0<α<C),
	// falling back to all support vectors.
	var rho float64
	var cnt int
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 && alpha[i] < c-1e-8 {
			rho += g[i]
			cnt++
		}
	}
	if cnt == 0 {
		for i := 0; i < n; i++ {
			if alpha[i] > 1e-8 {
				rho += g[i]
				cnt++
			}
		}
	}
	if cnt > 0 {
		rho /= float64(cnt)
	}

	m := &Model{cfg: cfg, rho: rho}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.support = append(m.support, xs[i].Clone())
			m.alpha = append(m.alpha, alpha[i])
		}
	}
	return m, nil
}

// pickExtreme probes a random subset and returns the index whose gradient
// is extreme among those that can still move in the needed direction.
func pickExtreme(rng *rand.Rand, alpha, g []float64, c float64, n int, wantLow bool) int {
	const probes = 24
	best := -1
	var bestG float64
	for p := 0; p < probes; p++ {
		i := rng.Intn(n)
		if wantLow {
			// Candidate to increase α: needs headroom.
			if alpha[i] >= c-1e-12 {
				continue
			}
			if best < 0 || g[i] < bestG {
				best, bestG = i, g[i]
			}
		} else {
			// Candidate to decrease α: needs mass.
			if alpha[i] <= 1e-12 {
				continue
			}
			if best < 0 || g[i] > bestG {
				best, bestG = i, g[i]
			}
		}
	}
	return best
}

// Decision returns f(x) = Σ αᵢ k(xᵢ, x) − ρ; negative means anomalous.
func (m *Model) Decision(x mat.Vector) float64 {
	var s float64
	for i, sv := range m.support {
		s += m.alpha[i] * rbf(sv, x, m.cfg.Gamma)
	}
	return s - m.rho
}

// Score returns the anomaly score ρ − Σ αᵢ k(xᵢ, x): higher is more
// anomalous, and 0 is the natural decision boundary.
func (m *Model) Score(x mat.Vector) float64 { return -m.Decision(x) }

// rbf computes exp(−γ‖a−b‖²).
func rbf(a, b mat.Vector, gamma float64) float64 {
	if len(a) != len(b) {
		panic("svm: dimension mismatch")
	}
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-gamma * d2)
}
