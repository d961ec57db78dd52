package nn

import (
	"math"

	"nfvpredict/internal/mat"
)

// Optimizer applies accumulated gradients to parameters. Implementations
// must skip frozen parameters and zero every gradient (frozen or not)
// after the step so the next accumulation starts clean.
type Optimizer interface {
	// Step applies one update from the accumulated gradients.
	Step(params []*Param)
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction and
// global-norm gradient clipping.
type Adam struct {
	// LR is the learning rate (paper-typical default 1e-3).
	LR float64
	// Beta1 and Beta2 are the first/second moment decay rates.
	Beta1, Beta2 float64
	// Eps is the denominator fuzz term.
	Eps float64
	// Clip is the max global gradient norm; ≤0 disables clipping.
	Clip float64

	t int
	m map[*Param]*mat.Matrix
	v map[*Param]*mat.Matrix
}

// NewAdam returns an Adam optimizer with the conventional β₁=0.9,
// β₂=0.999, ε=1e-8 defaults.
func NewAdam(lr, clip float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		Clip:  clip,
		m:     make(map[*Param]*mat.Matrix),
		v:     make(map[*Param]*mat.Matrix),
	}
}

// Step implements Optimizer. The clip's norm is taken over every
// parameter's gradient, frozen ones included (see Param). The element
// update, with the gradient zeroed in the same pass, is mat.AdamStep.
func (a *Adam) Step(params []*Param) {
	ClipGradNorm(params, a.Clip)
	a.t++
	k := mat.AdamCoef{
		Beta1: a.Beta1, Beta2: a.Beta2,
		OneMinusBeta1: 1 - a.Beta1, OneMinusBeta2: 1 - a.Beta2,
		C1: 1 - math.Pow(a.Beta1, float64(a.t)),
		C2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR: a.LR, Eps: a.Eps,
	}
	for _, p := range params {
		if p.Frozen {
			p.ZeroGrad()
			continue
		}
		m := a.m[p]
		if m == nil {
			m = mat.NewMatrix(p.W.Rows, p.W.Cols)
			a.m[p] = m
		}
		v := a.v[p]
		if v == nil {
			v = mat.NewMatrix(p.W.Rows, p.W.Cols)
			a.v[p] = v
		}
		mat.AdamStep(p.W.Data, p.Grad.Data, m.Data, v.Data, k)
	}
}

// Reset clears the optimizer's moment estimates and step counter. Call it
// when re-targeting the optimizer at a different model, e.g. a transfer-
// learning student cloned from a teacher.
func (a *Adam) Reset() {
	a.t = 0
	a.m = make(map[*Param]*mat.Matrix)
	a.v = make(map[*Param]*mat.Matrix)
}
