package nn

import (
	"math"

	"nfvpredict/internal/mat"
)

// Param is one trainable weight matrix (biases are 1×N matrices) together
// with its gradient accumulator. Optimizers update W from Grad and then
// zero Grad. A frozen Param keeps accumulating gradients but is skipped by
// optimizers — this is the mechanism behind the paper's transfer-learning
// adaptation, which fine-tunes only the top layers of a copied teacher
// model (§4.3). Adam's global-norm clip still reads a frozen Param's
// gradient, so it shrinks the live layers' steps; that is a known bug,
// pinned as it stands by TestAdamClipCountsFrozenGradients.
type Param struct {
	// Name identifies the parameter for serialization and debugging,
	// e.g. "lstm0.Wx" or "out.b".
	Name string
	// W holds the weights.
	W *mat.Matrix
	// Grad accumulates ∂loss/∂W between optimizer steps.
	Grad *mat.Matrix
	// Frozen marks the parameter as excluded from optimizer updates.
	Frozen bool
}

func newParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		W:    mat.NewMatrix(rows, cols),
		Grad: mat.NewMatrix(rows, cols),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// GlobalGradNorm returns the L2 norm of all gradients in params viewed as
// one flat vector, the quantity used for global-norm gradient clipping.
func GlobalGradNorm(params []*Param) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients so their global norm is at most max.
// It returns the pre-clip norm. A non-positive max disables clipping.
func ClipGradNorm(params []*Param, max float64) float64 {
	norm := GlobalGradNorm(params)
	if max <= 0 || norm <= max || norm == 0 {
		return norm
	}
	scale := max / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
	return norm
}
