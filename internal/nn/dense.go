package nn

import (
	"math/rand"

	"nfvpredict/internal/mat"
)

// Dense is a fully connected layer y = f(W·x + b).
type Dense struct {
	// In and Out are the input and output widths.
	In, Out int
	// Act is the element-wise activation applied to the affine output.
	Act Activation
	// Wp and Bp are the weight ([Out×In]) and bias ([1×Out]) parameters.
	Wp, Bp *Param
}

// DenseCache holds the per-call state Backward needs plus reusable
// scratch. Keeping it external to the layer makes Dense safe to reuse
// across timesteps of a sequence; reusing one cache across calls makes the
// forward/backward pair allocation-free. A cache is owned by one goroutine
// at a time.
type DenseCache struct {
	x mat.Vector // input
	y mat.Vector // activated output
	// Backward scratch, lazily sized.
	dz, dx mat.Vector
}

// NewDense creates a Dense layer with Xavier-initialized weights.
// name prefixes the parameter names (e.g. "out" → "out.W", "out.b").
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		Act: act,
		Wp:  newParam(name+".W", out, in),
		Bp:  newParam(name+".b", 1, out),
	}
	if act == ReLU {
		d.Wp.W.HeInit(rng)
	} else {
		d.Wp.W.XavierInit(rng)
	}
	return d
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.Wp, d.Bp} }

// ForwardInto is Forward writing into c's reusable buffers: the returned
// output aliases the cache and stays valid until its next ForwardInto.
func (d *Dense) ForwardInto(c *DenseCache, x mat.Vector) mat.Vector {
	c.x = x
	c.y = ensureVec(c.y, d.Out)
	copy(c.y, d.Bp.W.Row(0))
	d.Wp.W.MulVecAdd(c.y, x)
	if d.Act != Identity {
		for i := range c.y {
			c.y[i] = d.Act.Apply(c.y[i])
		}
	}
	return c.y
}

// Infer computes the layer output without building a cache; use it on
// pure-inference paths (anomaly scoring) where no backward pass follows.
func (d *Dense) Infer(x mat.Vector) mat.Vector {
	return d.InferInto(mat.NewVector(d.Out), x)
}

// InferInto is Infer writing into dst (length d.Out), avoiding the
// per-call allocation on streaming-scoring paths.
func (d *Dense) InferInto(dst, x mat.Vector) mat.Vector {
	copy(dst, d.Bp.W.Row(0))
	d.Wp.W.MulVecAdd(dst, x)
	if d.Act != Identity {
		for i := range dst {
			dst[i] = d.Act.Apply(dst[i])
		}
	}
	return dst
}

// Backward consumes dy = ∂loss/∂y, accumulates ∂loss/∂W and ∂loss/∂b into
// the layer's parameter gradients, and returns dx = ∂loss/∂x. The returned
// vector aliases the cache's scratch and stays valid until its next
// Backward.
func (d *Dense) Backward(c *DenseCache, dy mat.Vector) mat.Vector {
	// dz = dy ⊙ f'(y)
	c.dz = ensureVec(c.dz, d.Out)
	dz := c.dz
	if d.Act == Identity {
		copy(dz, dy)
	} else {
		for i := range dy {
			dz[i] = dy[i] * d.Act.DerivFromOutput(c.y[i])
		}
	}
	d.Wp.Grad.AddOuterSeq([]mat.Vector{dz}, []mat.Vector{c.x})
	d.Bp.Grad.Row(0).AddInPlace(dz)
	c.dx = ensureVec(c.dx, d.In)
	c.dx.Zero()
	d.Wp.W.TransMulVecAdd(c.dx, dz)
	return c.dx
}

// clone returns a deep copy of the layer (weights copied, gradients zeroed).
func (d *Dense) clone() *Dense {
	out := &Dense{
		In:  d.In,
		Out: d.Out,
		Act: d.Act,
		Wp:  newParam(d.Wp.Name, d.Wp.W.Rows, d.Wp.W.Cols),
		Bp:  newParam(d.Bp.Name, d.Bp.W.Rows, d.Bp.W.Cols),
	}
	out.Wp.W.CopyFrom(d.Wp.W)
	out.Bp.W.CopyFrom(d.Bp.W)
	out.Wp.Frozen = d.Wp.Frozen
	out.Bp.Frozen = d.Bp.Frozen
	return out
}
