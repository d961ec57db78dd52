package nn

import (
	"math"
	"math/rand"

	"nfvpredict/internal/mat"
)

// LSTM is a single Long Short-Term Memory layer (Hochreiter & Schmidhuber,
// 1997) with the standard i/f/g/o gate parameterization:
//
//	z = Wx·x_t + Wh·h_{t-1} + b            (z ∈ R^{4H})
//	i = σ(z[0:H])   input gate
//	f = σ(z[H:2H])  forget gate
//	g = tanh(z[2H:3H]) candidate cell
//	o = σ(z[3H:4H]) output gate
//	c_t = f ⊙ c_{t-1} + i ⊙ g
//	h_t = o ⊙ tanh(c_t)
//
// Forget-gate biases are initialized to 1, the usual trick that lets fresh
// models carry state across early training steps.
type LSTM struct {
	// In and Hidden are the input and hidden widths.
	In, Hidden int
	// Wxp is the input projection [4H×In], Whp the recurrent projection
	// [4H×H], and Bp the gate bias [1×4H], ordered i, f, g, o.
	Wxp, Whp, Bp *Param
}

// oneHot is the sparse encoding of a sequence-model input: column id
// carries 1 and, when gapCol >= 0, column gapCol carries the normalized
// time gap. The signature-tree tokenization guarantees model inputs have
// exactly this shape, so threading it through Step and BackwardSeq makes
// the sparse fast path exact: the vocab-sized one-hot vector is never
// materialized and the O(In·4H) input product collapses to O(4H).
type oneHot struct {
	id     int
	gapCol int
	gap    float64
}

// LSTMState is the recurrent state (h, c) carried between timesteps, plus
// the state-owned scratch that makes cache-free (inference) steps
// allocation-free. The zero value is not usable; obtain fresh state from
// NewState. A state is owned by one goroutine at a time.
type LSTMState struct {
	H, C mat.Vector
	// h0 and c0 are the state-owned buffers H and C point at initially and
	// after Reset; z is the gate pre-activation scratch for inference steps.
	h0, c0, z mat.Vector
}

// NewLSTM creates an LSTM layer with Xavier-initialized projections and
// forget biases set to 1. name prefixes parameter names.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wxp:    newParam(name+".Wx", 4*hidden, in),
		Whp:    newParam(name+".Wh", 4*hidden, hidden),
		Bp:     newParam(name+".b", 1, 4*hidden),
	}
	l.Wxp.W.XavierInit(rng)
	l.Whp.W.XavierInit(rng)
	b := l.Bp.W.Row(0)
	for j := hidden; j < 2*hidden; j++ {
		b[j] = 1 // forget-gate bias
	}
	return l
}

// Params returns the layer's trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wxp, l.Whp, l.Bp} }

// NewState returns a zeroed recurrent state for this layer.
func (l *LSTM) NewState() *LSTMState {
	h := mat.NewVector(l.Hidden)
	c := mat.NewVector(l.Hidden)
	return &LSTMState{H: h, C: c, h0: h, c0: c}
}

// Reset rewinds the state to zero without allocating, detaching it from
// any BPTT tape vectors a previous training window bound it to.
func (st *LSTMState) Reset() {
	st.h0.Zero()
	st.c0.Zero()
	st.H, st.C = st.h0, st.c0
}

// lstmStep holds everything the backward pass needs for one timestep.
type lstmStep struct {
	x            mat.Vector // dense input; nil when the step was sparse
	in           oneHot     // sparse input, used when x == nil
	hPrev, cPrev mat.Vector
	gates        mat.Vector // the 4H gate block: pre-activations, then outputs
	i, f, g, o   mat.Vector // the four quarters of gates
	c, tanhC, h  mat.Vector
}

// LSTMCache is the BPTT tape produced by the forward pass. The cache owns
// its step buffers and backward scratch: resetting and replaying it across
// windows makes training allocation-free after the first window. A cache
// is owned by one goroutine at a time.
type LSTMCache struct {
	steps []lstmStep
	// Backward scratch, lazily sized on first BackwardSeq. dzs holds every
	// step's gate gradient (T × 4H) and hps the matching hPrev; xs holds
	// the dense steps' inputs and xdzs their gate gradients. All are in
	// the order the backward pass visits the steps, so each weight
	// gradient is summed by one AddOuterSeq.
	dh, dhNext, dcNext      mat.Vector
	dzs, hps, xs, xdzs, dxs []mat.Vector
}

// reset rewinds the tape for a new sequence, keeping every buffer.
func (c *LSTMCache) reset() { c.steps = c.steps[:0] }

// nextStep appends a (possibly recycled) step with buffers sized for H.
func (c *LSTMCache) nextStep(h int) *lstmStep {
	if len(c.steps) < cap(c.steps) {
		c.steps = c.steps[:len(c.steps)+1]
	} else {
		c.steps = append(c.steps, lstmStep{})
	}
	s := &c.steps[len(c.steps)-1]
	s.gates = ensureVec(s.gates, 4*h)
	s.i, s.f, s.g, s.o = s.gates[:h], s.gates[h:2*h], s.gates[2*h:3*h], s.gates[3*h:]
	s.c = ensureVec(s.c, h)
	s.tanhC = ensureVec(s.tanhC, h)
	s.h = ensureVec(s.h, h)
	return s
}

// ensureVec returns v resliced to length n, reallocating only when the
// capacity is insufficient. The contents are unspecified.
func ensureVec(v mat.Vector, n int) mat.Vector {
	if cap(v) < n {
		return mat.NewVector(n)
	}
	return v[:n]
}

// ensureVecs returns vs resliced to length t, keeping the vectors it
// already holds and growing its backing array only when the capacity is
// insufficient. The entries past the old length are unspecified.
func ensureVecs(vs []mat.Vector, t int) []mat.Vector {
	if cap(vs) < t {
		next := make([]mat.Vector, t)
		copy(next, vs[:cap(vs)])
		return next
	}
	return vs[:t]
}

// Step advances the recurrent state by one dense input and returns the new
// hidden output. When cache is non-nil the step is recorded for BPTT and
// the returned vector aliases the tape; with a nil cache (inference) the
// state is updated in place using state-owned scratch and no allocation
// occurs.
func (l *LSTM) Step(x mat.Vector, st *LSTMState, cache *LSTMCache) mat.Vector {
	return l.step(x, oneHot{gapCol: -1}, st, cache)
}

// StepOneHot is Step for a sparse one-hot (+ optional gap) input: the
// input product Wx·x reduces to a column gather of Wx, removing the
// O(In·4H) term from the timestep. The arithmetic matches the dense path
// bit for bit.
func (l *LSTM) StepOneHot(in oneHot, st *LSTMState, cache *LSTMCache) mat.Vector {
	return l.step(nil, in, st, cache)
}

func (l *LSTM) step(x mat.Vector, in oneHot, st *LSTMState, cache *LSTMCache) mat.Vector {
	H := l.Hidden
	var s *lstmStep
	var z mat.Vector
	if cache == nil {
		st.z = ensureVec(st.z, 4*H)
		z = st.z
	} else {
		s = cache.nextStep(H)
		z = s.gates
	}
	copy(z, l.Bp.W.Row(0))
	switch {
	case x != nil:
		l.Wxp.W.MulVecAdd(z, x)
	case in.gapCol >= 0:
		l.Wxp.W.Col2GatherAdd(z, in.id, 1, in.gapCol, in.gap)
	default:
		l.Wxp.W.ColGatherAdd(z, in.id, 1)
	}
	l.Whp.W.MulVecAdd(z, st.H)
	if cache == nil {
		// Inference: fold the gates straight into the state, in place.
		foldGates(z, st.C, st.C, st.H, st.H)
		return st.H
	}
	s.x, s.in = x, in
	s.hPrev, s.cPrev = st.H, st.C
	foldGates(z, s.cPrev, s.c, s.tanhC, s.h)
	st.H, st.C = s.h, s.c
	return s.h
}

// foldGates is the one definition of the LSTM cell's nonlinear half, under
// inference and the BPTT tape alike. It overwrites the
// gate pre-activations z = [i f g o] (4H) with the gate outputs σ(i),
// σ(f), tanh(g), σ(o), and advances the cell:
//
//	c = σ(f)⊙cPrev + σ(i)⊙tanh(g),  tanhC = tanh(c),  h = σ(o)⊙tanhC
//
// c may be cPrev and tanhC may be h, which is how the inference step
// updates its state in place with no scratch beyond z.
//
// Every exponential comes from mat.ExpNeg, one call over the whole gate
// block and one over c: with t = e^(−|z|), σ(z) is 1/(1+t) for z ≥ 0 and
// t/(1+t) below, and with t = e^(−2|z|), tanh(z) is ±(1−t)/(1+t). ExpNeg
// carries z's sign bit on t, which is where the second halves of those
// read it, so no copy of z is kept. Against math.Exp and math.Tanh the
// gate outputs, c and h move by at most 2e-15 (TestFoldGatesWithinContract).
func foldGates(z, cPrev, c, tanhC, h mat.Vector) {
	H := len(h)
	zi, zf, zg, zo := z[:H], z[H:2*H], z[2*H:3*H], z[3*H:4*H]
	cPrev, c, tanhC = cPrev[:H], c[:H], tanhC[:H]
	for j, v := range zg {
		zg[j] = v + v
	}
	mat.ExpNeg(z, z)
	for j := range h {
		i, f, g, o := sigmoidOf(zi[j]), sigmoidOf(zf[j]), tanhOf(zg[j]), sigmoidOf(zo[j])
		zi[j], zf[j], zg[j], zo[j] = i, f, g, o
		cj := f*cPrev[j] + i*g
		c[j] = cj
		tanhC[j] = cj + cj
	}
	mat.ExpNeg(tanhC, tanhC)
	for j, t := range tanhC {
		t = tanhOf(t)
		tanhC[j] = t
		h[j] = zo[j] * t
	}
}

const (
	signBit = 1 << 63
	oneBits = 0x3ff0000000000000 // math.Float64bits(1)
)

// sigmoidOf finishes σ(z) from t = e^(−|z|) carrying z's sign bit: 1/(1+t)
// for z ≥ 0 and t/(1+t) for z < 0. The numerator is picked by the sign bit
// without a branch — gate signs are as good as random.
func sigmoidOf(t float64) float64 {
	bits := math.Float64bits(t)
	abs := bits &^ signBit
	neg := uint64(int64(bits) >> 63)   // all ones when z < 0
	num := oneBits ^ (oneBits^abs)&neg // z < 0 ? t : 1
	return math.Float64frombits(num) / (1 + math.Float64frombits(abs))
}

// tanhOf finishes tanh(z) from t = e^(−2|z|) carrying z's sign bit:
// (1−t)/(1+t), with z's sign.
func tanhOf(t float64) float64 {
	bits := math.Float64bits(t)
	t = math.Float64frombits(bits &^ signBit)
	return math.Float64frombits(math.Float64bits((1-t)/(1+t)) | bits&signBit)
}

// BackwardSeq consumes dhs[t] = ∂loss/∂h_t for every timestep, accumulates
// the parameter gradients, and returns dxs[t] = ∂loss/∂x_t. dhs must have
// the same length as the forward sequence. The returned vectors alias the
// cache's scratch and stay valid until its next BackwardSeq; entries for
// sparse (one-hot) steps are nil — nothing consumes input gradients below
// the input layer, and skipping them removes the second O(In·4H) term.
//
// The recurrence (dh, dc, dhNext), the bias and the one-hot input columns
// are done step by step, t = T−1 down to 0. The dense weight gradients,
// Σₜ dzₜ ⊗ hPrevₜ into Wh and Σₜ dzₜ ⊗ xₜ into Wx over the dense steps,
// nothing reads before the optimizer, so each is one AddOuterSeq after the
// recurrence with its terms in that same descending order: every element
// gets the adds the per-step updates gave it, in the same order. (Wx's
// one-hot columns stay per step, so that holds for Wx when a sequence's
// steps are all dense or all sparse, as every caller builds them.)
//
// A frozen layer's gradients are computed all the same, and must be:
// Adam.Step's global-norm clip reads every parameter's gradient, frozen or
// not (TestAdamClipCountsFrozenGradients), so skipping them here would
// change the live layers' steps.
func (l *LSTM) BackwardSeq(cache *LSTMCache, dhs []mat.Vector) []mat.Vector {
	H := l.Hidden
	T := len(cache.steps)
	if len(dhs) != T {
		panic("nn: BackwardSeq gradient count mismatch")
	}
	cache.dxs = ensureVecs(cache.dxs, T)
	cache.dzs = ensureVecs(cache.dzs, T)
	cache.hps = ensureVecs(cache.hps, T)
	cache.xs, cache.xdzs = cache.xs[:0], cache.xdzs[:0]
	dxs := cache.dxs
	cache.dh = ensureVec(cache.dh, H)
	cache.dhNext = ensureVec(cache.dhNext, H)
	cache.dcNext = ensureVec(cache.dcNext, H)
	dh, dhNext, dcNext := cache.dh, cache.dhNext, cache.dcNext
	dhNext.Zero() // gradient flowing from t+1 into h_t
	dcNext.Zero() // gradient flowing from t+1 into c_t
	for k, t := 0, T-1; t >= 0; k, t = k+1, t-1 {
		s := &cache.steps[t]
		cache.dzs[k] = ensureVec(cache.dzs[k], 4*H)
		dz := cache.dzs[k]
		cache.hps[k] = s.hPrev
		for j := 0; j < H; j++ {
			dh[j] = dhs[t][j] + dhNext[j]
		}
		for j := 0; j < H; j++ {
			// h = o ⊙ tanh(c)
			do := dh[j] * s.tanhC[j]
			dc := dh[j]*s.o[j]*(1-s.tanhC[j]*s.tanhC[j]) + dcNext[j]
			di := dc * s.g[j]
			df := dc * s.cPrev[j]
			dg := dc * s.i[j]
			dcNext[j] = dc * s.f[j] // safe in place: index j is done with
			// Gate pre-activation gradients.
			dz[j] = di * s.i[j] * (1 - s.i[j])
			dz[H+j] = df * s.f[j] * (1 - s.f[j])
			dz[2*H+j] = dg * (1 - s.g[j]*s.g[j])
			dz[3*H+j] = do * s.o[j] * (1 - s.o[j])
		}
		if s.x != nil {
			cache.xs = append(cache.xs, s.x)
			cache.xdzs = append(cache.xdzs, dz)
			dx := ensureVec(dxs[t], l.In)
			dx.Zero()
			l.Wxp.W.TransMulVecAdd(dx, dz)
			dxs[t] = dx
		} else {
			// Sparse one-hot input: the weight-gradient outer product
			// touches only the id (and gap) columns, and the input
			// gradient is never consumed.
			l.Wxp.Grad.AddOuterOneHot(1, dz, s.in.id)
			if s.in.gapCol >= 0 && s.in.gap != 0 {
				l.Wxp.Grad.AddOuterOneHot(s.in.gap, dz, s.in.gapCol)
			}
			dxs[t] = nil
		}
		l.Bp.Grad.Row(0).AddInPlace(dz)

		dhNext.Zero()
		l.Whp.W.TransMulVecAdd(dhNext, dz)
	}
	l.Whp.Grad.AddOuterSeq(cache.dzs, cache.hps)
	l.Wxp.Grad.AddOuterSeq(cache.xdzs, cache.xs)
	return dxs
}

// clone returns a deep copy of the layer (weights copied, gradients zeroed).
func (l *LSTM) clone() *LSTM {
	out := &LSTM{
		In:     l.In,
		Hidden: l.Hidden,
		Wxp:    newParam(l.Wxp.Name, l.Wxp.W.Rows, l.Wxp.W.Cols),
		Whp:    newParam(l.Whp.Name, l.Whp.W.Rows, l.Whp.W.Cols),
		Bp:     newParam(l.Bp.Name, l.Bp.W.Rows, l.Bp.W.Cols),
	}
	out.Wxp.W.CopyFrom(l.Wxp.W)
	out.Whp.W.CopyFrom(l.Whp.W)
	out.Bp.W.CopyFrom(l.Bp.W)
	out.Wxp.Frozen = l.Wxp.Frozen
	out.Whp.Frozen = l.Whp.Frozen
	out.Bp.Frozen = l.Bp.Frozen
	return out
}
