package nn

import (
	"math"
	"math/rand"
	"testing"

	"nfvpredict/internal/mat"
)

// The allocating, dense forms of the training kernels. Nothing outside the
// tests calls them any more — training runs on the *Into and one-hot
// forms — but the gradient checks drive the layers through them and the
// dense-vs-sparse equivalence tests use them as the oracle.

// Forward computes the layer output for x and a cache for Backward.
func (d *Dense) Forward(x mat.Vector) (mat.Vector, *DenseCache) {
	c := &DenseCache{}
	return d.ForwardInto(c, x), c
}

// ForwardSeq runs the layer over xs starting from a zero state and returns
// the hidden output at every timestep plus the BPTT tape.
func (l *LSTM) ForwardSeq(xs []mat.Vector) ([]mat.Vector, *LSTMCache) {
	st := l.NewState()
	cache := &LSTMCache{steps: make([]lstmStep, 0, len(xs))}
	hs := make([]mat.Vector, len(xs))
	for t, x := range xs {
		hs[t] = l.Step(x, st, cache)
	}
	return hs, cache
}

// SoftmaxCrossEntropy returns the categorical cross-entropy loss of logits
// against the integer target class, together with ∂loss/∂logits.
func SoftmaxCrossEntropy(logits mat.Vector, target int) (loss float64, dlogits mat.Vector) {
	dlogits = make(mat.Vector, len(logits))
	loss = SoftmaxCrossEntropyInto(dlogits, logits, target)
	return loss, dlogits
}

// ZeroGrads clears every gradient in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// encode converts a token into the model's dense input vector: the
// reference encoding the sparse oneHotOf form is checked against.
func (m *SequenceModel) encode(tok Token) mat.Vector {
	in := m.oneHotOf(tok)
	n := m.cfg.Vocab
	if in.gapCol >= 0 {
		n++
	}
	x := mat.NewVector(n)
	x[in.id] = 1
	if in.gapCol >= 0 {
		x[in.gapCol] = in.gap
	}
	return x
}

// numericGrad perturbs each weight of p and measures the loss change.
func numericGrad(p *Param, loss func() float64) []float64 {
	const eps = 1e-5
	out := make([]float64, len(p.W.Data))
	for i := range p.W.Data {
		orig := p.W.Data[i]
		p.W.Data[i] = orig + eps
		up := loss()
		p.W.Data[i] = orig - eps
		down := loss()
		p.W.Data[i] = orig
		out[i] = (up - down) / (2 * eps)
	}
	return out
}

func maxRelError(analytic, numeric []float64) float64 {
	var worst float64
	for i := range analytic {
		denom := math.Abs(analytic[i]) + math.Abs(numeric[i]) + 1e-8
		rel := math.Abs(analytic[i]-numeric[i]) / denom
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, act := range []Activation{Identity, Sigmoid, Tanh, ReLU} {
		d := NewDense("d", 5, 4, act, rng)
		x := mat.NewVector(5)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		target := 2
		loss := func() float64 {
			y := d.Infer(x)
			l, _ := SoftmaxCrossEntropy(y, target)
			return l
		}
		// Analytic gradients.
		ZeroGrads(d.Params())
		y, cache := d.Forward(x)
		_, dy := SoftmaxCrossEntropy(y, target)
		d.Backward(cache, dy)
		for _, p := range d.Params() {
			numeric := numericGrad(p, loss)
			analytic := make([]float64, len(p.Grad.Data))
			copy(analytic, p.Grad.Data)
			if rel := maxRelError(analytic, numeric); rel > 1e-4 {
				t.Errorf("act=%v param=%s: max rel grad error %v", act, p.Name, rel)
			}
		}
	}
}

func TestDenseInputGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := NewDense("d", 6, 3, Tanh, rng)
	x := mat.NewVector(6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y, cache := d.Forward(x)
	_, dy := SoftmaxCrossEntropy(y, 1)
	dx := d.Backward(cache, dy)

	const eps = 1e-5
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up, _ := SoftmaxCrossEntropy(d.Infer(x), 1)
		x[i] = orig - eps
		down, _ := SoftmaxCrossEntropy(d.Infer(x), 1)
		x[i] = orig
		numeric := (up - down) / (2 * eps)
		denom := math.Abs(dx[i]) + math.Abs(numeric) + 1e-8
		if math.Abs(dx[i]-numeric)/denom > 1e-4 {
			t.Fatalf("input grad %d: analytic %v numeric %v", i, dx[i], numeric)
		}
	}
}

// TestLSTMGradientCheck validates full BPTT against numeric differentiation
// through a 2-layer LSTM + dense stack on a short sequence — the exact
// architecture the paper trains.
func TestLSTMGradientCheck(t *testing.T) {
	cfg := SeqModelConfig{Vocab: 6, Hidden: []int{5, 4}, UseGap: true, Seed: 7}
	m := NewSequenceModel(cfg)
	window := []Token{{ID: 1, Gap: 2}, {ID: 3, Gap: 10}, {ID: 0, Gap: 1}, {ID: 5, Gap: 60}, {ID: 2, Gap: 3}}

	loss := func() float64 {
		return m.SequenceLogLoss(window)
	}
	ZeroGrads(m.Params())
	m.TrainWindow(window)
	for _, p := range m.Params() {
		analytic := make([]float64, len(p.Grad.Data))
		copy(analytic, p.Grad.Data)
		numeric := numericGrad(p, loss)
		if rel := maxRelError(analytic, numeric); rel > 1e-3 {
			t.Errorf("param %s: max rel grad error %v", p.Name, rel)
		}
	}
}

// SequenceLogLoss and TrainWindow must agree on the loss value.
func TestTrainWindowLossMatchesSequenceLogLoss(t *testing.T) {
	cfg := SeqModelConfig{Vocab: 8, Hidden: []int{6}, UseGap: false, Seed: 3}
	m := NewSequenceModel(cfg)
	window := []Token{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}
	want := m.SequenceLogLoss(window)
	got := m.TrainWindow(window)
	ZeroGrads(m.Params())
	if math.Abs(want-got) > 1e-9 {
		t.Fatalf("loss mismatch: TrainWindow=%v SequenceLogLoss=%v", got, want)
	}
}

// denseTrainWindow is a reference BPTT pass that materializes the full
// one-hot input vector for every timestep and feeds it through the dense
// Step kernel, mirroring the seed implementation. The production
// TrainWindow must reproduce its gradients exactly.
func denseTrainWindow(m *SequenceModel, window []Token) float64 {
	T := len(window) - 1
	states := make([]*LSTMState, len(m.lstms))
	caches := make([]*LSTMCache, len(m.lstms))
	for i, l := range m.lstms {
		states[i] = l.NewState()
		caches[i] = &LSTMCache{}
	}
	for t := 0; t < T; t++ {
		h := m.encode(window[t])
		for li, l := range m.lstms {
			h = l.Step(h, states[li], caches[li])
		}
	}
	top := caches[len(m.lstms)-1]
	dhs := make([]mat.Vector, T)
	var total float64
	for t := 0; t < T; t++ {
		logits, c := m.out.Forward(top.steps[t].h)
		loss, dlogits := SoftmaxCrossEntropy(logits, m.targetOf(window[t+1]))
		total += loss
		dlogits.ScaleInPlace(1 / float64(T))
		dhs[t] = m.out.Backward(c, dlogits).Clone()
	}
	grads := dhs
	for li := len(m.lstms) - 1; li >= 0; li-- {
		grads = m.lstms[li].BackwardSeq(caches[li], grads)
	}
	return total / float64(T)
}

// TestSparseMatchesDensePath pins the core perf-path contract: the sparse
// one-hot kernels (ColGatherAdd / Col2GatherAdd / AddOuterOneHot) produce
// bit-identical losses and gradients to the dense one-hot reference, both
// with and without the UseGap input column.
func TestSparseMatchesDensePath(t *testing.T) {
	for _, useGap := range []bool{false, true} {
		cfg := SeqModelConfig{Vocab: 9, Hidden: []int{7, 5}, UseGap: useGap, Seed: 21}
		sparse := NewSequenceModel(cfg)
		dense := NewSequenceModel(cfg) // identical weights via identical seed
		window := []Token{
			{ID: 2, Gap: 0}, {ID: 8, Gap: 5}, {ID: 0, Gap: 300},
			{ID: 4, Gap: 1}, {ID: -3, Gap: 2}, {ID: 42, Gap: 7}, {ID: 1, Gap: 0.5},
		}
		lossSparse := sparse.TrainWindow(window)
		lossDense := denseTrainWindow(dense, window)
		if lossSparse != lossDense {
			t.Fatalf("useGap=%v: loss diverged: sparse=%v dense=%v", useGap, lossSparse, lossDense)
		}
		sp, dp := sparse.Params(), dense.Params()
		for i := range sp {
			for j := range sp[i].Grad.Data {
				if sp[i].Grad.Data[j] != dp[i].Grad.Data[j] {
					t.Fatalf("useGap=%v param %s grad[%d]: sparse=%v dense=%v",
						useGap, sp[i].Name, j, sp[i].Grad.Data[j], dp[i].Grad.Data[j])
				}
			}
		}
	}
}

// TestStreamingMatchesDenseInference pins the same contract for the
// inference path: StepLogits through the sparse kernels must equal feeding
// the materialized one-hot through the dense Step.
func TestStreamingMatchesDenseInference(t *testing.T) {
	cfg := SeqModelConfig{Vocab: 6, Hidden: []int{5, 4}, UseGap: true, Seed: 9}
	m := NewSequenceModel(cfg)
	ref := NewSequenceModel(cfg)
	st := m.NewStreamState()
	refSt := ref.NewStreamState()
	window := []Token{{ID: 1, Gap: 2}, {ID: 3, Gap: 10}, {ID: 0, Gap: 1}, {ID: 5, Gap: 60}}
	for _, tok := range window {
		got := m.StepLogits(tok, st)
		h := ref.encode(tok)
		for li, l := range ref.lstms {
			h = l.Step(h, refSt.layers[li], nil)
		}
		want := ref.out.Infer(h)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tok %+v logit %d: sparse=%v dense=%v", tok, i, got[i], want[i])
			}
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	ae := NewAutoencoder(6, []int{4, 2}, 11)
	rng := rand.New(rand.NewSource(5))
	x := mat.NewVector(6)
	for i := range x {
		x[i] = rng.Float64()
	}
	loss := func() float64 { return ae.ReconstructionError(x) }
	ZeroGrads(ae.Params())
	ae.TrainReconstruction(x)
	for _, p := range ae.Params() {
		analytic := make([]float64, len(p.Grad.Data))
		copy(analytic, p.Grad.Data)
		numeric := numericGrad(p, loss)
		if rel := maxRelError(analytic, numeric); rel > 1e-3 {
			t.Errorf("param %s: max rel grad error %v", p.Name, rel)
		}
	}
}
