package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nfvpredict/internal/mat"
)

func TestActivationValues(t *testing.T) {
	if Sigmoid.Apply(0) != 0.5 {
		t.Fatalf("sigmoid(0)=%v", Sigmoid.Apply(0))
	}
	if Tanh.Apply(0) != 0 || ReLU.Apply(-3) != 0 || ReLU.Apply(3) != 3 || Identity.Apply(7) != 7 {
		t.Fatal("activation basics broken")
	}
	// Overflow safety.
	if v := Sigmoid.Apply(-1e9); v != 0 || math.IsNaN(v) {
		t.Fatalf("sigmoid(-1e9)=%v", v)
	}
	if v := Sigmoid.Apply(1e9); v != 1 || math.IsNaN(v) {
		t.Fatalf("sigmoid(1e9)=%v", v)
	}
}

func TestActivationDerivFromOutput(t *testing.T) {
	// f'(x) from y must match numeric derivative.
	for _, act := range []Activation{Sigmoid, Tanh, ReLU, Identity} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			y := act.Apply(x)
			const eps = 1e-6
			numeric := (act.Apply(x+eps) - act.Apply(x-eps)) / (2 * eps)
			if math.Abs(act.DerivFromOutput(y)-numeric) > 1e-5 {
				t.Errorf("%v deriv at %v: got %v numeric %v", act, x, act.DerivFromOutput(y), numeric)
			}
		}
	}
}

func TestActivationString(t *testing.T) {
	names := map[Activation]string{Identity: "identity", Sigmoid: "sigmoid", Tanh: "tanh", ReLU: "relu", Activation(99): "unknown"}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("String(%d)=%q want %q", a, a.String(), want)
		}
	}
}

func TestSoftmaxCrossEntropyGradientSums(t *testing.T) {
	// The softmax-CE gradient p - onehot must sum to zero.
	f := func(raw []float64, target uint8) bool {
		if len(raw) < 2 || len(raw) > 32 {
			return true
		}
		v := make(mat.Vector, len(raw))
		for i, x := range raw {
			v[i] = math.Mod(x, 30)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
		tgt := int(target) % len(v)
		loss, grad := SoftmaxCrossEntropy(v, tgt)
		if loss < 0 || math.IsNaN(loss) {
			return false
		}
		return math.Abs(grad.Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Logits −0 and +0 are equal: the loss is ln 2 either way round and the
// gradient p − onehot is ±½. (A −0 maximum once made p = [+Inf, −Inf].)
func TestSoftmaxCrossEntropySignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, logits := range []mat.Vector{{negZero, 0}, {0, negZero}} {
		for target := range logits {
			grad := make(mat.Vector, 2)
			loss := SoftmaxCrossEntropyInto(grad, logits, target)
			if math.Abs(loss-math.Ln2) > 1e-12 {
				t.Fatalf("logits %v target %d: loss %v, want ln 2", logits, target, loss)
			}
			for i, g := range grad {
				want := 0.5
				if i == target {
					want = -0.5
				}
				if math.Abs(g-want) > 1e-12 {
					t.Fatalf("logits %v target %d: gradient %v", logits, target, grad)
				}
			}
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over n classes: loss = ln(n).
	v := mat.Vector{0, 0, 0, 0}
	loss, _ := SoftmaxCrossEntropy(v, 2)
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss=%v want ln4", loss)
	}
}

func TestMSEKnown(t *testing.T) {
	loss, dy := MSE(mat.Vector{1, 2}, mat.Vector{0, 0})
	// ½·mean(1,4) = 1.25
	if math.Abs(loss-1.25) > 1e-12 {
		t.Fatalf("MSE=%v", loss)
	}
	if dy[0] != 0.5 || dy[1] != 1 {
		t.Fatalf("dMSE=%v", dy)
	}
}

func TestLogSoftmaxNormalized(t *testing.T) {
	lp := LogSoftmaxInto(make(mat.Vector, 3), mat.Vector{1, 2, 3})
	var sum float64
	for _, x := range lp {
		sum += math.Exp(x)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("exp(logsoftmax) sums to %v", sum)
	}
}

func TestGradClipping(t *testing.T) {
	p := newParam("p", 1, 3)
	p.Grad.Data[0], p.Grad.Data[1], p.Grad.Data[2] = 3, 0, 4 // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if math.Abs(GlobalGradNorm([]*Param{p})-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", GlobalGradNorm([]*Param{p}))
	}
	// Clipping disabled.
	p.Grad.Data[0] = 3
	p.Grad.Data[2] = 4
	ClipGradNorm([]*Param{p}, 0)
	if math.Abs(GlobalGradNorm([]*Param{p})-5) > 1e-9 {
		t.Fatal("clip=0 must not rescale")
	}
}

// A 1-D quadratic: optimizers must descend.
func TestOptimizersDescend(t *testing.T) {
	for name, mk := range map[string]func() Optimizer{
		"adam": func() Optimizer { return NewAdam(0.1, 0) },
	} {
		p := newParam("x", 1, 1)
		p.W.Data[0] = 5
		opt := mk()
		for i := 0; i < 200; i++ {
			p.Grad.Data[0] = 2 * p.W.Data[0] // d/dx x²
			opt.Step([]*Param{p})
		}
		if math.Abs(p.W.Data[0]) > 0.05 {
			t.Errorf("%s failed to minimize x²: x=%v", name, p.W.Data[0])
		}
	}
}

func TestOptimizerSkipsFrozen(t *testing.T) {
	for name, opt := range map[string]Optimizer{
		"adam": NewAdam(0.5, 0),
	} {
		p := newParam("x", 1, 1)
		p.W.Data[0] = 1
		p.Frozen = true
		p.Grad.Data[0] = 10
		opt.Step([]*Param{p})
		if p.W.Data[0] != 1 {
			t.Errorf("%s updated a frozen param", name)
		}
		if p.Grad.Data[0] != 0 {
			t.Errorf("%s left a frozen param's gradient dirty", name)
		}
	}
}

func TestAdamReset(t *testing.T) {
	a := NewAdam(0.1, 0)
	p := newParam("x", 1, 1)
	p.Grad.Data[0] = 1
	a.Step([]*Param{p})
	if a.t != 1 || len(a.m) != 1 {
		t.Fatal("Adam state not recorded")
	}
	a.Reset()
	if a.t != 0 || len(a.m) != 0 || len(a.v) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// The headline capability: an LSTM language model must learn a repeating
// template sequence and then assign low probability to a corrupted one.
func TestSequenceModelLearnsCycle(t *testing.T) {
	cfg := SeqModelConfig{Vocab: 5, Hidden: []int{16, 16}, UseGap: false, Seed: 1}
	m := NewSequenceModel(cfg)
	opt := NewAdam(0.01, 5)
	// Cycle 0 1 2 3 0 1 2 3 ...
	seq := make([]Token, 41)
	for i := range seq {
		seq[i] = Token{ID: i % 4}
	}
	var loss float64
	for epoch := 0; epoch < 150; epoch++ {
		loss = m.TrainWindow(seq)
		opt.Step(m.Params())
	}
	if loss > 0.1 {
		t.Fatalf("failed to learn cycle: final loss %v", loss)
	}
	// Prediction check: after 0 1 2 the next must be 3.
	st := m.NewStreamState()
	var lp mat.Vector
	for _, tok := range []Token{{ID: 0}, {ID: 1}, {ID: 2}} {
		lp = m.StepLogProbs(tok, st)
	}
	for id, x := range lp {
		if id != 3 && x >= lp[3] {
			t.Fatalf("predicted %d after 0,1,2, want 3 (logprobs %v)", id, lp)
		}
	}
	// Anomalous continuation scores much worse than the normal one.
	normal := m.SequenceLogLoss(seq[:9])
	anomalous := m.SequenceLogLoss([]Token{{ID: 0}, {ID: 1}, {ID: 4}, {ID: 4}, {ID: 2}})
	if anomalous < normal+1 {
		t.Fatalf("anomalous loss %v not clearly above normal %v", anomalous, normal)
	}
}

func TestSequenceModelGapSensitivity(t *testing.T) {
	// With UseGap, the encoded input must differ by gap.
	m := NewSequenceModel(SeqModelConfig{Vocab: 4, Hidden: []int{4}, UseGap: true, Seed: 2})
	a := m.encode(Token{ID: 1, Gap: 0})
	b := m.encode(Token{ID: 1, Gap: 1000})
	if a[4] == b[4] {
		t.Fatal("gap feature not encoded")
	}
	if a[1] != 1 || b[1] != 1 {
		t.Fatal("one-hot broken")
	}
}

func TestSequenceModelUnknownTemplateMapsToLastClass(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 4, Hidden: []int{4}, Seed: 2})
	x := m.encode(Token{ID: 99})
	if x[3] != 1 {
		t.Fatalf("unknown ID should map to last class: %v", x)
	}
	x = m.encode(Token{ID: -5})
	if x[3] != 1 {
		t.Fatalf("negative ID should map to last class: %v", x)
	}
}

func TestTrainWindowShortInputs(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 4, Hidden: []int{4}, Seed: 2})
	if m.TrainWindow(nil) != 0 || m.TrainWindow([]Token{{ID: 1}}) != 0 {
		t.Fatal("short windows must be no-ops")
	}
	if m.SequenceLogLoss([]Token{{ID: 1}}) != 0 {
		t.Fatal("short window loss must be 0")
	}
}

func TestSequenceModelCloneIndependence(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 5, Hidden: []int{6, 4}, Seed: 9})
	c := m.Clone()
	// Same outputs initially.
	window := []Token{{ID: 0}, {ID: 1}, {ID: 2}}
	if math.Abs(m.SequenceLogLoss(window)-c.SequenceLogLoss(window)) > 1e-12 {
		t.Fatal("clone differs from original")
	}
	// Training the clone must not affect the teacher.
	before := m.SequenceLogLoss(window)
	opt := NewAdam(0.05, 0)
	for i := 0; i < 10; i++ {
		c.TrainWindow(window)
		opt.Step(c.Params())
	}
	if math.Abs(m.SequenceLogLoss(window)-before) > 1e-12 {
		t.Fatal("training the student modified the teacher")
	}
	if math.Abs(c.SequenceLogLoss(window)-before) < 1e-9 {
		t.Fatal("student did not train")
	}
}

func TestFreezeBottomLayers(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 5, Hidden: []int{6, 4}, Seed: 9})
	m.FreezeBottomLayers(1)
	frozen := map[string]bool{}
	for _, p := range m.Params() {
		frozen[p.Name] = p.Frozen
	}
	if !frozen["lstm0.Wx"] || frozen["lstm1.Wx"] || frozen["out.W"] {
		t.Fatalf("unexpected freeze pattern: %v", frozen)
	}
	// Frozen weights must not move under training.
	w0 := slices.Clone(m.lstms[0].Wxp.W.Data)
	opt := NewAdam(0.05, 0)
	window := []Token{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	for i := 0; i < 5; i++ {
		m.TrainWindow(window)
		opt.Step(m.Params())
	}
	if !slices.Equal(m.lstms[0].Wxp.W.Data, w0) {
		t.Fatal("frozen LSTM layer moved")
	}
	m.Unfreeze()
	for _, p := range m.Params() {
		if p.Frozen {
			t.Fatal("Unfreeze failed")
		}
	}
}

// TestAdamClipCountsFrozenGradients pins a known bug as it stands. Frozen
// layers keep accumulating gradients, and Adam's global-norm clip reads
// them: during Adapt's frozen half the bottom layer's gradients shrink
// the live layers' steps. Three copies of one half-frozen model train on
// the same windows: as shipped; with the clip done by hand from the norm
// over every gradient, which must match it bit for bit; and with the clip
// from the live gradients alone, the fix, which must not. A fix changes
// adapted weights, so it flips this test on purpose.
func TestAdamClipCountsFrozenGradients(t *testing.T) {
	const lr, clip = 0.01, 0.05
	asIs := NewSequenceModel(SeqModelConfig{Vocab: 9, Hidden: []int{8, 6}, UseGap: true, Seed: 4})
	asIs.FreezeBottomLayers(1)
	byHand, fixed := asIs.Clone(), asIs.Clone()
	optAsIs, optByHand, optFixed := NewAdam(lr, clip), NewAdam(lr, 0), NewAdam(lr, clip)
	bottom := slices.Clone(asIs.lstms[0].Wxp.W.Data)
	zeroFrozen := func(m *SequenceModel) {
		for _, p := range m.Params() {
			if p.Frozen {
				p.ZeroGrad()
			}
		}
	}
	for k, w := range trainerWindows(3, 9, 12, 8) {
		asIs.TrainWindow(w)
		byHand.TrainWindow(w)
		fixed.TrainWindow(w)
		all := GlobalGradNorm(byHand.Params())
		zeroFrozen(byHand)
		zeroFrozen(fixed)
		if live := GlobalGradNorm(fixed.Params()); k == 0 && !(all > live && live > clip) {
			t.Fatalf("norm %v over every gradient, %v over the live ones, clip %v: the window does not tell them apart", all, live, clip)
		}
		for _, p := range byHand.Params() {
			if all > clip {
				p.Grad.Scale(clip / all)
			}
		}
		optAsIs.Step(asIs.Params())
		optByHand.Step(byHand.Params())
		optFixed.Step(fixed.Params())
	}
	assertSameWeights(t, asIs, byHand, "as shipped vs clipped by the norm over every gradient")
	if !slices.Equal(asIs.lstms[0].Wxp.W.Data, bottom) {
		t.Fatal("the frozen layer moved")
	}
	if slices.Equal(asIs.out.Wp.W.Data, fixed.out.Wp.W.Data) {
		t.Fatal("clipping by the live gradients alone left the output layer where the shipped clip put it: the bug is fixed, so update this test and ROADMAP")
	}
}

func TestSequenceModelSerializationRoundTrip(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 7, Hidden: []int{8, 5}, UseGap: true, Seed: 21})
	// Train a little so weights are non-trivial.
	opt := NewAdam(0.01, 5)
	window := []Token{{ID: 0, Gap: 1}, {ID: 1, Gap: 2}, {ID: 2, Gap: 3}, {ID: 3, Gap: 4}, {ID: 4, Gap: 5}}
	for i := 0; i < 20; i++ {
		m.TrainWindow(window)
		opt.Step(m.Params())
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSequenceModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.cfg.Vocab != 7 || !loaded.cfg.UseGap {
		t.Fatalf("config not preserved: %+v", loaded.cfg)
	}
	if math.Abs(m.SequenceLogLoss(window)-loaded.SequenceLogLoss(window)) > 1e-12 {
		t.Fatal("loaded model disagrees with original")
	}
}

func TestLoadSequenceModelCorrupt(t *testing.T) {
	if _, err := LoadSequenceModel(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("expected error on corrupt input")
	}
}

// TestLoadSequenceModelRefusesMisfitShapes: a snapshot whose config no
// model can be built from, or whose weights do not add up to the model the
// config describes, is an error, never a panic, and is refused before the
// model is allocated (a vocabulary of 2^40 would need terabytes).
func TestLoadSequenceModelRefusesMisfitShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := NewSequenceModel(SeqModelConfig{Vocab: 5, Hidden: []int{3}, Seed: 1}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []SeqModelConfig{
		{Vocab: 5},
		{Vocab: 0, Hidden: []int{3}},
		{Vocab: 5, Hidden: []int{-3}},
		{Vocab: 5, Hidden: []int{4}},
		{Vocab: 1 << 40, Hidden: []int{3}},
		{Vocab: 5, Hidden: []int{1 << 62}},
		{Vocab: 5, Hidden: []int{3}, UseGap: true},
	} {
		bad := snap
		bad.Cfg = cfg
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&bad); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSequenceModel(&b); err == nil {
			t.Fatalf("config %+v loaded over the weights of vocab 5, hidden [3]", cfg)
		}
	}
}

func TestNewSequenceModelPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewSequenceModel(SeqModelConfig{Vocab: 0, Hidden: []int{4}}) },
		func() { NewSequenceModel(SeqModelConfig{Vocab: 4}) },
		func() { NewMLP(MLPConfig{Sizes: []int{3}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAutoencoderLearnsReconstruction(t *testing.T) {
	// Two-cluster data in 8-D; after training, reconstruction error on
	// in-distribution data must be far below error on novel data.
	rng := rand.New(rand.NewSource(4))
	dim := 8
	proto := [][]float64{
		{1, 1, 0, 0, 1, 0, 0, 0},
		{0, 0, 1, 1, 0, 0, 1, 1},
	}
	sample := func() mat.Vector {
		p := proto[rng.Intn(2)]
		x := make(mat.Vector, dim)
		for i := range x {
			x[i] = p[i] + rng.NormFloat64()*0.05
		}
		return x
	}
	ae := NewAutoencoder(dim, []int{6, 3}, 8)
	opt := NewAdam(0.005, 5)
	for i := 0; i < 3000; i++ {
		ae.TrainReconstruction(sample())
		opt.Step(ae.Params())
	}
	var normalErr float64
	for i := 0; i < 50; i++ {
		normalErr += ae.ReconstructionError(sample())
	}
	normalErr /= 50
	novel := make(mat.Vector, dim)
	for i := range novel {
		novel[i] = 1 - proto[0][i] // far from both prototypes
	}
	novelErr := ae.ReconstructionError(novel)
	if novelErr < normalErr*5 {
		t.Fatalf("autoencoder separation too weak: normal %v novel %v", normalErr, novelErr)
	}
}

func TestAutoencoderShape(t *testing.T) {
	ae := NewAutoencoder(10, []int{6, 2}, 1)
	if len(ae.layers) != 4 { // 10-6-2-6-10
		t.Fatalf("expected 4 dense layers, got %d", len(ae.layers))
	}
	if in, out := ae.layers[0].In, ae.layers[3].Out; in != 10 || out != 10 {
		t.Fatalf("autoencoder must be symmetric, got %d->%d", in, out)
	}
	c := ae.Clone()
	x := make(mat.Vector, 10)
	x[3] = 1
	if math.Abs(ae.ReconstructionError(x)-c.ReconstructionError(x)) > 1e-12 {
		t.Fatal("clone mismatch")
	}
}

func TestMLPFreeze(t *testing.T) {
	ae := NewAutoencoder(6, []int{4}, 1)
	ae.FreezeBottomLayers(1)
	w := slices.Clone(ae.layers[0].Wp.W.Data)
	opt := NewAdam(0.1, 0)
	x := make(mat.Vector, 6)
	x[0] = 1
	for i := 0; i < 5; i++ {
		ae.TrainReconstruction(x)
		opt.Step(ae.Params())
	}
	if !slices.Equal(ae.layers[0].Wp.W.Data, w) {
		t.Fatal("frozen MLP layer moved")
	}
}

func TestNumParams(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 10, Hidden: []int{8}, Seed: 1})
	// lstm0: Wx 32x10 + Wh 32x8 + b 32 = 320+256+32 = 608; out: 10x8+10 = 90.
	var n int
	for _, p := range m.Params() {
		n += len(p.W.Data)
	}
	if n != 698 {
		t.Fatalf("Params() holds %d weights, want 698", n)
	}
}

func TestLSTMStatefulStreamingMatchesSequence(t *testing.T) {
	// Feeding tokens one at a time through StepLogProbs must match the
	// per-position losses inside SequenceLogLoss.
	m := NewSequenceModel(SeqModelConfig{Vocab: 6, Hidden: []int{5, 4}, Seed: 3})
	window := []Token{{ID: 0}, {ID: 2}, {ID: 4}, {ID: 1}, {ID: 3}}
	st := m.NewStreamState()
	var total float64
	for t2 := 0; t2 < len(window)-1; t2++ {
		lp := m.StepLogProbs(window[t2], st)
		total -= lp[window[t2+1].ID]
	}
	total /= float64(len(window) - 1)
	if math.Abs(total-m.SequenceLogLoss(window)) > 1e-12 {
		t.Fatalf("streaming %v vs sequence %v", total, m.SequenceLogLoss(window))
	}
}

func TestForgetGateBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM("l", 3, 4, rng)
	b := l.Bp.W.Row(0)
	for j := 0; j < 4; j++ {
		if b[4+j] != 1 {
			t.Fatalf("forget bias not 1: %v", b)
		}
		if b[j] != 0 || b[8+j] != 0 || b[12+j] != 0 {
			t.Fatalf("non-forget biases should start at 0: %v", b)
		}
	}
}

func TestLSTMBackwardSeqMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM("l", 2, 3, rng)
	_, cache := l.ForwardSeq([]mat.Vector{{1, 0}, {0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.BackwardSeq(cache, []mat.Vector{{0, 0, 0}})
}

// servedShape is the model the detector ships (detect.DefaultLSTMConfig:
// two 32-unit layers over an 80-template vocabulary plus the gap column),
// the shape the StepLogProbs rows are measured at.
var servedShape = SeqModelConfig{Vocab: 80, Hidden: []int{32, 32}, UseGap: true, Seed: 1}

func BenchmarkStepLogProbs(b *testing.B) {
	m := NewSequenceModel(servedShape)
	st := m.NewStreamState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepLogProbs(Token{ID: i % 80, Gap: 5}, st)
	}
}

// Identical seeds must produce bit-identical models and training runs.
func TestSequenceModelDeterminism(t *testing.T) {
	mk := func() float64 {
		m := NewSequenceModel(SeqModelConfig{Vocab: 6, Hidden: []int{8}, UseGap: true, Seed: 77})
		opt := NewAdam(0.01, 5)
		window := []Token{{ID: 0, Gap: 1}, {ID: 1, Gap: 2}, {ID: 2, Gap: 3}, {ID: 3, Gap: 4}}
		var last float64
		for i := 0; i < 20; i++ {
			last = m.TrainWindow(window)
			opt.Step(m.Params())
		}
		return last
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}
