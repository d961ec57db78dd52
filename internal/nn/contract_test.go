package nn

import (
	"math"
	"math/rand"
	"testing"

	"nfvpredict/internal/mat"
)

// The f64 numeric contract (DESIGN.md §10): the served activations come
// from mat.ExpNeg, not from libm, and the served products from mat's
// two-partial-sum matvec core, not from the sequential dot product, and
// these tests bound what both may move, against the step this package
// ran before either — kept here, on math.Exp, math.Tanh and a
// one-accumulator product loop, as the oracle:
//
//	every gate output, c, tanh(c) and h of one fold   within 2e-15
//	every log-probability of one step, from one state  within 1e-12
//	every anomaly verdict of a trained model           equal
//
// The bound is on a step, not on a trajectory: at 4× weight scale 50 k
// recurrent steps were seen to drift by 3e-14, and at 10× the recurrence
// is chaotic for any 1-ulp change, whichever side makes it.

// randToks produces a deterministic token stream (IDs within and beyond the
// vocab, varying gaps).
func randToks(rng *rand.Rand, n, vocab int) []Token {
	toks := make([]Token, n)
	for i := range toks {
		toks[i] = Token{ID: rng.Intn(vocab + 2), Gap: rng.Float64() * 120}
	}
	return toks
}

func bitsEqual(t *testing.T, what string, a, b mat.Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v != %v", what, i, a[i], b[i])
		}
	}
}

// foldGatesLibm is foldGates as it was: one math.Exp or math.Tanh call per
// activation.
func foldGatesLibm(z, cPrev, c, tanhC, h mat.Vector) {
	H := len(h)
	for j := 0; j < H; j++ {
		i, f := sigmoid(z[j]), sigmoid(z[H+j])
		g, o := math.Tanh(z[2*H+j]), sigmoid(z[3*H+j])
		z[j], z[H+j], z[2*H+j], z[3*H+j] = i, f, g, o
		cj := f*cPrev[j] + i*g
		c[j] = cj
		tanhC[j] = math.Tanh(cj)
		h[j] = o * tanhC[j]
	}
}

// mulVecAddSeq is mat.Matrix.MulVecAdd as it was: each row's products
// added to one accumulator, j = 0..Cols-1 in order. The oracle must not
// call the kernel under test, so the loop lives here.
func mulVecAddSeq(w *mat.Matrix, dst, x mat.Vector) {
	for i := range dst {
		var s float64
		for j, wij := range w.Row(i) {
			s += float64(wij * x[j])
		}
		dst[i] += s
	}
}

// stepLogProbsLibm is StepLogProbs as it was before mat.ExpNeg and the
// two-partial-sum matvec: sequential-order products (mulVecAddSeq),
// foldGatesLibm for the cell, and a math.Exp log-softmax. It advances st
// and returns a fresh vector.
func stepLogProbsLibm(m *SequenceModel, tok Token, st *StreamState) mat.Vector {
	in := m.oneHotOf(tok)
	var x mat.Vector
	for li, l := range m.lstms {
		ls := st.layers[li]
		z := l.Bp.W.Row(0).Clone()
		switch {
		case li > 0:
			mulVecAddSeq(l.Wxp.W, z, x)
		case in.gapCol >= 0:
			l.Wxp.W.Col2GatherAdd(z, in.id, 1, in.gapCol, in.gap)
		default:
			l.Wxp.W.ColGatherAdd(z, in.id, 1)
		}
		mulVecAddSeq(l.Whp.W, z, ls.H)
		foldGatesLibm(z, ls.C, ls.C, ls.H, ls.H)
		x = ls.H
	}
	logp := m.out.Bp.W.Row(0).Clone()
	mulVecAddSeq(m.out.Wp.W, logp, x)
	max := logp.Max()
	var sum float64
	for _, v := range logp {
		sum += math.Exp(v - max)
	}
	lse := max + math.Log(sum)
	for i := range logp {
		logp[i] -= lse
	}
	return logp
}

// scaledModel is a randomly initialised model with every weight times
// scale: 1× is what training starts from, 4× saturates gates the way a
// trained model does.
func scaledModel(seed int64, scale float64) *SequenceModel {
	m := NewSequenceModel(SeqModelConfig{Vocab: 30, Hidden: []int{24, 17}, UseGap: true, Seed: seed})
	for _, p := range m.Params() {
		for i := range p.W.Data {
			p.W.Data[i] *= scale
		}
	}
	return m
}

func maxAbsDiff(a, b mat.Vector) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst || d != d {
			worst = d
		}
	}
	return worst
}

// TestFoldGatesWithinContract folds random gate blocks — pre-activations
// from a few ulp of zero out to where every gate saturates, odd and even
// widths — through foldGates and the libm cell, from the same cell state
// (|c| < 8, where one ulp of c is still under the bound).
func TestFoldGatesWithinContract(t *testing.T) {
	const bound = 2e-15
	rng := rand.New(rand.NewSource(11))
	worst := map[string]float64{}
	for trial := 0; trial < 4000; trial++ {
		H := 1 + rng.Intn(40)
		scale := []float64{1e-12, 0.1, 1, 4, 40, 400}[trial%6]
		z := mat.NewVector(4 * H)
		cPrev := mat.NewVector(H)
		for i := range z {
			z[i] = scale * rng.NormFloat64()
		}
		for i := range cPrev {
			cPrev[i] = 1.5 * rng.NormFloat64()
		}
		zRef := z.Clone()
		c, tc, h := mat.NewVector(H), mat.NewVector(H), mat.NewVector(H)
		cRef, tcRef, hRef := mat.NewVector(H), mat.NewVector(H), mat.NewVector(H)
		foldGates(z, cPrev, c, tc, h)
		foldGatesLibm(zRef, cPrev, cRef, tcRef, hRef)
		for _, pair := range []struct {
			what      string
			got, want mat.Vector
		}{{"gates", z, zRef}, {"c", c, cRef}, {"tanh(c)", tc, tcRef}, {"h", h, hRef}} {
			d := maxAbsDiff(pair.got, pair.want)
			if !(d <= bound) {
				t.Fatalf("trial %d (H %d, scale %g): %s off by %g, contract is %g", trial, H, scale, pair.what, d, bound)
			}
			worst[pair.what] = math.Max(worst[pair.what], d)
		}
		for j, g := range z {
			lo := 0.0
			if j/H == 2 { // the tanh quarter
				lo = -1
			}
			if g < lo || g > 1 {
				t.Fatalf("trial %d: gate output %d = %v left its range", trial, j, g)
			}
		}
	}
	t.Logf("worst differences: %v", worst)
}

// TestFoldGatesInPlaceMatchesTape pins the aliasing foldGates allows: the
// inference call (c on cPrev, tanh(c) on h) returns the bits of the tape
// call, which keeps them apart — served ≡ trained rests on it.
func TestFoldGatesInPlaceMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, H := range []int{1, 2, 7, 32} {
		z := mat.NewVector(4 * H)
		st := mat.NewVector(H)
		for i := range z {
			z[i] = 3 * rng.NormFloat64()
		}
		for i := range st {
			st[i] = rng.NormFloat64()
		}
		z2, c2, h2 := z.Clone(), st.Clone(), mat.NewVector(H)
		c, tc, h := mat.NewVector(H), mat.NewVector(H), mat.NewVector(H)
		foldGates(z, st, c, tc, h)
		foldGates(z2, c2, c2, h2, h2)
		bitsEqual(t, "gates", z2, z)
		bitsEqual(t, "c", c2, c)
		bitsEqual(t, "h", h2, h)
	}
}

// TestStepLogProbsWithinContract walks random models at 1× and 4× weight
// scale along a random token stream and, at every step, scores the token
// from the same recurrent state with StepLogProbs and with the libm step.
func TestStepLogProbsWithinContract(t *testing.T) {
	const bound = 1e-12
	for _, scale := range []float64{1, 4} {
		var worst float64
		for seed := int64(1); seed <= 4; seed++ {
			m := scaledModel(seed, scale)
			rng := rand.New(rand.NewSource(100 + seed))
			st := m.NewStreamState()
			for step := 0; step < 1500; step++ {
				tok := randToks(rng, 1, m.cfg.Vocab)[0]
				shared, err := m.RestoreStreamState(st.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				want := stepLogProbsLibm(m, tok, shared)
				got := m.StepLogProbs(tok, st)
				d := maxAbsDiff(got, want)
				if !(d <= bound) {
					t.Fatalf("scale %g seed %d step %d: log-probability off by %g, contract is %g", scale, seed, step, d, bound)
				}
				worst = math.Max(worst, d)
			}
		}
		t.Logf("scale %g×: worst one-step log-probability difference %.3g", scale, worst)
	}
}

// patternStream is a token stream with structure to learn — a cycle of
// period templates, every position replaced by a random template with
// probability noise — so a trained model scores it with a wide spread of
// log-probabilities on both sides of any threshold.
func patternStream(rng *rand.Rand, n, vocab, period int, noise float64) []Token {
	toks := make([]Token, n)
	for i := range toks {
		id := (i % period) * 3 % vocab
		if rng.Float64() < noise {
			id = rng.Intn(vocab)
		}
		toks[i] = Token{ID: id, Gap: 5 + 20*rng.Float64()}
	}
	return toks
}

// TestVerdictsEqualLibm is the verdict half of the numeric contract: a
// model trained here (through foldGates, SoftmaxInto and the matvec
// core) scores 6000 events twice, once per definition of the step's
// arithmetic — products and activations — each on its own recurrent
// trajectory, and every anomaly verdict — −log p(next) over a
// fixed threshold, as detect scores — must agree.
func TestVerdictsEqualLibm(t *testing.T) {
	const vocab, threshold = 16, 2.0
	m := NewSequenceModel(SeqModelConfig{Vocab: vocab, Hidden: []int{16, 12}, UseGap: true, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	train := patternStream(rng, 4000, vocab, 7, 0.05)
	var wins [][]Token
	for at := 0; at+21 <= len(train); at += 10 {
		wins = append(wins, train[at:at+21])
	}
	bt := NewBatchTrainer(m, NewAdam(0.01, 5))
	for epoch := 0; epoch < 3; epoch++ {
		bt.Train(wins)
	}
	events := patternStream(rng, 6001, vocab, 7, 0.15)
	st, stLibm := m.NewStreamState(), m.NewStreamState()
	var anomalies int
	nearest := math.Inf(1)
	for i := 0; i+1 < len(events); i++ {
		next := m.targetOf(events[i+1])
		score := -m.StepLogProbs(events[i], st)[next]
		scoreLibm := -stepLogProbsLibm(m, events[i], stLibm)[next]
		if (score > threshold) != (scoreLibm > threshold) {
			t.Fatalf("event %d: verdict flipped, score %v vs libm %v at threshold %v", i, score, scoreLibm, threshold)
		}
		if score > threshold {
			anomalies++
		}
		nearest = math.Min(nearest, math.Abs(score-threshold))
	}
	// Vacuity guards: the model learned the cycle, so anomalies are the
	// minority, and there are enough of them to flip.
	if anomalies < 300 || anomalies > 3000 {
		t.Fatalf("%d anomalies in %d events: the scenario does not exercise the threshold", anomalies, len(events)-1)
	}
	t.Logf("%d verdicts equal, %d anomalous, nearest score %.3g from the threshold", len(events)-1, anomalies, nearest)
}
