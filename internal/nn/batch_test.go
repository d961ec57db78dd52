package nn

import (
	"math"
	"math/rand"
	"testing"

	"nfvpredict/internal/mat"
)

// batchTestModel builds a two-layer model shaped like the serving detector.
func batchTestModel() *SequenceModel {
	return NewSequenceModel(SeqModelConfig{Vocab: 20, Hidden: []int{16, 12}, UseGap: true, Seed: 3})
}

// randToks produces a deterministic token stream (IDs within and beyond the
// vocab, varying gaps) for batch-equivalence tests.
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

// TestStepLogProbsBatchBitIdentical is the batched-inference contract: for
// batch sizes 1, 3, and 8, stepping B independent streams through
// StepLogProbsBatch for many timesteps must produce, at every step, the
// exact bits a sequential StepLogProbs produces on twin streams — for the
// log-probs and for the recurrent state they leave behind.
func TestStepLogProbsBatchBitIdentical(t *testing.T) {
	m := batchTestModel()
	for _, B := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(B)))
		seq := make([]*StreamState, B)
		bat := make([]*StreamState, B)
		for b := 0; b < B; b++ {
			seq[b] = m.NewStreamState()
			bat[b] = m.NewStreamState()
		}
		var sc BatchScratch
		toks := make([]Token, B)
		for step := 0; step < 40; step++ {
			for b := 0; b < B; b++ {
				toks[b] = randToks(rng, 1, m.cfg.Vocab)[0]
			}
			lps := m.StepLogProbsBatch(toks, bat, &sc)
			for b := 0; b < B; b++ {
				want := m.StepLogProbs(toks[b], seq[b])
				bitsEqual(t, "logp", lps[b], want)
				for li := range seq[b].layers {
					bitsEqual(t, "H", bat[b].layers[li].H, seq[b].layers[li].H)
					bitsEqual(t, "C", bat[b].layers[li].C, seq[b].layers[li].C)
				}
			}
		}
	}
}

// TestStepLogProbsBatchAllocFree pins the hot-path allocation budget: after
// warm-up, a batched step allocates nothing.
func TestStepLogProbsBatchAllocFree(t *testing.T) {
	m := batchTestModel()
	const B = 8
	sts := make([]*StreamState, B)
	toks := make([]Token, B)
	for b := 0; b < B; b++ {
		sts[b] = m.NewStreamState()
		toks[b] = Token{ID: b % m.cfg.Vocab, Gap: 30}
	}
	var sc BatchScratch
	m.StepLogProbsBatch(toks, sts, &sc) // warm the scratch
	if n := testing.AllocsPerRun(50, func() {
		m.StepLogProbsBatch(toks, sts, &sc)
	}); n != 0 {
		t.Fatalf("batched step allocates %v per run, want 0", n)
	}
}

// TestInferBatchIntoBitIdentical checks the dense batched forward against
// per-lane InferInto, with a non-identity activation to cover the apply
// loop.
func TestInferBatchIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, act := range []Activation{Identity, Tanh} {
		d := NewDense("t", 12, 7, act, rng)
		const B = 5
		x := mat.NewMatrix(B, 12)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		dst := mat.NewMatrix(B, 7)
		d.InferBatchInto(dst, x)
		for b := 0; b < B; b++ {
			want := d.Infer(x.Row(b))
			bitsEqual(t, "dense", dst.Row(b), want)
		}
	}
}

// BenchmarkStepLogProbsSequential8 scores 8 streams one step each with the
// per-stream path; pair with BenchmarkStepLogProbsBatch8 for the batching
// win at the serving model's default shape.
func BenchmarkStepLogProbsSequential8(b *testing.B) {
	m := NewSequenceModel(servedShape)
	const B = 8
	sts := make([]*StreamState, B)
	toks := make([]Token, B)
	for i := 0; i < B; i++ {
		sts[i] = m.NewStreamState()
		toks[i] = Token{ID: i, Gap: 30}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < B; k++ {
			m.StepLogProbs(toks[k], sts[k])
		}
	}
}

// BenchmarkStepLogProbsBatch8 is the batched counterpart: one GEMM per
// gate across 8 lanes.
func BenchmarkStepLogProbsBatch8(b *testing.B) {
	m := NewSequenceModel(servedShape)
	const B = 8
	sts := make([]*StreamState, B)
	toks := make([]Token, B)
	for i := 0; i < B; i++ {
		sts[i] = m.NewStreamState()
		toks[i] = Token{ID: i, Gap: 30}
	}
	var sc BatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepLogProbsBatch(toks, sts, &sc)
	}
}
