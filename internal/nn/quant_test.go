package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestTanh32Bounded pins the error budget of the fast activations: the
// Padé tanh32 within 2e-4 of math.Tanh, sigmoid32 within 1e-4 of the f64
// sigmoid, over a dense sweep well past the clamp point.
func TestTanh32Bounded(t *testing.T) {
	var worstT, worstS float64
	for x := -12.0; x <= 12.0; x += 1e-3 {
		if d := math.Abs(float64(tanh32(float32(x))) - math.Tanh(x)); d > worstT {
			worstT = d
		}
		if d := math.Abs(float64(sigmoid32(float32(x))) - sigmoid(x)); d > worstS {
			worstS = d
		}
	}
	if worstT > 2e-4 {
		t.Fatalf("tanh32 max abs error %.3g exceeds budget 2e-4", worstT)
	}
	if worstS > 1e-4 {
		t.Fatalf("sigmoid32 max abs error %.3g exceeds budget 1e-4", worstS)
	}
	for _, x := range []float32{-1e6, -30, 30, 1e6} {
		v := tanh32(x)
		if v != 1 && v != -1 {
			t.Fatalf("tanh32(%v) = %v, want exact ±1 in the clamp region", x, v)
		}
	}
}

// TestExp32Bounded pins exp32's relative error over the log-softmax input
// range (non-positive after max subtraction) plus a positive margin.
func TestExp32Bounded(t *testing.T) {
	for x := -87.0; x <= 5.0; x += 7e-3 {
		want := math.Exp(x)
		got := float64(exp32(float32(x)))
		if math.Abs(got-want) > 1e-5*want+1e-38 {
			t.Fatalf("exp32(%v) = %v, want %v (rel err %.3g)", x, got, want, math.Abs(got-want)/want)
		}
	}
	if exp32(-100) != 0 {
		t.Fatalf("exp32 underflow should flush to zero")
	}
}

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{{"f64", PrecisionF64}, {"", PrecisionF64}, {"f32", PrecisionF32}, {"float32", PrecisionF32}, {"int8", PrecisionInt8}, {"i8", PrecisionInt8}} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatalf("ParsePrecision accepted unknown mode")
	}
}

func TestSetPrecisionPackInvalidate(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 16, Hidden: []int{12, 8}, UseGap: true, Seed: 3})
	if m.Precision() != PrecisionF64 || m.PackedBytes() != 0 {
		t.Fatalf("fresh model should serve f64 with no packed engine")
	}
	m.SetPrecision(PrecisionF32)
	f32Bytes := m.PackedBytes()
	if m.Precision() != PrecisionF32 || f32Bytes == 0 {
		t.Fatalf("f32 pack: precision %v bytes %d", m.Precision(), f32Bytes)
	}
	m.SetPrecision(PrecisionInt8)
	i8Bytes := m.PackedBytes()
	if m.Precision() != PrecisionInt8 || i8Bytes == 0 || i8Bytes >= f32Bytes {
		t.Fatalf("int8 pack should be smaller than f32: %d vs %d", i8Bytes, f32Bytes)
	}
	m.InvalidatePacked()
	if m.Precision() != PrecisionF64 || m.PackedBytes() != 0 {
		t.Fatalf("InvalidatePacked should revert to the f64 reference path")
	}
	// Clones never inherit a packed engine: the engine mirrors weights the
	// clone is about to fine-tune.
	m.SetPrecision(PrecisionF32)
	if c := m.Clone(); c.Precision() != PrecisionF64 {
		t.Fatalf("Clone inherited a packed engine")
	}
}

// driftTokens is a deterministic token stream shared by the closeness and
// bit-identity tests.
func driftTokens(vocab, n int, seed int64) []Token {
	rng := rand.New(rand.NewSource(seed))
	toks := make([]Token, n)
	for i := range toks {
		toks[i] = Token{ID: rng.Intn(vocab), Gap: rng.Float64() * 60}
	}
	return toks
}

// TestQuantStepCloseToF64 bounds the drift of the quantized engines
// against the f64 reference over a long stream: f32 stays within a few
// milli-nats on every log-probability, int8 within a fraction of a nat —
// both far inside the anomaly threshold margins (scores differ by ≥ 2
// nats between normal and anomalous traffic in the seed scenarios).
func TestQuantStepCloseToF64(t *testing.T) {
	cfg := SeqModelConfig{Vocab: 32, Hidden: []int{24, 16}, UseGap: true, Seed: 9}
	for _, tc := range []struct {
		prec   Precision
		budget float64
	}{{PrecisionF32, 2e-2}, {PrecisionInt8, 0.5}} {
		ref := NewSequenceModel(cfg)
		qm := NewSequenceModel(cfg) // identical seed ⇒ identical weights
		qm.SetPrecision(tc.prec)
		stR, stQ := ref.NewStreamState(), qm.NewStreamState()
		var worst float64
		for _, tok := range driftTokens(cfg.Vocab, 400, 41) {
			lpR := ref.StepLogProbs(tok, stR)
			lpQ := qm.StepLogProbs(tok, stQ)
			for i := range lpR {
				if d := math.Abs(lpR[i] - lpQ[i]); d > worst {
					worst = d
				}
			}
		}
		if worst > tc.budget {
			t.Fatalf("%v: max |Δlogp| %.4g exceeds budget %.3g", tc.prec, worst, tc.budget)
		}
		t.Logf("%v: max |Δlogp| over 400 steps = %.4g", tc.prec, worst)
	}
}

// TestQuantBatchBitIdenticalToSequential is the quantized mirror of the
// f64 batch invariant: every lane of the batched quantized step must be
// bit-identical to a sequential quantized step on the same token and
// state, for both f32 and int8 engines.
func TestQuantBatchBitIdenticalToSequential(t *testing.T) {
	cfg := SeqModelConfig{Vocab: 20, Hidden: []int{16, 12}, UseGap: true, Seed: 5}
	for _, prec := range []Precision{PrecisionF32, PrecisionInt8} {
		m := NewSequenceModel(cfg)
		m.SetPrecision(prec)
		const B = 7
		seqSts := make([]*StreamState, B)
		batSts := make([]*StreamState, B)
		for b := range seqSts {
			seqSts[b] = m.NewStreamState()
			batSts[b] = m.NewStreamState()
		}
		sc := &BatchScratch{}
		toks := make([]Token, B)
		rng := rand.New(rand.NewSource(61))
		for step := 0; step < 50; step++ {
			for b := range toks {
				toks[b] = Token{ID: rng.Intn(cfg.Vocab + 2), Gap: rng.Float64() * 30}
			}
			want := make([][]float64, B)
			for b := range toks {
				want[b] = append([]float64(nil), m.StepLogProbs(toks[b], seqSts[b])...)
			}
			got := m.StepLogProbsBatch(toks, batSts, sc)
			for b := range toks {
				for i := range want[b] {
					if want[b][i] != got[b][i] {
						t.Fatalf("%v step %d lane %d logp[%d]: sequential %v != batched %v",
							prec, step, b, i, want[b][i], got[b][i])
					}
				}
				for li := range seqSts[b].layers {
					for j := range seqSts[b].layers[li].H {
						if seqSts[b].layers[li].H[j] != batSts[b].layers[li].H[j] ||
							seqSts[b].layers[li].C[j] != batSts[b].layers[li].C[j] {
							t.Fatalf("%v step %d lane %d layer %d unit %d: state diverged", prec, step, b, li, j)
						}
					}
				}
			}
		}
	}
}

// TestQuantStepAllocFree verifies the quantized hot paths allocate nothing
// after scratch warm-up, matching the f64 serving contract.
func TestQuantStepAllocFree(t *testing.T) {
	m := NewSequenceModel(SeqModelConfig{Vocab: 24, Hidden: []int{16, 16}, UseGap: true, Seed: 2})
	m.SetPrecision(PrecisionInt8)
	st := m.NewStreamState()
	m.StepLogProbs(Token{ID: 1, Gap: 2}, st) // warm scratch
	if avg := testing.AllocsPerRun(50, func() {
		m.StepLogProbs(Token{ID: 3, Gap: 1}, st)
	}); avg != 0 {
		t.Fatalf("quantized StepLogProbs allocates %.1f/op after warm-up", avg)
	}
	sts := []*StreamState{m.NewStreamState(), m.NewStreamState(), m.NewStreamState()}
	toks := []Token{{ID: 1}, {ID: 2}, {ID: 3}}
	sc := &BatchScratch{}
	m.StepLogProbsBatch(toks, sts, sc)
	if avg := testing.AllocsPerRun(50, func() {
		m.StepLogProbsBatch(toks, sts, sc)
	}); avg != 0 {
		t.Fatalf("quantized StepLogProbsBatch allocates %.1f/op after warm-up", avg)
	}
}

// benchQuantModel mirrors BenchmarkStepLogProbs's model exactly so the
// F32/Int8 rows in BENCH_serving.json are directly comparable.
func benchQuantModel(b *testing.B, p Precision) (*SequenceModel, *StreamState) {
	m := NewSequenceModel(servedShape)
	m.SetPrecision(p)
	return m, m.NewStreamState()
}

func BenchmarkStepLogProbsF32(b *testing.B) {
	m, st := benchQuantModel(b, PrecisionF32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepLogProbs(Token{ID: i % 80, Gap: 5}, st)
	}
}

func BenchmarkStepLogProbsInt8(b *testing.B) {
	m, st := benchQuantModel(b, PrecisionInt8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepLogProbs(Token{ID: i % 80, Gap: 5}, st)
	}
}
