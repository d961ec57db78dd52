package nn

import (
	"math/rand"
	"testing"

	"nfvpredict/internal/mat"
)

// benchLSTM builds a paper-scale layer: 64-template vocab + gap column in,
// 48 hidden units.
func benchLSTM() *LSTM {
	rng := rand.New(rand.NewSource(1))
	return NewLSTM("l", 65, 48, rng)
}

// BenchmarkLSTMStep compares the dense one-hot step (materialized
// vocab-sized input) against the sparse kernel path, for both inference
// (no cache) and training (tape recording).
func BenchmarkLSTMStep(b *testing.B) {
	l := benchLSTM()
	x := mat.NewVector(65)
	x[7] = 1
	x[64] = 0.5
	in := oneHot{id: 7, gapCol: 64, gap: 0.5}

	b.Run("dense-infer", func(b *testing.B) {
		st := l.NewState()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Step(x, st, nil)
		}
	})
	b.Run("sparse-infer", func(b *testing.B) {
		st := l.NewState()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.StepOneHot(in, st, nil)
		}
	})
	b.Run("dense-train", func(b *testing.B) {
		st, cache := l.NewState(), &LSTMCache{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%32 == 0 { // bound the tape like a BPTT window would
				st.Reset()
				cache.reset()
			}
			l.Step(x, st, cache)
		}
	})
	b.Run("sparse-train", func(b *testing.B) {
		st, cache := l.NewState(), &LSTMCache{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%32 == 0 {
				st.Reset()
				cache.reset()
			}
			l.StepOneHot(in, st, cache)
		}
	})
}

// BenchmarkBatchTrainer measures one full pass over 32 windows at the
// configured batch/worker shape.
func BenchmarkBatchTrainer(b *testing.B) {
	for _, shape := range []struct {
		name           string
		batch, workers int
	}{
		{"batch1-serial", 1, 1},
		{"batch8-serial", 8, 1},
		{"batch8-workers4", 8, 4},
	} {
		b.Run(shape.name, func(b *testing.B) {
			m := NewSequenceModel(SeqModelConfig{Vocab: 64, Hidden: []int{48, 48}, UseGap: true, Seed: 1})
			bt := NewBatchTrainer(m, NewAdam(0.003, 5), shape.batch, shape.workers)
			wins := trainerWindows(32, 64, 33, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt.Train(wins)
			}
		})
	}
}

// BenchmarkGateFold32 is the nonlinear half of one LSTM step at the
// shipped width: 128 gate pre-activations and 32 cells through foldGates,
// in place as the inference step runs it.
func BenchmarkGateFold32(b *testing.B) {
	const H = 32
	rng := rand.New(rand.NewSource(1))
	pre := mat.NewVector(4 * H)
	for i := range pre {
		pre[i] = 2 * rng.NormFloat64()
	}
	z, c, h := mat.NewVector(4*H), mat.NewVector(H), mat.NewVector(H)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(z, pre)
		foldGates(z, c, c, h, h)
	}
}
