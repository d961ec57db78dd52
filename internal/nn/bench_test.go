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

// servedWindow is the shipped BPTT window length (detect.DefaultLSTMConfig
// WindowLen): 24 tokens, 23 predictions.
const servedWindow = 24

// BenchmarkTrainWindow is one training step at the shipped shape: the
// BPTT pass over one 24-token window and the Adam step after it.
func BenchmarkTrainWindow(b *testing.B) {
	m := NewSequenceModel(servedShape)
	opt := NewAdam(0.003, 5)
	window := trainerWindows(1, servedShape.Vocab, servedWindow, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainWindow(window)
		opt.Step(m.Params())
	}
}

// BenchmarkBatchTrainer is one trainer pass over 32 distinct windows at
// the shipped shape, an optimizer step after each.
func BenchmarkBatchTrainer(b *testing.B) {
	m := NewSequenceModel(servedShape)
	bt := NewBatchTrainer(m, NewAdam(0.003, 5))
	wins := trainerWindows(32, servedShape.Vocab, servedWindow, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Train(wins)
	}
}

// BenchmarkAdamStep is the optimizer alone at the shipped shape: the
// global-norm clip and the update of all 25.6 k parameters, from one
// window's gradients. The step zeroes them, so every iteration first
// copies them back (200 KB, inside the timing): a constant gradient keeps
// the moments away from denormals, which a run of zero gradients would
// decay them into.
func BenchmarkAdamStep(b *testing.B) {
	m := NewSequenceModel(servedShape)
	m.TrainWindow(trainerWindows(1, servedShape.Vocab, servedWindow, 1)[0])
	params := m.Params()
	grads := make([][]float64, len(params))
	for i, p := range params {
		grads[i] = append([]float64(nil), p.Grad.Data...)
	}
	opt := NewAdam(0.003, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range params {
			copy(p.Grad.Data, grads[k])
		}
		opt.Step(params)
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
