package nn

import (
	"math/rand"
	"testing"
)

func trainerWindows(n, vocab, length int, seed int64) [][]Token {
	rng := rand.New(rand.NewSource(seed))
	wins := make([][]Token, n)
	for i := range wins {
		w := make([]Token, length)
		for j := range w {
			w[j] = Token{ID: rng.Intn(vocab), Gap: rng.Float64() * 50}
		}
		wins[i] = w
	}
	return wins
}

func assertSameWeights(t *testing.T, a, b *SequenceModel, label string) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].W.Data {
			if ap[i].W.Data[j] != bp[i].W.Data[j] {
				t.Fatalf("%s: param %s weight[%d] diverged: %v vs %v",
					label, ap[i].Name, j, ap[i].W.Data[j], bp[i].W.Data[j])
			}
		}
	}
}

// The trainer is strict per-window SGD: one optimizer step per window,
// applied directly to the model, and none after a window too short to
// train on.
func TestBatchTrainerSingleWindowMatchesDirect(t *testing.T) {
	cfg := SeqModelConfig{Vocab: 12, Hidden: []int{10, 8}, UseGap: true, Seed: 5}
	wins := trainerWindows(17, 12, 9, 99)
	wins[3] = wins[3][:1]
	direct := NewSequenceModel(cfg)
	opt := NewAdam(0.003, 5)
	for epoch := 0; epoch < 2; epoch++ {
		for _, w := range wins {
			if direct.TrainWindow(w) > 0 {
				opt.Step(direct.Params())
			}
		}
	}
	trained := NewSequenceModel(cfg)
	bt := NewBatchTrainer(trained, NewAdam(0.003, 5))
	for epoch := 0; epoch < 2; epoch++ {
		bt.Train(wins)
	}
	assertSameWeights(t, direct, trained, "direct vs trainer")
}
