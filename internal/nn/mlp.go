package nn

import (
	"fmt"
	"math/rand"

	"nfvpredict/internal/mat"
)

// MLP is a feed-forward multi-layer perceptron built from Dense layers.
// With a symmetric bottleneck layout and MSE against the input it is the
// paper's Autoencoder baseline (Deng et al. 2010; Zhang et al. 2016): the
// reconstruction error of a model trained on normal data is the anomaly
// indicator.
type MLP struct {
	layers []*Dense
	// Training scratch, lazily built and reused across examples. Owned by
	// one training goroutine at a time.
	caches []*DenseCache
	dy     mat.Vector
}

// MLPConfig configures an MLP.
type MLPConfig struct {
	// Sizes lists layer widths input-first, e.g. [F, 32, 8, 32, F] for a
	// bottleneck autoencoder over F-dimensional features.
	Sizes []int
	// HiddenAct is the activation for all layers except the last.
	HiddenAct Activation
	// OutAct is the activation of the final layer (Identity for
	// real-valued reconstruction, Sigmoid for [0,1] features).
	OutAct Activation
	// Seed makes weight initialization deterministic.
	Seed int64
}

// NewMLP builds an MLP per cfg. It panics if fewer than two sizes are given.
func NewMLP(cfg MLPConfig) *MLP {
	if len(cfg.Sizes) < 2 {
		panic("nn: MLP requires at least input and output sizes")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MLP{}
	for i := 0; i+1 < len(cfg.Sizes); i++ {
		act := cfg.HiddenAct
		if i+2 == len(cfg.Sizes) {
			act = cfg.OutAct
		}
		m.layers = append(m.layers, NewDense(fmt.Sprintf("fc%d", i), cfg.Sizes[i], cfg.Sizes[i+1], act, rng))
	}
	return m
}

// NewAutoencoder builds a symmetric bottleneck autoencoder over dim-wide
// inputs with the given encoder widths, e.g. dim=64, hidden=[32, 8] yields
// 64→32→8→32→64. Hidden layers use ReLU and the output is linear.
func NewAutoencoder(dim int, hidden []int, seed int64) *MLP {
	sizes := []int{dim}
	sizes = append(sizes, hidden...)
	for i := len(hidden) - 2; i >= 0; i-- {
		sizes = append(sizes, hidden[i])
	}
	sizes = append(sizes, dim)
	return NewMLP(MLPConfig{Sizes: sizes, HiddenAct: ReLU, OutAct: Identity, Seed: seed})
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Infer runs x through the network without recording caches.
func (m *MLP) Infer(x mat.Vector) mat.Vector {
	h := x
	for _, l := range m.layers {
		h = l.Infer(h)
	}
	return h
}

// Backward propagates dy through the network, accumulating parameter
// gradients, and returns the input gradient.
func (m *MLP) Backward(caches []*DenseCache, dy mat.Vector) mat.Vector {
	for i := len(m.layers) - 1; i >= 0; i-- {
		dy = m.layers[i].Backward(caches[i], dy)
	}
	return dy
}

// TrainReconstruction accumulates gradients for one autoencoder example
// (target = input) and returns the reconstruction loss. Allocation-free
// after the first call: the forward caches and loss gradient live in the
// network's reusable scratch. Not safe for concurrent use on one MLP.
func (m *MLP) TrainReconstruction(x mat.Vector) float64 {
	if m.caches == nil {
		m.caches = make([]*DenseCache, len(m.layers))
		for i := range m.caches {
			m.caches[i] = &DenseCache{}
		}
	}
	h := x
	for i, l := range m.layers {
		h = l.ForwardInto(m.caches[i], h)
	}
	m.dy = ensureVec(m.dy, len(h))
	loss := MSEInto(m.dy, h, x)
	m.Backward(m.caches, m.dy)
	return loss
}

// ReconstructionError returns ½·mean((f(x)−x)²) without touching gradients.
func (m *MLP) ReconstructionError(x mat.Vector) float64 {
	y := m.Infer(x)
	loss, _ := MSE(y, x)
	return loss
}

// Clone returns a deep copy of the network.
func (m *MLP) Clone() *MLP {
	out := &MLP{}
	for _, l := range m.layers {
		out.layers = append(out.layers, l.clone())
	}
	return out
}

// FreezeBottomLayers freezes the lowest n Dense layers for fine-tuning.
func (m *MLP) FreezeBottomLayers(n int) {
	for i, l := range m.layers {
		frozen := i < n
		for _, p := range l.Params() {
			p.Frozen = frozen
		}
	}
}
