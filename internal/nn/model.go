package nn

import (
	"fmt"
	"math"
	"math/rand"

	"nfvpredict/internal/mat"
)

// Token is one structured syslog event as consumed by the sequence model:
// the template ID produced by the signature tree plus the time gap to the
// previous message, the (m_i, t_i − t_{i−1}) tuple of §4.2 of the paper.
type Token struct {
	// ID is the template (signature) index in [0, Vocab).
	ID int
	// Gap is the time since the previous message in seconds.
	Gap float64
}

// SeqModelConfig configures a SequenceModel.
type SeqModelConfig struct {
	// Vocab is the number of log templates (output classes).
	Vocab int
	// Hidden lists the width of each LSTM layer; the paper uses two
	// LSTM layers followed by one dense layer.
	Hidden []int
	// UseGap adds the log-scaled inter-arrival gap as an extra input
	// dimension alongside the one-hot template encoding.
	UseGap bool
	// Seed makes weight initialization deterministic.
	Seed int64
}

// SequenceModel is the paper's LSTM next-template language model: a one-hot
// template (plus optional time-gap feature) feeds a stack of LSTM layers
// whose final hidden state feeds one dense layer producing logits over the
// template vocabulary (§4.2, §5.1: "2 LSTM layers and 1 dense layer").
//
// Because the input is one-hot by construction, the model never
// materializes the vocab-sized input vector: tokens flow through the
// layers' sparse kernels (StepOneHot, AddOuterOneHot), which removes the
// O(Vocab·4H) term from every timestep of both training and inference.
//
// A model may be scored concurrently (each goroutine with its own
// StreamState), but TrainWindow must not run concurrently on the same
// model.
type SequenceModel struct {
	cfg   SeqModelConfig
	lstms []*LSTM
	out   *Dense
	tr    *trainArena
}

// trainArena holds every reusable buffer one TrainWindow pass needs, so
// repeated windows allocate nothing. A model owns one arena.
type trainArena struct {
	states  []*LSTMState
	caches  []*LSTMCache
	logits  mat.Vector
	dlogits []mat.Vector // per-timestep ∂loss/∂logits
	hs      []mat.Vector // per-timestep top-layer output, the dense layer's input
	dhs     []mat.Vector // per-timestep ∂loss/∂h over the top layer
}

// NewSequenceModel builds a model per cfg. It panics on a non-positive
// vocabulary or an empty hidden-layer list, which are programming errors.
func NewSequenceModel(cfg SeqModelConfig) *SequenceModel {
	if cfg.Vocab <= 0 {
		panic("nn: SequenceModel requires positive vocab")
	}
	if len(cfg.Hidden) == 0 {
		panic("nn: SequenceModel requires at least one LSTM layer")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &SequenceModel{cfg: cfg}
	in := cfg.Vocab
	if cfg.UseGap {
		in++
	}
	for i, h := range cfg.Hidden {
		m.lstms = append(m.lstms, NewLSTM(fmt.Sprintf("lstm%d", i), in, h, rng))
		in = h
	}
	m.out = NewDense("out", in, cfg.Vocab, Identity, rng)
	return m
}

// Params returns all trainable parameters, bottom layer first.
func (m *SequenceModel) Params() []*Param {
	var ps []*Param
	for _, l := range m.lstms {
		ps = append(ps, l.Params()...)
	}
	ps = append(ps, m.out.Params()...)
	return ps
}

// oneHotOf converts a token into the sparse input the layer kernels
// consume, clamping unknown templates to the last ("other") class.
func (m *SequenceModel) oneHotOf(tok Token) oneHot {
	id := tok.ID
	if id < 0 || id >= m.cfg.Vocab {
		// Unknown templates map to the last class; the signature tree
		// reserves it for "other".
		id = m.cfg.Vocab - 1
	}
	in := oneHot{id: id, gapCol: -1}
	if m.cfg.UseGap {
		in.gapCol = m.cfg.Vocab
		in.gap = normalizeGap(tok.Gap)
	}
	return in
}

// targetOf clamps a next-token ID into the class space.
func (m *SequenceModel) targetOf(tok Token) int {
	if tok.ID < 0 || tok.ID >= m.cfg.Vocab {
		return m.cfg.Vocab - 1
	}
	return tok.ID
}

// normalizeGap maps a non-negative gap in seconds to roughly [0, 1.5] via
// log scaling; gaps beyond roughly a day saturate.
func normalizeGap(gap float64) float64 {
	if gap < 0 {
		gap = 0
	}
	return math.Log1p(gap) / 8.0
}

// arena returns the model's training arena, building it on first use.
func (m *SequenceModel) arena() *trainArena {
	if m.tr == nil {
		a := &trainArena{}
		for _, l := range m.lstms {
			a.states = append(a.states, l.NewState())
			a.caches = append(a.caches, &LSTMCache{})
		}
		m.tr = a
	}
	return m.tr
}

// TrainWindow performs one BPTT pass over window, predicting window[t+1].ID
// from window[0..t] at every position, accumulates gradients, and returns
// the mean cross-entropy. The caller applies an Optimizer afterwards; this
// split lets trainers batch several windows per optimizer step.
// Windows shorter than 2 tokens contribute nothing and return 0.
//
// The pass is allocation-free after the first call: inputs stay in their
// sparse one-hot form and every intermediate lives in the model's arena.
// Not safe for concurrent use on one model.
func (m *SequenceModel) TrainWindow(window []Token) float64 {
	if len(window) < 2 {
		return 0
	}
	T := len(window) - 1
	a := m.arena()
	// Forward through the LSTM stack, layer by layer, keeping every
	// layer's tape. The bottom layer consumes sparse tokens directly.
	for li := range m.lstms {
		a.states[li].Reset()
		a.caches[li].reset()
	}
	bottom := m.lstms[0]
	for t := 0; t < T; t++ {
		bottom.StepOneHot(m.oneHotOf(window[t]), a.states[0], a.caches[0])
	}
	for li := 1; li < len(m.lstms); li++ {
		l, prev := m.lstms[li], a.caches[li-1]
		for t := 0; t < T; t++ {
			l.Step(prev.steps[t].h, a.states[li], a.caches[li])
		}
	}
	// Output layer + loss per timestep: the logits, their gradient, the
	// bias gradient and ∂loss/∂h step by step; the weight gradient
	// Σₜ dlogitsₜ ⊗ hₜ in one AddOuterSeq afterwards, its terms in
	// increasing t as the per-step updates added them.
	top := a.caches[len(m.lstms)-1]
	a.dlogits = ensureVecs(a.dlogits, T)
	a.hs = ensureVecs(a.hs, T)
	a.dhs = ensureVecs(a.dhs, T)
	a.logits = ensureVec(a.logits, m.cfg.Vocab)
	var total float64
	for t := 0; t < T; t++ {
		h := top.steps[t].h
		a.hs[t] = h
		a.dlogits[t] = ensureVec(a.dlogits[t], m.cfg.Vocab)
		dl := a.dlogits[t]
		total += SoftmaxCrossEntropyInto(dl, m.out.InferInto(a.logits, h), m.targetOf(window[t+1]))
		// Scale so gradients are means over the window.
		dl.ScaleInPlace(1 / float64(T))
		m.out.Bp.Grad.Row(0).AddInPlace(dl)
		a.dhs[t] = ensureVec(a.dhs[t], len(h))
		a.dhs[t].Zero()
		m.out.Wp.W.TransMulVecAdd(a.dhs[t], dl)
	}
	m.out.Wp.Grad.AddOuterSeq(a.dlogits, a.hs)
	// Backward through the LSTM stack, top layer first.
	grads := a.dhs
	for li := len(m.lstms) - 1; li >= 0; li-- {
		grads = m.lstms[li].BackwardSeq(a.caches[li], grads)
	}
	return total / float64(T)
}

// StreamState carries the per-layer recurrent state for online scoring,
// plus the output scratch that makes scoring allocation-free. Each
// concurrent scorer needs its own StreamState.
type StreamState struct {
	layers []*LSTMState
	logits mat.Vector
	logp   mat.Vector
}

// NewStreamState returns a zeroed streaming state.
func (m *SequenceModel) NewStreamState() *StreamState {
	st := &StreamState{layers: make([]*LSTMState, len(m.lstms))}
	for i, l := range m.lstms {
		st.layers[i] = l.NewState()
	}
	return st
}

// StreamSnapshot is the portable form of a StreamState: the per-layer
// hidden and cell vectors, copied out of the live state. It is plain data
// (gob-friendly) so monitors can checkpoint mid-stream scoring state and
// resume bit-identically after a restart.
type StreamSnapshot struct {
	H, C [][]float64
}

// Snapshot copies the recurrent state out of st.
func (st *StreamState) Snapshot() StreamSnapshot {
	snap := StreamSnapshot{
		H: make([][]float64, len(st.layers)),
		C: make([][]float64, len(st.layers)),
	}
	for i, l := range st.layers {
		snap.H[i] = append([]float64(nil), l.H...)
		snap.C[i] = append([]float64(nil), l.C...)
	}
	return snap
}

// RestoreStreamState rebuilds a StreamState from a snapshot taken against a
// model of the same architecture. It validates layer count and widths so a
// checkpoint replayed against a different (e.g. hot-reloaded) model fails
// loudly instead of scoring garbage.
func (m *SequenceModel) RestoreStreamState(snap StreamSnapshot) (*StreamState, error) {
	if len(snap.H) != len(m.lstms) || len(snap.C) != len(m.lstms) {
		return nil, fmt.Errorf("nn: stream snapshot has %d/%d layers, model has %d",
			len(snap.H), len(snap.C), len(m.lstms))
	}
	st := m.NewStreamState()
	for i, l := range m.lstms {
		if len(snap.H[i]) != l.Hidden || len(snap.C[i]) != l.Hidden {
			return nil, fmt.Errorf("nn: stream snapshot layer %d is %dx%d wide, model wants %d",
				i, len(snap.H[i]), len(snap.C[i]), l.Hidden)
		}
		copy(st.layers[i].H, snap.H[i])
		copy(st.layers[i].C, snap.C[i])
	}
	return st, nil
}

// StepLogits feeds one token through the model, advancing st, and returns
// the logits over the next template. The returned vector aliases st's
// scratch and stays valid until the next step on the same state.
func (m *SequenceModel) StepLogits(tok Token, st *StreamState) mat.Vector {
	h := m.lstms[0].StepOneHot(m.oneHotOf(tok), st.layers[0], nil)
	for i := 1; i < len(m.lstms); i++ {
		h = m.lstms[i].Step(h, st.layers[i], nil)
	}
	st.logits = ensureVec(st.logits, m.cfg.Vocab)
	return m.out.InferInto(st.logits, h)
}

// StepLogProbs feeds one token and returns log-probabilities over the next
// template, the quantity thresholded by the anomaly detector. The returned
// vector aliases st's scratch and stays valid until the next step on the
// same state.
func (m *SequenceModel) StepLogProbs(tok Token, st *StreamState) mat.Vector {
	st.logp = ensureVec(st.logp, m.cfg.Vocab)
	return LogSoftmaxInto(st.logp, m.StepLogits(tok, st))
}

// SequenceLogLoss returns the mean next-token negative log-likelihood of
// window under the model (no gradients). Used by validation loops and the
// over-sampling trainer to find poorly modeled normal windows. Safe to
// call concurrently.
func (m *SequenceModel) SequenceLogLoss(window []Token) float64 {
	if len(window) < 2 {
		return 0
	}
	st := m.NewStreamState()
	var total float64
	for t := 0; t < len(window)-1; t++ {
		lp := m.StepLogProbs(window[t], st)
		total -= lp[m.targetOf(window[t+1])]
	}
	return total / float64(len(window)-1)
}

// Clone returns a deep copy of the model: the teacher→student copy step of
// the paper's transfer-learning adaptation (§4.3).
func (m *SequenceModel) Clone() *SequenceModel {
	out := &SequenceModel{cfg: m.cfg}
	for _, l := range m.lstms {
		out.lstms = append(out.lstms, l.clone())
	}
	out.out = m.out.clone()
	return out
}

// Fingerprint returns an FNV-1a hash over the model's configuration and
// every weight's exact bit pattern — a cheap stable identity for "is this
// the same trained model". Two models fingerprint equal iff they have the
// same architecture and bit-identical weights, so the online lifecycle can
// tell generations apart (and prove a rejected candidate left the serving
// model untouched) without diffing whole weight matrices in logs.
func (m *SequenceModel) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	mix(uint64(m.cfg.Vocab))
	for _, w := range m.cfg.Hidden {
		mix(uint64(w))
	}
	if m.cfg.UseGap {
		mix(1)
	}
	for _, p := range m.Params() {
		for _, b := range []byte(p.Name) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		for _, v := range p.W.Data {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// FreezeBottomLayers freezes the lowest n LSTM layers so that fine-tuning
// updates only the top of the network, per §4.3 ("train the student model
// … to fine tune top layers"). n is clamped to the layer count.
func (m *SequenceModel) FreezeBottomLayers(n int) {
	for i, l := range m.lstms {
		frozen := i < n
		for _, p := range l.Params() {
			p.Frozen = frozen
		}
	}
}

// Unfreeze clears all freeze flags.
func (m *SequenceModel) Unfreeze() {
	for _, p := range m.Params() {
		p.Frozen = false
	}
}
