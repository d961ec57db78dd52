package nn

import (
	"math"
	"testing"

	"nfvpredict/internal/mat"
)

// The training step as it was before the weight gradients moved to the end
// of the window and the products and the Adam update to mat's SSE2
// kernels: every outer product added as its step is visited, every kernel
// the scalar loop. It is the oracle TestTrainingEqualsPerStepOracle holds
// TrainWindow + Adam.Step to, bit for bit.

// addOuterRef is m += u ⊗ v, skipping the rows whose u[i] is zero.
func addOuterRef(m *mat.Matrix, u, v mat.Vector) {
	for i, s := range u {
		if s == 0 {
			continue
		}
		row := m.Row(i)
		for j, x := range v {
			row[j] += float64(s * x)
		}
	}
}

// transMulVecAddRef is dst += mᵀ·v, skipping the rows whose v[i] is zero.
func transMulVecAddRef(m *mat.Matrix, dst, v mat.Vector) {
	for i, a := range v {
		if a == 0 {
			continue
		}
		for j, x := range m.Row(i) {
			dst[j] += float64(a * x)
		}
	}
}

// backwardSeqPerStep is LSTM.BackwardSeq with the weight gradients added
// step by step, t = T−1 down to 0.
func backwardSeqPerStep(l *LSTM, cache *LSTMCache, dhs []mat.Vector) []mat.Vector {
	H := l.Hidden
	T := len(cache.steps)
	dxs := make([]mat.Vector, T)
	dh, dhNext, dcNext := mat.NewVector(H), mat.NewVector(H), mat.NewVector(H)
	for t := T - 1; t >= 0; t-- {
		s := &cache.steps[t]
		dz := mat.NewVector(4 * H)
		for j := 0; j < H; j++ {
			dh[j] = dhs[t][j] + dhNext[j]
		}
		for j := 0; j < H; j++ {
			do := dh[j] * s.tanhC[j]
			dc := dh[j]*s.o[j]*(1-s.tanhC[j]*s.tanhC[j]) + dcNext[j]
			di, df, dg := dc*s.g[j], dc*s.cPrev[j], dc*s.i[j]
			dcNext[j] = dc * s.f[j]
			dz[j] = di * s.i[j] * (1 - s.i[j])
			dz[H+j] = df * s.f[j] * (1 - s.f[j])
			dz[2*H+j] = dg * (1 - s.g[j]*s.g[j])
			dz[3*H+j] = do * s.o[j] * (1 - s.o[j])
		}
		if s.x != nil {
			addOuterRef(l.Wxp.Grad, dz, s.x)
			dxs[t] = mat.NewVector(l.In)
			transMulVecAddRef(l.Wxp.W, dxs[t], dz)
		} else {
			l.Wxp.Grad.AddOuterOneHot(1, dz, s.in.id)
			if s.in.gapCol >= 0 && s.in.gap != 0 {
				l.Wxp.Grad.AddOuterOneHot(s.in.gap, dz, s.in.gapCol)
			}
		}
		addOuterRef(l.Whp.Grad, dz, s.hPrev)
		l.Bp.Grad.Row(0).AddInPlace(dz)
		dhNext.Zero()
		transMulVecAddRef(l.Whp.W, dhNext, dz)
	}
	return dxs
}

// trainWindowPerStep is TrainWindow on the per-step oracle kernels.
func trainWindowPerStep(m *SequenceModel, window []Token) float64 {
	T := len(window) - 1
	caches := make([]*LSTMCache, len(m.lstms))
	for li, l := range m.lstms {
		st, c := l.NewState(), &LSTMCache{}
		for t := 0; t < T; t++ {
			if li == 0 {
				l.StepOneHot(m.oneHotOf(window[t]), st, c)
			} else {
				l.Step(caches[li-1].steps[t].h, st, c)
			}
		}
		caches[li] = c
	}
	top := caches[len(caches)-1]
	dhs := make([]mat.Vector, T)
	var total float64
	for t := 0; t < T; t++ {
		h := top.steps[t].h
		dl := mat.NewVector(m.cfg.Vocab)
		total += SoftmaxCrossEntropyInto(dl, m.out.Infer(h), m.targetOf(window[t+1]))
		dl.ScaleInPlace(1 / float64(T))
		addOuterRef(m.out.Wp.Grad, dl, h)
		m.out.Bp.Grad.Row(0).AddInPlace(dl)
		dhs[t] = mat.NewVector(len(h))
		transMulVecAddRef(m.out.Wp.W, dhs[t], dl)
	}
	for li := len(m.lstms) - 1; li >= 0; li-- {
		dhs = backwardSeqPerStep(m.lstms[li], caches[li], dhs)
	}
	return total / float64(T)
}

// adamPerStep is Adam.Step's scalar element loop, gradients zeroed after.
type adamPerStep struct {
	t    int
	m, v map[*Param][]float64
}

func (a *adamPerStep) step(params []*Param, lr, clip float64) {
	beta1, beta2, eps := 0.9, 0.999, 1e-8 // float64 variables: 1−β is rounded, as Adam rounds it
	ClipGradNorm(params, clip)
	a.t++
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	for _, p := range params {
		if !p.Frozen {
			if a.m[p] == nil {
				a.m[p], a.v[p] = make([]float64, len(p.W.Data)), make([]float64, len(p.W.Data))
			}
			m, v := a.m[p], a.v[p]
			for i := range p.W.Data {
				g := p.Grad.Data[i]
				m[i] = float64(beta1*m[i]) + float64((1-beta1)*g)
				v[i] = float64(beta2*v[i]) + float64(float64((1-beta2)*g)*g)
				mHat := m[i] / c1
				vHat := v[i] / c2
				p.W.Data[i] -= float64(lr*mHat) / (math.Sqrt(vHat) + eps)
			}
		}
		p.ZeroGrad()
	}
}

// TestTrainingEqualsPerStepOracle trains two copies of a model at the
// shipped shape — whose products are whole SSE2 tiles and blocks, no Go
// tails — window by window: one through TrainWindow and Adam.Step, one
// through the per-step oracle. Losses and every weight must agree bit for
// bit, through a stretch with the bottom layer frozen as Adapt runs it,
// and through windows of other lengths.
func TestTrainingEqualsPerStepOracle(t *testing.T) {
	const lr, clip = 0.003, 5
	got, want := NewSequenceModel(servedShape), NewSequenceModel(servedShape)
	opt, ref := NewAdam(lr, clip), &adamPerStep{m: map[*Param][]float64{}, v: map[*Param][]float64{}}
	wins := trainerWindows(24, servedShape.Vocab, servedWindow, 31)
	wins = append(wins, trainerWindows(4, servedShape.Vocab+3, 7, 32)...) // short, with unknown IDs
	for k, w := range wins {
		frozen := k >= 8 && k < 16
		for _, m := range []*SequenceModel{got, want} {
			if frozen {
				m.FreezeBottomLayers(1)
			} else {
				m.Unfreeze()
			}
		}
		lg, lw := got.TrainWindow(w), trainWindowPerStep(want, w)
		if math.Float64bits(lg) != math.Float64bits(lw) {
			t.Fatalf("window %d: loss %v, per-step oracle %v", k, lg, lw)
		}
		gp, wp := got.Params(), want.Params()
		for i := range gp {
			bitsEqual(t, gp[i].Name+" gradient", gp[i].Grad.Data, wp[i].Grad.Data)
		}
		opt.Step(gp)
		ref.step(wp, lr, clip)
		for i := range gp {
			bitsEqual(t, gp[i].Name, gp[i].W.Data, wp[i].W.Data)
		}
	}
}
