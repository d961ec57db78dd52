package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The training kernels' oracles are the loops they replaced, one term at
// a time: AddOuter (one rank-1 update per call), transMulVecAddRef (the
// rolled row-by-row axpy) and adamStepRef (the optimizer's element loop,
// then a separate pass that zeroes the gradient). float64(a*b) keeps a
// compiler from fusing a product into an add on targets that would, so
// the oracles mean on every target what the old loops meant on amd64.

// AddOuter sets m = m + a·(u ⊗ v), skipping every row whose a·u[i] is
// zero: the per-step gradient update AddOuterSeq replaced.
func (m *Matrix) AddOuter(a float64, u, v Vector) {
	mustSameLen(m.Rows, len(u), "Matrix.AddOuter rows")
	mustSameLen(m.Cols, len(v), "Matrix.AddOuter cols")
	for i := 0; i < m.Rows; i++ {
		s := a * u[i]
		if s == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			row[j] += float64(s * x)
		}
	}
}

func transMulVecAddRef(m *Matrix, dst, v Vector) {
	for i := 0; i < m.Rows; i++ {
		a := v[i]
		if a == 0 {
			continue
		}
		for j, x := range m.Row(i) {
			dst[j] += float64(a * x)
		}
	}
}

func adamStepRef(w, g, m, v []float64, k AdamCoef) {
	for i := range w {
		gi := g[i]
		m[i] = float64(k.Beta1*m[i]) + float64(k.OneMinusBeta1*gi)
		v[i] = float64(k.Beta2*v[i]) + float64(float64(k.OneMinusBeta2*gi)*gi)
		mHat := m[i] / k.C1
		vHat := v[i] / k.C2
		w[i] -= float64(k.LR*mHat) / (math.Sqrt(vHat) + k.Eps)
	}
	for i := range g {
		g[i] = 0
	}
}

// allSameBits fails unless got and want agree element for element under
// sameBits: bit for bit, NaNs counting as equal whatever their payloads.
func allSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if g, w := got[i], want[i]; !sameBits(g, w) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// fillTrain fills v like fillGemv64 and then sets zeroPct percent of it to
// +0 or −0: the multipliers the kernels must skip.
func fillTrain(rng *rand.Rand, v []float64, specialPct, zeroPct int) {
	fillGemv64(rng, v, specialPct)
	for i := range v {
		if rng.Intn(100) < zeroPct {
			v[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}
}

// checkAddOuterSeq runs AddOuterSeq (the SSE2 kernel with Go tails by
// default, the portable one under purego), the portable body over the
// whole matrix, and one AddOuter per term, on the same operands.
func checkAddOuterSeq(t *testing.T, seed int64, n, rows, cols, specialPct, zeroPct int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	us, vs := make([]Vector, n), make([]Vector, n)
	for k := range us {
		us[k], vs[k] = NewVector(rows), NewVector(cols)
		fillTrain(rng, us[k], specialPct, zeroPct)
		fillTrain(rng, vs[k], specialPct, 0)
	}
	got := NewMatrix(rows, cols)
	fillTrain(rng, got.Data, specialPct, zeroPct) // m is added to, not overwritten
	port, want := NewMatrix(rows, cols), NewMatrix(rows, cols)
	port.CopyFrom(got)
	want.CopyFrom(got)
	got.AddOuterSeq(us, vs)
	addOuterSeqGo(port.Data, cols, us, vs, 0, rows, 0, cols)
	for k := range us {
		want.AddOuter(1, us[k], vs[k])
	}
	allSameBits(t, "AddOuterSeq", got.Data, want.Data)
	allSameBits(t, "addOuterSeqGo", port.Data, want.Data)
}

func checkTransMulVecAdd(t *testing.T, seed int64, rows, cols, specialPct, zeroPct int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	v, got := NewVector(rows), NewVector(cols)
	fillTrain(rng, m.Data, specialPct, 0)
	fillTrain(rng, v, specialPct, zeroPct)
	fillTrain(rng, got, specialPct, zeroPct)
	port, want := got.Clone(), got.Clone()
	m.TransMulVecAdd(got, v)
	transMulVecAddGo(port, m.Data, v, cols, 0)
	transMulVecAddRef(m, want, v)
	allSameBits(t, "TransMulVecAdd", got, want)
	allSameBits(t, "transMulVecAddGo", port, want)
}

// checkAdamStep draws the coefficients as nn.Adam forms them at a random
// step count, or, with specialPct percent chance each, a special value.
func checkAdamStep(t *testing.T, seed int64, n, specialPct int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b1, b2 := 0.9, 0.999
	step := float64(1 + rng.Intn(5000))
	k := AdamCoef{
		Beta1: b1, Beta2: b2, OneMinusBeta1: 1 - b1, OneMinusBeta2: 1 - b2,
		C1: 1 - math.Pow(b1, step), C2: 1 - math.Pow(b2, step),
		LR: math.Ldexp(1+rng.Float64(), -rng.Intn(14)), Eps: 1e-8,
	}
	coef := []*float64{&k.Beta1, &k.Beta2, &k.OneMinusBeta1, &k.OneMinusBeta2, &k.C1, &k.C2, &k.LR, &k.Eps}
	for _, c := range coef {
		if rng.Intn(100) < specialPct {
			*c = gemv64Specials[rng.Intn(len(gemv64Specials))]
		}
	}
	operands := func() (w, g, m, v []float64) {
		w, g, m, v = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for _, s := range [][]float64{w, g, m, v} {
			fillTrain(rng, s, specialPct, specialPct)
		}
		for i := range v {
			v[i] = math.Abs(v[i]) // a second moment; a negative one still reaches √ as a special
			if rng.Intn(100) < specialPct {
				v[i] = -v[i]
			}
		}
		return w, g, m, v
	}
	w, g, m, v := operands()
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
	pw, pg, pm, pv := clone(w), clone(g), clone(m), clone(v)
	rw, rg, rm, rv := clone(w), clone(g), clone(m), clone(v)
	AdamStep(w, g, m, v, k)
	adamStepGo(pw, pg, pm, pv, &k)
	adamStepRef(rw, rg, rm, rv, k)
	for _, c := range []struct {
		what      string
		got, want []float64
	}{
		{"AdamStep w", w, rw}, {"AdamStep g", g, rg}, {"AdamStep m", m, rm}, {"AdamStep v", v, rv},
		{"adamStepGo w", pw, rw}, {"adamStepGo g", pg, rg}, {"adamStepGo m", pm, rm}, {"adamStepGo v", pv, rv},
	} {
		allSameBits(t, c.what, c.got, c.want)
	}
}

// TestAddOuterSeqBitIdentical covers every small shape — each row tail
// (mod 4) and column tail (mod 4 and mod 2) around whole tiles — at T = 0
// through 3, then random shapes and term counts, with no, few and many
// special operands and zero multipliers in turn.
func TestAddOuterSeqBitIdentical(t *testing.T) {
	seed := int64(0)
	check := func(n, rows, cols int) {
		seed++
		pct := []int{0, 3, 25}[seed%3]
		checkAddOuterSeq(t, seed, n, rows, cols, pct, pct)
	}
	for n := 0; n <= 3; n++ {
		for rows := 0; rows <= 9; rows++ {
			for cols := 0; cols <= 9; cols++ {
				check(n, rows, cols)
			}
		}
	}
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 300; i++ {
		check(rng.Intn(30), rng.Intn(140), rng.Intn(90))
	}
	check(23, 128, 32) // the shipped LSTM's Wh and upper Wx, one window
	check(23, 80, 32)  // the shipped output layer
}

// TestTransMulVecAddBitIdentical covers every column tail of the sixteen-
// column blocks (cols 0..40), rows 0..5, and random shapes, with specials
// and zero multipliers as TestAddOuterSeqBitIdentical.
func TestTransMulVecAddBitIdentical(t *testing.T) {
	seed := int64(0)
	check := func(rows, cols int) {
		seed++
		pct := []int{0, 3, 25}[seed%3]
		checkTransMulVecAdd(t, seed, rows, cols, pct, pct)
	}
	for rows := 0; rows <= 5; rows++ {
		for cols := 0; cols <= 40; cols++ {
			check(rows, cols)
		}
	}
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 300; i++ {
		check(rng.Intn(140), rng.Intn(90))
	}
}

// TestAdamStepBitIdentical covers lengths 0..40 (the odd last element
// included) and the shipped model's parameter sizes.
func TestAdamStepBitIdentical(t *testing.T) {
	seed := int64(0)
	for _, n := range append(intsUpTo(40), 128, 2560, 4096, 10368) {
		for _, pct := range []int{0, 3, 25} {
			seed++
			checkAdamStep(t, seed, n, pct)
		}
	}
}

func intsUpTo(n int) []int {
	out := make([]int, n+1)
	for i := range out {
		out[i] = i
	}
	return out
}

// FuzzAddOuterSeq lets the fuzzer pick the term count, shape, operand
// seed and the densities of special values and zero multipliers.
func FuzzAddOuterSeq(f *testing.F) {
	f.Add(int64(1), uint8(23), uint8(128), uint8(32), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(7), uint8(6), uint8(3), uint8(10))
	f.Add(int64(3), uint8(0), uint8(5), uint8(5), uint8(25), uint8(25))
	f.Add(int64(4), uint8(4), uint8(13), uint8(11), uint8(100), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, n, rows, cols, specialPct, zeroPct uint8) {
		checkAddOuterSeq(t, seed, int(n)%33, int(rows)%141, int(cols)%91, int(specialPct)%51, int(zeroPct)%101)
	})
}

func FuzzTransMulVecAdd(f *testing.F) {
	f.Add(int64(1), uint8(128), uint8(32), uint8(0), uint8(0))
	f.Add(int64(2), uint8(80), uint8(32), uint8(3), uint8(10))
	f.Add(int64(3), uint8(13), uint8(35), uint8(25), uint8(25))
	f.Add(int64(4), uint8(1), uint8(0), uint8(100), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, specialPct, zeroPct uint8) {
		checkTransMulVecAdd(t, seed, int(rows)%141, int(cols)%91, int(specialPct)%51, int(zeroPct)%101)
	})
}

func FuzzAdamStep(f *testing.F) {
	f.Add(int64(1), uint16(4096), uint8(0))
	f.Add(int64(2), uint16(81), uint8(3))
	f.Add(int64(3), uint16(1), uint8(25))
	f.Add(int64(4), uint16(0), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, specialPct uint8) {
		checkAdamStep(t, seed, int(n)%10369, int(specialPct)%51)
	})
}
