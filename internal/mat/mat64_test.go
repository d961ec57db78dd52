package mat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// gemv64Ref is the oracle of the f64 matvec core, written as the contract
// reads and not as either kernel loops: one row at a time, the row's
// rounded products dealt into an even-column and an odd-column slice
// (an odd last column is an even one), each slice summed in order from +0,
// and dst[i] += e + o. float64(a*b) forbids the compiler from fusing a
// product into an add on targets that would.
func gemv64Ref(dst, w, x []float64, rows, cols int) {
	sum := func(p []float64) float64 {
		var s float64
		for _, v := range p {
			s += v
		}
		return s
	}
	var even, odd []float64
	for i := 0; i < rows; i++ {
		even, odd = even[:0], odd[:0]
		for j := 0; j < cols; j++ {
			p := float64(w[i*cols+j] * x[j])
			if j%2 == 0 {
				even = append(even, p)
			} else {
				odd = append(odd, p)
			}
		}
		dst[i] += sum(even) + sum(odd)
	}
}

// gemv64Seq is the core's previous definition — one accumulator per row,
// j = 0..cols-1 in order — kept as the yardstick the two-accumulator
// order's accuracy is measured against (TestGemv64ErrorBound).
func gemv64Seq(dst, w, x []float64, rows, cols int) {
	for i := 0; i < rows; i++ {
		var s float64
		for j := 0; j < cols; j++ {
			s += float64(w[i*cols+j] * x[j])
		}
		dst[i] += s
	}
}

// gemv64Specials are the operands that expose a wrong order, a fused
// product or a stray lane: signed zeros, the smallest and largest
// denormals, infinities, NaN and the largest finite values.
var gemv64Specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest denormal
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64,
}

// fillGemv64 fills v with normal deviates, of which specialPct percent are
// replaced by a special value and another specialPct percent are scaled by
// 2^k, k in [-540, 540], so sums cancel, overflow and go denormal.
func fillGemv64(rng *rand.Rand, v []float64, specialPct int) {
	for i := range v {
		v[i] = rng.NormFloat64()
		switch p := rng.Intn(100); {
		case p < specialPct:
			v[i] = gemv64Specials[rng.Intn(len(gemv64Specials))]
		case p < 2*specialPct:
			v[i] = math.Ldexp(v[i], rng.Intn(1081)-540)
		}
	}
}

// checkGemv64 runs the built kernel (the SSE2 one by default, the portable
// one under -tags purego or off amd64) and the oracle on the same random
// operands and compares every dst bit; NaNs compare equal as NaNs, since
// which operand's payload survives is the hardware's choice.
func checkGemv64(t *testing.T, seed int64, rows, cols, specialPct int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, rows*cols)
	x := make([]float64, cols)
	got := make([]float64, rows)
	fillGemv64(rng, w, specialPct)
	fillGemv64(rng, x, specialPct)
	fillGemv64(rng, got, specialPct) // dst is added to, not overwritten
	want := append([]float64(nil), got...)
	gemv64(got, w, x, rows, cols)
	gemv64Ref(want, w, x, rows, cols)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("seed %d, %dx%d, %d%% specials: row %d = %v (%#x), want %v (%#x)",
				seed, rows, cols, specialPct, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGemv64BitIdentical covers every small shape — so every row tail (8-
// and 1-row blocks; 4 and 1 on the portable kernel), the odd last column
// and cols == 0 are hit — and random shapes up to 200×100, with no,
// few and many special operands in turn. `go test -tags purego` runs the
// same shapes over the portable kernel, which ties both kernels to one
// oracle.
func TestGemv64BitIdentical(t *testing.T) {
	seed := int64(0)
	check := func(rows, cols int) {
		seed++
		checkGemv64(t, seed, rows, cols, []int{0, 3, 25}[seed%3])
	}
	for rows := 0; rows <= 26; rows++ {
		for cols := 0; cols <= 17; cols++ {
			check(rows, cols)
		}
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 600; i++ {
		check(1+rng.Intn(200), rng.Intn(101))
	}
}

// TestGemv64ErrorBound measures the two-accumulator order against the
// exact dot product (math/big, wide enough that nothing rounds) instead of
// taking its accuracy on trust. Each of ⌈cols/2⌉ products passes through
// its own rounding, at most ⌈cols/2⌉−1 adds of its partial sum and the
// final e + o, so the error of one row is within
// (⌈cols/2⌉+1)·2⁻⁵³·Σ|w·x| — about half the sequential loop's cols·2⁻⁵³ —
// on normal rows and on rows built to cancel to ≈1e-9 of Σ|w·x| alike.
// And over normal data its RMS error is no larger than the sequential
// order's (gemv64Seq), the order it replaced.
func TestGemv64ErrorBound(t *testing.T) {
	const rows = 48 // the first half normal, the second half cancelling
	// relErr is |got − Σ w·x| / Σ|w·x| for each got, with the dot product,
	// the subtraction and Σ|w·x| all exact in big: only the final
	// conversions round, so the reference adds no error of its own.
	relErr := func(w, x []float64, got ...float64) []float64 {
		wide := func() *big.Float { return new(big.Float).SetPrec(2048) }
		dot, abs, p := wide(), wide(), wide()
		for j := range x {
			p.Mul(big.NewFloat(w[j]), big.NewFloat(x[j]))
			dot.Add(dot, p)
			abs.Add(abs, p.Abs(p))
		}
		out := make([]float64, len(got))
		for k, g := range got {
			d := wide().Sub(big.NewFloat(g), dot)
			out[k], _ = d.Quo(d.Abs(d), abs).Float64()
		}
		return out
	}
	rng := rand.New(rand.NewSource(53))
	var sqTwo, sqSeq float64
	var n int
	worst := 0.0
	for cols := 1; cols <= 100; cols++ {
		w := make([]float64, rows*cols)
		x := make([]float64, cols)
		for j := range x {
			x[j] = math.Ldexp(rng.NormFloat64(), rng.Intn(61)-30)
		}
		for i := 0; i < rows; i++ {
			r := w[i*cols : (i+1)*cols]
			for j := range r {
				r[j] = rng.NormFloat64()
				if i >= rows/2 {
					r[j] = math.Ldexp(r[j], rng.Intn(61)-30)
					if j%2 == 1 { // cancel the previous column's product
						r[j] = -r[j-1] * x[j-1] / x[j] * (1 + 1e-9*rng.NormFloat64())
					}
				}
			}
		}
		two, seq := make([]float64, rows), make([]float64, rows)
		gemv64(two, w, x, rows, cols)
		gemv64Seq(seq, w, x, rows, cols)
		bound := float64((cols+1)/2+1) * 0x1p-53
		for i := 0; i < rows; i++ {
			e := relErr(w[i*cols:(i+1)*cols], x, two[i], seq[i])
			eTwo, eSeq := e[0], e[1]
			if eTwo > bound {
				t.Fatalf("cols %d row %d: error %.3g·Σ|w·x| exceeds (⌈cols/2⌉+1)·2⁻⁵³ = %.3g", cols, i, eTwo, bound)
			}
			worst = math.Max(worst, eTwo/bound)
			if i < rows/2 {
				sqTwo += eTwo * eTwo
				sqSeq += eSeq * eSeq
				n++
			}
		}
	}
	rmsTwo, rmsSeq := math.Sqrt(sqTwo/float64(n)), math.Sqrt(sqSeq/float64(n))
	t.Logf("worst error %.2f of the bound; RMS error on normal rows %.3g (two accumulators) vs %.3g (sequential), in units of Σ|w·x|", worst, rmsTwo, rmsSeq)
	if rmsTwo > rmsSeq {
		t.Fatalf("two-accumulator RMS error %.3g exceeds the sequential order's %.3g", rmsTwo, rmsSeq)
	}
}

// TestGemv64ShortOperandsPanic pins that the kernel refuses operands
// shorter than the shape it is given instead of reading past them.
func TestGemv64ShortOperandsPanic(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dst, w, x  int
		rows, cols int
	}{
		{"dst", 7, 8 * 3, 3, 8, 3},
		{"w", 8, 8*3 - 1, 3, 8, 3},
		{"x", 8, 8 * 3, 2, 8, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("short %s did not panic", tc.name)
				}
			}()
			gemv64(make([]float64, tc.dst), make([]float64, tc.w), make([]float64, tc.x), tc.rows, tc.cols)
		}()
	}
}

// FuzzGemv64 lets the fuzzer pick the shape, the operand seed and the
// density of special values; the seeds are the served shapes (128×32,
// 80×32), an all-tails shape and a zero-column one.
func FuzzGemv64(f *testing.F) {
	f.Add(int64(1), uint8(128), uint8(32), uint8(0))
	f.Add(int64(2), uint8(80), uint8(32), uint8(3))
	f.Add(int64(3), uint8(13), uint8(7), uint8(25))
	f.Add(int64(4), uint8(1), uint8(0), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, specialPct uint8) {
		checkGemv64(t, seed, int(rows)%201, int(cols)%101, int(specialPct)%51)
	})
}
