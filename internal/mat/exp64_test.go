package mat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// expNegRef is the oracle of the ExpNeg kernels: the algorithm stated at
// ExpNeg, one element at a time, one rounded operation per line.
// float64(a*b) forbids the compiler from fusing a product into the add
// after it on targets that would.
func expNegRef(v float64) float64 {
	sign := math.Float64bits(v) & (1 << 63)
	a := math.Abs(v)
	if a > expNegMax { // false for NaN, which then runs through every step
		a = expNegMax
	}
	t := float64(a * expNegInv)
	t += expMagic
	kf := t - expMagic
	k := int64(kf) // |k| < 2^17
	if kf != kf {
		k = 0 // any table entry and exponent do: q is NaN
	}
	r := float64(kf * expNegHi)
	r -= a
	r += float64(kf * expNegLo)
	r2 := float64(r * r)
	lo := float64(expC3 * r)
	lo += expC2
	hi := float64(expC5 * r)
	hi += expC4
	q := float64(hi * r2)
	q += lo
	q = float64(q * r2)
	q += r
	j, e := k&63, k>>6 // k = 64e + j, 0 ≤ j < 64
	tj := math.Ldexp(exp2Table[j], int(e))
	y := float64(tj * q)
	y += tj
	return math.Float64frombits(math.Float64bits(y) | sign)
}

// expNegSpecials are the inputs at and beyond the edges of the domain:
// both zeros, the smallest and largest denormals, the last values before
// the clamp, the clamp itself, values past it, +Inf, NaNs, and negative
// operands, whose sign bit must be carried and whose magnitude is used.
var expNegSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	707.9, math.Nextafter(708, 0), 708, math.Nextafter(708, 1e9), 709, 745.2, 1e9, math.MaxFloat64,
	math.Inf(1), math.NaN(),
	math.Float64frombits(0x7ff800000001e240), math.Float64frombits(0x7ff0000000000001), // NaNs with k's bits set; signalling
	-1e-310, -0.25, -3, -708, -1e9, math.Inf(-1), -math.NaN(),
}

// fillExpNeg fills v with operands spread over the whole domain — an
// exponential deviate times 2^k, k in [-40, 9], so every table entry and
// every exponent down to the clamp is reached — of which specialPct
// percent are replaced by a special value.
func fillExpNeg(rng *rand.Rand, v []float64, specialPct int) {
	for i := range v {
		v[i] = math.Ldexp(rng.ExpFloat64(), rng.Intn(50)-40)
		if rng.Intn(100) < specialPct {
			v[i] = expNegSpecials[rng.Intn(len(expNegSpecials))]
		}
	}
}

// sameBits reports whether got and want are the same float64, any two
// NaNs counting as the same.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (got != got && want != want)
}

// checkExpNeg runs the built kernel (the SSE2 one by default, the portable
// one under -tags purego or off amd64) out of place and in place on n
// random operands and compares every result bit with the oracle.
func checkExpNeg(t *testing.T, seed int64, n, specialPct int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := make(Vector, n)
	fillExpNeg(rng, a, specialPct)
	in := a.Clone()
	got := make(Vector, n)
	ExpNeg(got, a)
	for i := range a {
		if !sameBits(a[i], in[i]) {
			t.Fatalf("seed %d, n %d: input %d was overwritten", seed, n, i)
		}
		if want := expNegRef(a[i]); !sameBits(got[i], want) {
			t.Fatalf("seed %d, n %d: ExpNeg(%v)[%d] = %v (%#x), want %v (%#x)",
				seed, n, a[i], i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	ExpNeg(a, a)
	for i := range a {
		if !sameBits(a[i], got[i]) {
			t.Fatalf("seed %d, n %d: in place [%d] = %v, out of place %v", seed, n, i, a[i], got[i])
		}
	}
}

// TestExpNegBitIdentical covers every length 0..33 — so the pair loop, the
// odd last element and the empty call are hit — and random lengths up to
// 4096, 3.7 M operands in all (the same polynomial in Horner's order moves
// about one result in a million), with no, few and many special operands
// in turn. `go test -tags
// purego` runs the same inputs over the portable kernel, which ties both
// kernels to one oracle.
func TestExpNegBitIdentical(t *testing.T) {
	seed := int64(0)
	check := func(n int) {
		for _, pct := range []int{0, 5, 40} {
			seed++
			checkExpNeg(t, seed, n, pct)
		}
	}
	for n := 0; n <= 33; n++ {
		check(n)
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 600; i++ {
		check(rng.Intn(4097))
	}
}

// TestExpNegDomain pins what ExpNeg documents at and outside the edges of
// its domain, on every special operand by name.
func TestExpNegDomain(t *testing.T) {
	got := make(Vector, len(expNegSpecials))
	ExpNeg(got, expNegSpecials)
	floor := math.Exp(-708)
	if floor > math.Ldexp(1, -1021) || floor < math.Ldexp(1, -1022) {
		t.Fatalf("the clamp value %v is not a normal number below 2^-1021", floor)
	}
	for i, a := range expNegSpecials {
		y := got[i]
		switch {
		case a != a:
			if y == y {
				t.Errorf("ExpNeg(NaN) = %v, want NaN", y)
			}
			continue
		case math.Signbit(y) != math.Signbit(a):
			t.Errorf("ExpNeg(%v) = %v: sign bit not carried", a, y)
		case math.Abs(a) >= 708:
			if math.Abs(y) != floor {
				t.Errorf("ExpNeg(%v) = %v, want ±%v", a, y, floor)
			}
		case math.Abs(a) < 1e-300:
			if math.Abs(y) != 1 {
				t.Errorf("ExpNeg(%v) = %v, want ±1", a, y)
			}
		}
		if y = math.Abs(y); y > 1 || y < floor {
			t.Errorf("ExpNeg(%v) = %v, outside [e^-708, 1]", a, y)
		}
	}
}

// ulpsApart is the distance between two positive normal numbers in units
// of the last place.
func ulpsApart(x, y float64) int64 {
	d := int64(math.Float64bits(x)) - int64(math.Float64bits(y))
	if d < 0 {
		d = -d
	}
	return d
}

// TestExpNegULP is the kernel's numeric contract: at most 4 ulp from
// math.Exp on 2 M points of [0, 708] — a uniform sweep, which is mostly
// large arguments, and a log-uniform one, which is mostly gate-sized.
func TestExpNegULP(t *testing.T) {
	const n, block = 1 << 20, 1 << 10
	rng := rand.New(rand.NewSource(17))
	a, got := make(Vector, block), make(Vector, block)
	var worst int64
	var worstAt float64
	for done := 0; done < 2*n; done += block {
		for i := range a {
			if done < n {
				a[i] = 708 * rng.Float64()
			} else {
				a[i] = 708 * math.Exp2(-40*rng.Float64())
			}
		}
		ExpNeg(got, a)
		for i, y := range got {
			if d := ulpsApart(y, math.Exp(-a[i])); d > worst {
				worst, worstAt = d, a[i]
			}
		}
	}
	t.Logf("worst: %d ulp at a = %v", worst, worstAt)
	if worst > 4 {
		t.Fatalf("ExpNeg(%v) is %d ulp from math.Exp, contract is 4", worstAt, worst)
	}
}

// TestExp2Table recomputes 2^(j/64) at 200 bits — six square roots of 2,
// then repeated products — and requires the table to be its rounding.
func TestExp2Table(t *testing.T) {
	root := new(big.Float).SetPrec(200).SetInt64(2)
	for i := 0; i < 6; i++ {
		root.Sqrt(root)
	}
	p := new(big.Float).SetPrec(200).SetInt64(1)
	for j, got := range exp2Table {
		if want, _ := p.Float64(); got != want {
			t.Errorf("exp2Table[%d] = %x, want %x", j, got, want)
		}
		p.Mul(p, root)
	}
}

// TestExpNegShortOperandsPanic pins that ExpNeg refuses operands of
// different lengths, and that the kernel under it refuses a short one by
// itself instead of reading past it.
func TestExpNegShortOperandsPanic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dst, a int
		call   func(dst, a Vector)
	}{
		{"ExpNeg dst", 6, 7, ExpNeg},
		{"ExpNeg a", 7, 6, ExpNeg},
		{"expNeg a", 7, 6, func(dst, a Vector) { expNeg(dst, a) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("short %s did not panic", tc.name)
				}
			}()
			tc.call(make(Vector, tc.dst), make(Vector, tc.a))
		}()
	}
}

// FuzzExpNeg lets the fuzzer pick one operand outright — placed among
// random ones, so it lands in either lane and in the odd tail — plus the
// length, the seed and the density of special values. Every result must
// equal the oracle's bits, and the picked operand, when inside the
// domain, must also meet the ulp contract.
func FuzzExpNeg(f *testing.F) {
	f.Add(0.0, int64(1), uint8(128), uint8(0))
	f.Add(707.99, int64(2), uint8(80), uint8(5))
	f.Add(math.Inf(1), int64(3), uint8(33), uint8(40))
	f.Add(-2.5, int64(4), uint8(1), uint8(100))
	f.Add(math.NaN(), int64(5), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, x float64, seed int64, n, specialPct uint8) {
		checkExpNeg(t, seed, int(n), int(specialPct)%101)
		a := make(Vector, int(n)+1)
		fillExpNeg(rand.New(rand.NewSource(seed)), a, 0)
		at := int(uint64(seed) % uint64(len(a)))
		a[at] = x
		ExpNeg(a, a)
		if want := expNegRef(x); !sameBits(a[at], want) {
			t.Fatalf("ExpNeg(%v) at %d of %d = %v, want %v", x, at, len(a), a[at], want)
		}
		if !math.Signbit(x) && x <= 708 {
			if d := ulpsApart(a[at], math.Exp(-x)); d > 4 {
				t.Fatalf("ExpNeg(%v) is %d ulp from math.Exp", x, d)
			}
		}
	})
}

func BenchmarkExpNeg128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, dst := make(Vector, 128), make(Vector, 128)
	for i := range a {
		a[i] = 4 * rng.ExpFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpNeg(dst, a)
	}
}
