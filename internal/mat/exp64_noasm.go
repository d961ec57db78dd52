//go:build !amd64 || purego

package mat

import "math"

// expNeg is the portable ExpNeg kernel: the steps of exp64_amd64.s one
// element at a time, in the same order, and every result bit equals the
// assembly's. The products are written float64(a*b) for the reason given
// at gemv64: the conversion is what forbids a compiler that has FMA from
// fusing a product into the add after it, and the assembly never fuses.
func expNeg(dst, a []float64) {
	const signBit = 1 << 63
	a = a[:len(dst)]
	for i, v := range a {
		sign := math.Float64bits(v) & signBit
		x := math.Float64frombits(math.Float64bits(v) &^ signBit)
		if expNegMax < x { // false for NaN, as in MINPD
			x = expNegMax
		}
		t := float64(x*expNegInv) + expMagic
		k := math.Float64bits(t) // the low 52 bits of 1.5·2^52 are zero: these are k's
		kf := t - expMagic
		r := (float64(kf*expNegHi) - x) + float64(kf*expNegLo)
		r2 := float64(r * r)
		lo := float64(expC3*r) + expC2
		hi := float64(expC5*r) + expC4
		q := float64((float64(hi*r2)+lo)*r2) + r
		// T[k mod 64]·2^⌊k/64⌋ by an integer add: T is never NaN, and a
		// NaN input reaches the result through q.
		tj := math.Float64frombits(math.Float64bits(exp2Table[k&63]) + k>>6<<52)
		y := float64(tj*q) + tj
		dst[i] = math.Float64frombits(math.Float64bits(y) | sign)
	}
}
