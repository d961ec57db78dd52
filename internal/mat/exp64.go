package mat

// ExpNeg sets dst[i] = e^(−a[i]) for a[i] ≥ 0: the one exponential under
// every LSTM gate and every softmax in this repository. dst may be a
// itself; any other overlap is the caller's bug. It panics when the two
// lengths differ.
//
// The contract is numeric, not libm's bits. Every result is within 4 ulp
// of math.Exp(−a[i]) (TestExpNegULP; ≈1 ulp measured), and the SSE2
// kernel and the portable one return the same bits for every input
// (TestExpNegBitIdentical), because both run one algorithm in one
// association with every product rounded before it is added:
//
//	k = round(−a·64/ln2)                          by adding and subtracting 1.5·2^52
//	r = (k·(−hi) − a) + k·(−lo)                   ln2/64 = hi + lo, and k·hi is exact
//	q = ((c5·r + c4)·r² + (c3·r + c2))·r² + r     ≈ e^r − 1 on |r| ≤ ln2/128
//	e^(−a) = t·q + t,  t = T[j]·2^e               k = 64e + j, T[j] = 2^(j/64)
//
// and 2^e is applied by adding e to T[j]'s exponent field.
//
// Outside the domain: a[i] ≥ 708, +Inf included, is read as 708 and gives
// e^−708 ≈ 3.3e−308 — below 2^−1021 and still a normal number, so the
// exponent add never meets a denormal — instead of underflowing to 0; NaN
// gives NaN. The sign bit of a[i] is not part of
// the magnitude and is carried to dst[i] unchanged: a caller holding a
// signed z can take e^(−|z|) in place and still read z's sign off the
// result, which is positive by itself.
func ExpNeg(dst, a Vector) {
	mustSameLen(len(dst), len(a), "ExpNeg")
	expNeg(dst, a)
}

// The operands of ExpNeg. They are variables, not constants, so that the
// assembly loads the very words the portable kernel multiplies by; nothing
// writes them.
var (
	expNegMax = 708.0                  // larger inputs are read as this
	expNegInv = -0x1.71547652b82fep+6  // −64/ln2
	expMagic  = 0x1.8p+52              // 1.5·2^52: adding it leaves round(x) in the low bits
	expNegHi  = -0x1.62e42feep-7       // −(ln2/64 cut to 32 bits): k·hi is exact for |k| < 2^21
	expNegLo  = -0x1.a39ef35793c76p-39 // −(ln2/64 − hi)
	expC2     = 0x1p-1                 // 1/2!
	expC3     = 0x1.5555555555555p-3   // 1/3!
	expC4     = 0x1.5555555555555p-5   // 1/4!
	expC5     = 0x1.1111111111111p-7   // 1/5!; the first dropped term, r⁶/6!, is below 2^−54

	// exp2Table[j] is 2^(j/64) rounded to nearest (TestExp2Table recomputes
	// it with math/big).
	exp2Table = [64]float64{
		0x1.0000000000000p+0, 0x1.02c9a3e778061p+0, 0x1.059b0d3158574p+0, 0x1.0874518759bc8p+0,
		0x1.0b5586cf9890fp+0, 0x1.0e3ec32d3d1a2p+0, 0x1.11301d0125b51p+0, 0x1.1429aaea92de0p+0,
		0x1.172b83c7d517bp+0, 0x1.1a35beb6fcb75p+0, 0x1.1d4873168b9aap+0, 0x1.2063b88628cd6p+0,
		0x1.2387a6e756238p+0, 0x1.26b4565e27cddp+0, 0x1.29e9df51fdee1p+0, 0x1.2d285a6e4030bp+0,
		0x1.306fe0a31b715p+0, 0x1.33c08b26416ffp+0, 0x1.371a7373aa9cbp+0, 0x1.3a7db34e59ff7p+0,
		0x1.3dea64c123422p+0, 0x1.4160a21f72e2ap+0, 0x1.44e086061892dp+0, 0x1.486a2b5c13cd0p+0,
		0x1.4bfdad5362a27p+0, 0x1.4f9b2769d2ca7p+0, 0x1.5342b569d4f82p+0, 0x1.56f4736b527dap+0,
		0x1.5ab07dd485429p+0, 0x1.5e76f15ad2148p+0, 0x1.6247eb03a5585p+0, 0x1.6623882552225p+0,
		0x1.6a09e667f3bcdp+0, 0x1.6dfb23c651a2fp+0, 0x1.71f75e8ec5f74p+0, 0x1.75feb564267c9p+0,
		0x1.7a11473eb0187p+0, 0x1.7e2f336cf4e62p+0, 0x1.82589994cce13p+0, 0x1.868d99b4492edp+0,
		0x1.8ace5422aa0dbp+0, 0x1.8f1ae99157736p+0, 0x1.93737b0cdc5e5p+0, 0x1.97d829fde4e50p+0,
		0x1.9c49182a3f090p+0, 0x1.a0c667b5de565p+0, 0x1.a5503b23e255dp+0, 0x1.a9e6b5579fdbfp+0,
		0x1.ae89f995ad3adp+0, 0x1.b33a2b84f15fbp+0, 0x1.b7f76f2fb5e47p+0, 0x1.bcc1e904bc1d2p+0,
		0x1.c199bdd85529cp+0, 0x1.c67f12e57d14bp+0, 0x1.cb720dcef9069p+0, 0x1.d072d4a07897cp+0,
		0x1.d5818dcfba487p+0, 0x1.da9e603db3285p+0, 0x1.dfc97337b9b5fp+0, 0x1.e502ee78b3ff6p+0,
		0x1.ea4afa2a490dap+0, 0x1.efa1bee615a27p+0, 0x1.f50765b6e4540p+0, 0x1.fa7c1819e90d8p+0,
	}
)
