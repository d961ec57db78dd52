//go:build amd64 && !purego

package mat

// expNeg is the ExpNeg kernel on SSE2, two elements per step: separate
// MULPD and ADDPD, never FMA, so every result bit equals the portable
// kernel in exp64_noasm.go. SSE2 is part of the amd64 baseline, so there
// is no CPU feature detection. The reslice panics on a short operand
// before the assembly, which checks nothing, reads it.
func expNeg(dst, a []float64) {
	if len(dst) == 0 {
		return
	}
	a = a[:len(dst)]
	expNegSSE(&dst[0], &a[0], len(dst))
}

//go:noescape
func expNegSSE(dst, a *float64, n int)
