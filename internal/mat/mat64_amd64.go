//go:build amd64 && !purego

package mat

// gemv64 is the f64 matvec core, dst[i] += e + o, on the SSE2 kernel: e
// sums the even columns' products w[i*cols+j]·x[j] of row i and o the odd
// columns', each in increasing j from +0 with every product rounded
// before it is added (no FMA); an odd last column joins e. The two sums
// are the two lanes of one register, and eight rows advance together so
// that no row waits on its own adds. Every result bit equals the portable
// kernel in mat64_noasm.go. SSE2 is part of the amd64 baseline, so there
// is no CPU feature detection. The reslices panic on short operands before
// the assembly, which checks nothing, reads them.
func gemv64(dst Vector, w []float64, x Vector, rows, cols int) {
	if rows == 0 {
		return
	}
	dst, w, x = dst[:rows], w[:rows*cols], x[:cols]
	var wp, xp *float64 // never dereferenced when cols == 0
	if cols > 0 {
		wp, xp = &w[0], &x[0]
	}
	gemv64SSE(&dst[0], wp, xp, rows, cols)
}

//go:noescape
func gemv64SSE(dst, w, x *float64, rows, cols int)
