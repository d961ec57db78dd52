//go:build amd64 && !purego

package mat

// gemv64 is the f64 matvec core, dst[i] += Σ_j w[i*cols+j]·x[j], on the
// SSE2 kernel: eight rows advance together so that no row waits on its own
// add, while each row still sums j = 0..cols-1 strictly in order with
// every product rounded before it is added (no FMA). Every result bit
// equals the rolled scalar loop and the portable kernel in mat64_noasm.go.
// SSE2 is part of the amd64 baseline, so there is no CPU feature
// detection. The reslices panic on short operands before the assembly,
// which checks nothing, reads them.
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
