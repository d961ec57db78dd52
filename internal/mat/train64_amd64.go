//go:build amd64 && !purego

package mat

// The training kernels on amd64: SSE2 assembly (train64_amd64.s) over the
// part of the operand its blocks cover, and the portable bodies in
// train64.go over the tails. Each assembly kernel follows its Go
// definition's element order with packed MULPD/ADDPD/SUBPD/DIVPD/SQRTPD,
// which round every lane as the scalar instruction does, so every result
// bit equals the portable kernel's. SSE2 is the amd64 baseline: no CPU
// feature detection. The callers have checked every length the assembly
// reads, which it does not check again.

// addOuterSeq runs 4×4 tiles of m over all T terms in assembly, then the
// rows below the last whole tile and the columns right of it in Go.
func addOuterSeq(m *Matrix, us, vs []Vector) {
	rows, cols := m.Rows&^3, m.Cols&^3
	if len(us) > 0 && rows > 0 && cols > 0 {
		addOuterSeqSSE(&m.Data[0], &us[0], &vs[0], len(us), rows, cols, m.Cols)
	}
	addOuterSeqGo(m.Data, m.Cols, us, vs, rows, m.Rows, 0, m.Cols)
	addOuterSeqGo(m.Data, m.Cols, us, vs, 0, rows, cols, m.Cols)
}

// transMulVecAdd runs blocks of sixteen dst columns over all rows in
// assembly and the last cols mod 16 columns in Go.
func transMulVecAdd(dst Vector, w []float64, v Vector, cols int) {
	blocked := cols &^ 15
	if len(v) > 0 && blocked > 0 {
		transMulVecAddSSE(&dst[0], &w[0], &v[0], len(v), blocked, cols)
	}
	transMulVecAddGo(dst, w, v, cols, blocked)
}

// adamStep runs element pairs in assembly and an odd last element in Go.
func adamStep(w, g, m, v []float64, k *AdamCoef) {
	pairs := len(w) &^ 1
	if pairs > 0 {
		adamStepSSE(&w[0], &g[0], &m[0], &v[0], pairs,
			k.Beta1, k.Beta2, k.OneMinusBeta1, k.OneMinusBeta2, k.C1, k.C2, k.LR, k.Eps)
	}
	adamStepGo(w[pairs:], g[pairs:], m[pairs:], v[pairs:], k)
}

//go:noescape
func addOuterSeqSSE(dst *float64, us, vs *Vector, n, rows, cols, stride int)

//go:noescape
func transMulVecAddSSE(dst, w, v *float64, rows, cols, stride int)

//go:noescape
func adamStepSSE(w, grad, m, v *float64, n int, beta1, beta2, omb1, omb2, c1, c2, lr, eps float64)
