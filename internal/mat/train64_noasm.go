//go:build !amd64 || purego

package mat

// The training kernels off amd64 (or under purego): the portable bodies in
// train64.go over the whole operand.

func addOuterSeq(m *Matrix, us, vs []Vector) {
	addOuterSeqGo(m.Data, m.Cols, us, vs, 0, m.Rows, 0, m.Cols)
}

func transMulVecAdd(dst Vector, w []float64, v Vector, cols int) {
	transMulVecAddGo(dst, w, v, cols, 0)
}

func adamStep(w, g, m, v []float64, k *AdamCoef) { adamStepGo(w, g, m, v, k) }
