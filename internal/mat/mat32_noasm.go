//go:build !amd64 || purego

package mat

// gemv32 is the portable f32 matvec core: dst[i] += Dot32(w row i, x).
// Dot32's 4-accumulator schedule is the platform summation schedule.
func gemv32(dst Vector32, w []float32, x Vector32, rows, cols int) {
	for i := 0; i < rows; i++ {
		dst[i] += Dot32(w[i*cols:i*cols+cols], x)
	}
}

// dotsI8 computes dots[i] = Σ_j w[i][j]·x[j] with int32 accumulation for
// every row of the [rows×cols] int8 matrix w.
func dotsI8(dots []int32, w, x []int8, rows, cols int) {
	for i := 0; i < rows; i++ {
		dots[i] = dotI8(w[i*cols:i*cols+cols], x)
	}
}
