//go:build amd64 && !purego

package mat

// gemv32 dispatches the f32 matvec core to the SSE2 kernel: four 4-wide
// vector accumulators per row (16 floats in flight), reduced in a fixed
// order, with a sequential scalar tail. SSE2 is part of the amd64
// baseline, so no CPU feature detection is needed. Callers guarantee
// rows > 0 and cols > 0.
func gemv32(dst Vector32, w []float32, x Vector32, rows, cols int) {
	gemv32SSE(&dst[0], &w[0], &x[0], rows, cols)
}

// dotsI8 dispatches the int8 row-dot core to the SSE2 kernel, which
// sign-extends 16 codes at a time and multiply-accumulates them pairwise
// into int32 lanes via PMADDWD. Integer arithmetic is exact, so results
// are identical to the portable loop. Callers guarantee rows > 0 and
// cols > 0.
func dotsI8(dots []int32, w, x []int8, rows, cols int) {
	dotsI8SSE(&dots[0], &w[0], &x[0], rows, cols)
}

//go:noescape
func gemv32SSE(dst, w, x *float32, rows, cols int)

//go:noescape
func dotsI8SSE(dots *int32, w, x *int8, rows, cols int)
