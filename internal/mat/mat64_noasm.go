//go:build !amd64 || purego

package mat

// gemv64 is the portable f64 matvec core, dst[i] += e + o, where e sums
// the even columns' products w[i*cols+j]·x[j] of row i and o the odd
// columns', each in increasing j from +0; an odd last column joins e.
// These are the two lanes of the SSE2 kernel in mat64_amd64.s, and every
// result bit equals that kernel's. Four rows advance together so that no
// row waits on its own adds.
//
// The products are written float64(a*b) on purpose. The Go spec lets a
// compiler fuse x*y + z into one rounding (arm64, ppc64, s390x and riscv64
// do), and an explicit conversion is what forbids it; a fused product
// would drift from the assembly, which never uses FMA.
func gemv64(dst Vector, w []float64, x Vector, rows, cols int) {
	x = x[:cols]
	i := 0
	for ; i+4 <= rows; i += 4 {
		r0 := w[i*cols:][:len(x)]
		r1 := w[(i+1)*cols:][:len(x)]
		r2 := w[(i+2)*cols:][:len(x)]
		r3 := w[(i+3)*cols:][:len(x)]
		var e0, o0, e1, o1, e2, o2, e3, o3 float64
		j := 0
		for ; j+2 <= len(x); j += 2 {
			xe, xo := x[j], x[j+1]
			e0 += float64(r0[j] * xe)
			o0 += float64(r0[j+1] * xo)
			e1 += float64(r1[j] * xe)
			o1 += float64(r1[j+1] * xo)
			e2 += float64(r2[j] * xe)
			o2 += float64(r2[j+1] * xo)
			e3 += float64(r3[j] * xe)
			o3 += float64(r3[j+1] * xo)
		}
		if j < len(x) {
			xe := x[j]
			e0 += float64(r0[j] * xe)
			e1 += float64(r1[j] * xe)
			e2 += float64(r2[j] * xe)
			e3 += float64(r3[j] * xe)
		}
		dst[i] += e0 + o0
		dst[i+1] += e1 + o1
		dst[i+2] += e2 + o2
		dst[i+3] += e3 + o3
	}
	for ; i < rows; i++ {
		r := w[i*cols:][:len(x)]
		var e, o float64
		j := 0
		for ; j+2 <= len(x); j += 2 {
			e += float64(r[j] * x[j])
			o += float64(r[j+1] * x[j+1])
		}
		if j < len(x) {
			e += float64(r[j] * x[j])
		}
		dst[i] += e + o
	}
}
