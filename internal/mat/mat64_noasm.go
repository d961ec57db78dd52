//go:build !amd64 || purego

package mat

// gemv64 is the portable f64 matvec core, dst[i] += Σ_j w[i*cols+j]·x[j].
// Four rows advance together so that no row waits on its own add, while
// each row still sums j = 0..cols-1 strictly in order: every result bit
// equals the rolled scalar loop and the SSE2 kernel in mat64_amd64.s.
//
// The products are written float64(a*b) on purpose. The Go spec lets a
// compiler fuse x*y + z into one rounding (arm64, ppc64, s390x, riscv64
// and GOAMD64=v3 do), and an explicit conversion is what forbids it; a
// fused product would drift from the assembly, which never uses FMA.
func gemv64(dst Vector, w []float64, x Vector, rows, cols int) {
	x = x[:cols]
	i := 0
	for ; i+4 <= rows; i += 4 {
		r0 := w[i*cols:][:len(x)]
		r1 := w[(i+1)*cols:][:len(x)]
		r2 := w[(i+2)*cols:][:len(x)]
		r3 := w[(i+3)*cols:][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
		}
		dst[i] += s0
		dst[i+1] += s1
		dst[i+2] += s2
		dst[i+3] += s3
	}
	for ; i < rows; i++ {
		r := w[i*cols:][:len(x)]
		var s float64
		for j, xj := range x {
			s += float64(r[j] * xj)
		}
		dst[i] += s
	}
}
