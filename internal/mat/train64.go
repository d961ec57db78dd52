package mat

import "math"

// The training kernels' portable bodies: the whole kernel under
// !amd64 || purego, and the row and column tails the SSE2 kernels in
// train64_amd64.s leave on amd64. Each writes the element order its
// method's doc comment defines, so every result bit equals the assembly's.
// Products are written float64(a*b) for the reason gemv64's are: the
// conversion forbids a compiler from fusing the product into the add.

// addOuterSeqGo adds Σₜ us[t][i]·vs[t][j] into the rows [r0, r1) and
// columns [c0, c1) of the row-major, cols-wide dst, one rounded product at
// a time in increasing t, skipping every term whose us[t][i] is zero. Four
// columns of a row are held in locals across all T terms.
func addOuterSeqGo(dst []float64, cols int, us, vs []Vector, r0, r1, c0, c1 int) {
	for i := r0; i < r1; i++ {
		row := dst[i*cols : (i+1)*cols]
		j := c0
		for ; j+4 <= c1; j += 4 {
			d := row[j : j+4 : j+4]
			a0, a1, a2, a3 := d[0], d[1], d[2], d[3]
			for t, u := range us {
				s := u[i]
				if s == 0 {
					continue
				}
				v := vs[t][j : j+4 : j+4]
				a0 += float64(s * v[0])
				a1 += float64(s * v[1])
				a2 += float64(s * v[2])
				a3 += float64(s * v[3])
			}
			d[0], d[1], d[2], d[3] = a0, a1, a2, a3
		}
		for ; j < c1; j++ {
			a := row[j]
			for t, u := range us {
				if s := u[i]; s != 0 {
					a += float64(s * vs[t][j])
				}
			}
			row[j] = a
		}
	}
}

// transMulVecAddGo adds Σᵢ v[i]·w[i*cols+j] into dst[j] for every j from
// c0 on, one rounded product at a time in increasing i, skipping every row
// whose v[i] is zero. Four columns of dst are held in locals across all
// rows.
func transMulVecAddGo(dst Vector, w []float64, v Vector, cols, c0 int) {
	j := c0
	for ; j+4 <= len(dst); j += 4 {
		d := dst[j : j+4 : j+4]
		a0, a1, a2, a3 := d[0], d[1], d[2], d[3]
		for i, a := range v {
			if a == 0 {
				continue
			}
			r := w[i*cols+j : i*cols+j+4 : i*cols+j+4]
			a0 += float64(a * r[0])
			a1 += float64(a * r[1])
			a2 += float64(a * r[2])
			a3 += float64(a * r[3])
		}
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	}
	for ; j < len(dst); j++ {
		s := dst[j]
		for i, a := range v {
			if a != 0 {
				s += float64(a * w[i*cols+j])
			}
		}
		dst[j] = s
	}
}

// AdamCoef holds the scalars of one Adam step: the moment decays β₁ and
// β₂, their complements 1−β₁ and 1−β₂, the bias corrections c₁ = 1−β₁ᵗ and
// c₂ = 1−β₂ᵗ, the learning rate and the denominator's ε.
type AdamCoef struct {
	Beta1, Beta2, OneMinusBeta1, OneMinusBeta2, C1, C2, LR, Eps float64
}

// AdamStep applies one Adam update to every element i of the parallel
// slices w (weights), g (gradient), m and v (the moments), and zeroes g[i]
// in the same pass:
//
//	m[i] = β₁·m[i] + (1−β₁)·g[i]
//	v[i] = β₂·v[i] + ((1−β₂)·g[i])·g[i]
//	w[i] = w[i] − (LR·(m[i]/c₁)) / (√(v[i]/c₂) + ε)
//
// Every operation is one IEEE rounding in exactly that association (no
// FMA, no reciprocal in place of a division), so the SSE2 kernel, which
// runs two elements per instruction, and the portable loop agree bit for
// bit. g, m and v must be as long as w.
func AdamStep(w, g, m, v []float64, k AdamCoef) {
	mustSameLen(len(w), len(g), "AdamStep gradient")
	mustSameLen(len(w), len(m), "AdamStep first moment")
	mustSameLen(len(w), len(v), "AdamStep second moment")
	adamStep(w, g, m, v, &k)
}

// adamStepGo is AdamStep's portable loop.
func adamStepGo(w, g, m, v []float64, k *AdamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		gi := g[i]
		mi := float64(k.Beta1*m[i]) + float64(k.OneMinusBeta1*gi)
		vi := float64(k.Beta2*v[i]) + float64(float64(k.OneMinusBeta2*gi)*gi)
		m[i], v[i], g[i] = mi, vi, 0
		w[i] -= float64(k.LR*(mi/k.C1)) / (math.Sqrt(vi/k.C2) + k.Eps)
	}
}
