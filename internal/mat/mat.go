// Package mat provides the small dense linear-algebra kernel used by the
// neural-network, clustering and SVM substrates in this repository.
//
// The package is deliberately minimal: float64 vectors and row-major
// matrices with the handful of operations a from-scratch LSTM needs —
// matrix-vector products, outer products, element-wise maps, numerically
// stable softmax / log-sum-exp, and Xavier/He initialization. There is no
// BLAS dependency; everything is written against plain slices so the module
// builds offline with the standard library only.
//
// All operations that could silently corrupt results on shape mismatch
// panic instead: shape errors are programmer errors, not runtime conditions
// a caller should handle.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0 in place.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// AddInPlace sets v = v + w.
func (v Vector) AddInPlace(w Vector) {
	mustSameLen(len(v), len(w), "Vector.AddInPlace")
	for i := range v {
		v[i] += w[i]
	}
}

// ScaleInPlace sets v = a*v.
func (v Vector) ScaleInPlace(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Dot returns the inner product <v, w>.
func (v Vector) Dot(w Vector) float64 {
	mustSameLen(len(v), len(w), "Vector.Dot")
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for i := range v {
		s += v[i]
	}
	return s
}

// Max returns the largest element of v, v[v.ArgMax()], as a running
// maximum: no index to carry and no reload per comparison. It panics on
// an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("mat: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// SoftmaxInto writes the softmax of v (non-empty) into dst, which may be
// v itself, and returns LogSumExp(v) — the same bits, from the same terms
// summed in the same order — so a caller that needs both pays for one set
// of exponentials.
func SoftmaxInto(dst, v Vector) (lse float64) {
	mustSameLen(len(dst), len(v), "SoftmaxInto")
	m := v.Max()
	sum := addExpNeg(0, dst, v, m)
	for i := range dst {
		dst[i] /= sum
	}
	return m + math.Log(sum)
}

// LogSumExp returns log(Σ exp(v_i)) computed stably. The terms are taken
// a stack buffer at a time, so the call needs no scratch from its caller.
func LogSumExp(v Vector) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v.Max()
	var buf [128]float64
	var sum float64
	for rest := v; len(rest) > 0; {
		n := min(len(rest), len(buf))
		sum = addExpNeg(sum, buf[:n], rest[:n], m)
		rest = rest[n:]
	}
	return m + math.Log(sum)
}

// addExpNeg sets dst[i] = e^−(m − v[i]) through ExpNeg and returns sum
// plus those terms, added one at a time in index order: the one place the
// softmax family's sum is formed. dst may be v. m is v's maximum, so m − x
// is never below zero, but it can be −0 (a maximum of −0 less a +0), and
// ExpNeg carries the sign bit onto its result: the absolute value keeps
// that term at +1.
func addExpNeg(sum float64, dst, v Vector, m float64) float64 {
	for i, x := range v {
		dst[i] = math.Abs(m - x)
	}
	ExpNeg(dst, dst)
	for _, e := range dst {
		sum += e
	}
	return sum
}

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a Vector sharing the matrix's backing array.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Zero sets every element of m to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies the contents of src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// MulVecAdd sets dst = dst + m·v without allocating. dst's length must equal
// m.Rows; v's length must equal m.Cols.
//
// Every dst[i] receives e + o, the sums of row i's even-column and
// odd-column products, each taken in increasing j from +0 with every
// product rounded before it is added. That order is the definition, so
// every result bit is the same on the SSE2 kernel and the portable one
// (see gemv64); it is not the bits of the plain rolled loop.
func (m *Matrix) MulVecAdd(dst, v Vector) {
	mustSameLen(m.Cols, len(v), "Matrix.MulVecAdd input")
	mustSameLen(m.Rows, len(dst), "Matrix.MulVecAdd output")
	gemv64(dst, m.Data, v, m.Rows, m.Cols)
}

// TransMulVecAdd sets dst = dst + mᵀ·v without allocating.
//
// Every dst[j] receives one add per nonzero v[i], the rounded product
// v[i]·m[i][j], in increasing i: the bits of the plain row-by-row axpy
// loop. Rows whose v[i] is zero (either sign) are skipped, not added as a
// zero product. The SSE2 kernel holds sixteen columns of dst in registers
// across all rows; the portable one holds four.
func (m *Matrix) TransMulVecAdd(dst, v Vector) {
	mustSameLen(m.Rows, len(v), "Matrix.TransMulVecAdd input")
	mustSameLen(m.Cols, len(dst), "Matrix.TransMulVecAdd output")
	transMulVecAdd(dst, m.Data, v, m.Cols)
}

// ColGatherAdd sets dst = dst + a * m[:,j], i.e. dst[i] += a * m[i][j].
// It is the sparse form of MulVec for a one-hot input: when x is zero
// except x[j] = a, m·x is exactly a gather of column j scaled by a, so the
// O(Rows·Cols) product collapses to O(Rows).
func (m *Matrix) ColGatherAdd(dst Vector, j int, a float64) {
	mustSameLen(m.Rows, len(dst), "Matrix.ColGatherAdd output")
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: ColGatherAdd column %d out of range [0,%d)", j, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] += a * m.Data[i*m.Cols+j]
	}
}

// Col2GatherAdd sets dst[i] += a1*m[i][j1] + a2*m[i][j2], the two-column
// gather for a one-hot-plus-scalar input (template one-hot + time gap).
// The two terms are summed before being added to dst, reproducing the
// floating-point association of a dense MulVecAdd over the same sparse
// vector bit for bit.
func (m *Matrix) Col2GatherAdd(dst Vector, j1 int, a1 float64, j2 int, a2 float64) {
	mustSameLen(m.Rows, len(dst), "Matrix.Col2GatherAdd output")
	if j1 < 0 || j1 >= m.Cols || j2 < 0 || j2 >= m.Cols {
		panic(fmt.Sprintf("mat: Col2GatherAdd columns %d,%d out of range [0,%d)", j1, j2, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols:]
		dst[i] += a1*row[j1] + a2*row[j2]
	}
}

// AddOuterOneHot sets m[i][j] += a * u[i] for every i: the outer-product
// gradient update m += (a·u) ⊗ onehot(j) touching only column j. This is
// the sparse form of a rank-1 AddOuterSeq when v is one-hot, turning the
// O(Rows·Cols) update into O(Rows).
func (m *Matrix) AddOuterOneHot(a float64, u Vector, j int) {
	mustSameLen(m.Rows, len(u), "Matrix.AddOuterOneHot rows")
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: AddOuterOneHot column %d out of range [0,%d)", j, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] += a * u[i]
	}
}

// AddOuterSeq sets m = m + Σₜ us[t] ⊗ vs[t], the weight gradient of a
// whole sequence in one call: every us[t] is m.Rows long and every vs[t]
// m.Cols long.
//
// Every m[i][j] receives one add per term whose us[t][i] is nonzero, the
// rounded product us[t][i]·vs[t][j], in increasing t: the bits of T
// rank-1 updates made one after the other, in slice order. Terms whose
// us[t][i] is zero (either sign) are skipped, not added as a zero product.
// A caller that wants the terms in another order passes the slices in
// that order. T = 1 is the rank-1 update. The SSE2 kernel holds a 4×4
// tile of m in registers across all T terms.
func (m *Matrix) AddOuterSeq(us, vs []Vector) {
	mustSameLen(len(us), len(vs), "Matrix.AddOuterSeq terms")
	for t := range us {
		mustSameLen(m.Rows, len(us[t]), "Matrix.AddOuterSeq rows")
		mustSameLen(m.Cols, len(vs[t]), "Matrix.AddOuterSeq cols")
	}
	addOuterSeq(m, us, vs)
}

// Scale multiplies every element of m by a in place.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// XavierInit fills m with samples from U(-r, r) where r = sqrt(6/(in+out)),
// the Glorot uniform initializer. fanIn/fanOut default to Cols/Rows.
func (m *Matrix) XavierInit(rng *rand.Rand) {
	r := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * r
	}
}

// HeInit fills m with samples from N(0, sqrt(2/fanIn)), the He-normal
// initializer appropriate for ReLU layers.
func (m *Matrix) HeInit(rng *rand.Rand) {
	sd := math.Sqrt(2.0 / float64(m.Cols))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * sd
	}
}

func mustSameLen(a, b int, op string) {
	if a != b {
		panic(fmt.Sprintf("mat: %s length mismatch: %d vs %d", op, a, b))
	}
}
