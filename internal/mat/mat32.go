// Reduced-precision serving kernels: a float32 mirror of the float64
// matvec family plus an int8 row-quantized layout, used by the quantized
// inference engine in internal/nn.
//
// These kernels serve a different contract than the float64 ones. The f64
// kernels are bit-compatibility-bound: training, checkpoints, and the
// batched scoring path all promise results identical to the naive rolled
// loop, which forces a single sequential accumulator per row (gemv64 hides
// the add latency by advancing several rows together, never by splitting
// a row's sum). The serving-path quantized engine only promises bounded
// error against the f64 reference (the warning decision thresholds a
// log-probability; it does not need exact bits), so the f32 kernels are
// free to reorder the summation: wide register blocking on the portable
// path, 4-wide SSE with four vector accumulators on amd64
// (mat32_amd64.s).
//
// What IS promised: one fixed summation schedule per platform, shared by
// the single-stream and batched kernels. MulMatAdd32 evaluates each lane
// with exactly the schedule MulVecAdd32 uses, so batched quantized scoring
// is bit-identical to sequential quantized scoring — the same invariant
// the shard workers' wave scheduling relies on at f64. (Unlike the f64
// kernels, quantized results may differ in final bits across
// architectures; the calibration tests bound quantized-vs-f64 drift
// dynamically, so they hold on every platform.)
package mat

import "math"

// Vector32 is a dense float32 vector.
type Vector32 []float32

// NewVector32 returns a zero vector of length n.
func NewVector32(n int) Vector32 { return make(Vector32, n) }

// FromF64 narrows src into v (lengths must match).
func (v Vector32) FromF64(src Vector) {
	mustSameLen(len(v), len(src), "Vector32.FromF64")
	for i, x := range src {
		v[i] = float32(x)
	}
}

// Matrix32 is a dense row-major float32 matrix: the packed serving form of
// a float64 Matrix, built once at engine-pack time.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix32 returns a zero matrix with the given shape.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// PackMatrix32 narrows m into a freshly allocated Matrix32.
func PackMatrix32(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = float32(x)
	}
	return out
}

// Row returns row i sharing the matrix's backing array.
func (m *Matrix32) Row(i int) Vector32 { return Vector32(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Bytes returns the packed weight footprint in bytes.
func (m *Matrix32) Bytes() int { return 4 * len(m.Data) }

// Dot32 is the portable reference dot product and the schedule the
// non-amd64 kernels use: four scalar accumulators over 4-element blocks
// (accumulator k consumes offsets j+k), combined as (s0+s1)+(s2+s3), with
// the tail folded into s0 sequentially. On amd64 the matvec kernels use
// the SSE schedule in mat32_amd64.s instead; within one platform every
// f32 kernel shares a single schedule.
func Dot32(row, v []float32) float32 {
	n := len(row)
	_ = v[n-1]
	var s0, s1, s2, s3 float32
	j := 0
	for ; j+4 <= n; j += 4 {
		s0 += row[j] * v[j]
		s1 += row[j+1] * v[j+1]
		s2 += row[j+2] * v[j+2]
		s3 += row[j+3] * v[j+3]
	}
	for ; j < n; j++ {
		s0 += row[j] * v[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// MulVecAdd32 sets dst = dst + m·v without allocating.
func (m *Matrix32) MulVecAdd32(dst, v Vector32) {
	mustSameLen(m.Cols, len(v), "Matrix32.MulVecAdd32 input")
	mustSameLen(m.Rows, len(dst), "Matrix32.MulVecAdd32 output")
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	gemv32(dst, m.Data, v, m.Rows, m.Cols)
}

// MulMatAdd32 sets dst[b][i] += Σ_j m[i][j]·x[b][j] for every lane b — the
// batched float32 GEMM of the quantized serving path. dst is [B×Rows], x
// is [B×Cols]. Per-lane arithmetic is bit-identical to MulVecAdd32: both
// route every (row, lane) pair through the platform's gemv kernel.
func (m *Matrix32) MulMatAdd32(dst, x *Matrix32) {
	mustSameLen(m.Cols, x.Cols, "Matrix32.MulMatAdd32 input cols")
	mustSameLen(m.Rows, dst.Cols, "Matrix32.MulMatAdd32 output cols")
	mustSameLen(x.Rows, dst.Rows, "Matrix32.MulMatAdd32 lanes")
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	n := m.Cols
	for b := 0; b < x.Rows; b++ {
		gemv32(dst.Row(b), m.Data, x.Data[b*n:b*n+n], m.Rows, n)
	}
}

// ColGatherAdd32 sets dst[i] += a * m[i][j]: the sparse one-hot input
// product, mirroring Matrix.ColGatherAdd.
func (m *Matrix32) ColGatherAdd32(dst Vector32, j int, a float32) {
	mustSameLen(m.Rows, len(dst), "Matrix32.ColGatherAdd32 output")
	if j < 0 || j >= m.Cols {
		panic("mat: ColGatherAdd32 column out of range")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] += a * m.Data[i*m.Cols+j]
	}
}

// Col2GatherAdd32 sets dst[i] += a1*m[i][j1] + a2*m[i][j2], the two-column
// gather for a one-hot-plus-gap input, mirroring Matrix.Col2GatherAdd.
func (m *Matrix32) Col2GatherAdd32(dst Vector32, j1 int, a1 float32, j2 int, a2 float32) {
	mustSameLen(m.Rows, len(dst), "Matrix32.Col2GatherAdd32 output")
	if j1 < 0 || j1 >= m.Cols || j2 < 0 || j2 >= m.Cols {
		panic("mat: Col2GatherAdd32 column out of range")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols:]
		dst[i] += a1*row[j1] + a2*row[j2]
	}
}

// MatrixI8 is a row-quantized int8 matrix: each row of the source float64
// matrix is affine-quantized with its own scale and zero point, so one
// badly scaled row (LSTM gate blocks have very different weight ranges)
// cannot destroy the resolution of the others. The represented value is
//
//	real[i][j] ≈ Scale[i] * (Data[i][j] - Zero[i])
//
// RowSum caches Σ_j Data[i][j] so the zero-point correction of a matvec
// costs one multiply per row instead of a second pass over the data.
type MatrixI8 struct {
	Rows, Cols int
	Data       []int8 // row-major quantized weights
	Scale      []float32
	Zero       []int32
	RowSum     []int32
}

// i8Lim is the symmetric quantized range limit. ±127 (not -128) keeps the
// code point space symmetric so negating a quantized value stays in range.
const i8Lim = 127

// QuantizeMatrixI8 builds the int8 row-quantized form of m.
func QuantizeMatrixI8(m *Matrix) *MatrixI8 {
	q := &MatrixI8{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Data:   make([]int8, m.Rows*m.Cols),
		Scale:  make([]float32, m.Rows),
		Zero:   make([]int32, m.Rows),
		RowSum: make([]int32, m.Rows),
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		lo, hi := 0.0, 0.0 // include 0 so the zero point is representable
		for _, x := range row {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		scale := (hi - lo) / (2 * i8Lim)
		var zero int32
		if scale == 0 {
			scale = 1 // all-zero row: any scale represents it exactly
		} else {
			zero = int32(math.Round(-i8Lim - lo/scale))
		}
		q.Scale[i] = float32(scale)
		q.Zero[i] = zero
		var sum int32
		for j, x := range row {
			v := int32(math.Round(x/scale)) + zero
			if v > i8Lim {
				v = i8Lim
			}
			if v < -i8Lim {
				v = -i8Lim
			}
			q.Data[i*m.Cols+j] = int8(v)
			sum += v
		}
		q.RowSum[i] = sum
	}
	return q
}

// Dequantize reconstructs the float64 matrix the quantized form
// represents, used by round-trip tests and error-budget analysis.
func (q *MatrixI8) Dequantize() *Matrix {
	out := NewMatrix(q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		s, z := float64(q.Scale[i]), float64(q.Zero[i])
		for j := 0; j < q.Cols; j++ {
			out.Data[i*q.Cols+j] = s * (float64(q.Data[i*q.Cols+j]) - z)
		}
	}
	return out
}

// Bytes returns the packed weight footprint in bytes (data + per-row
// metadata).
func (q *MatrixI8) Bytes() int { return len(q.Data) + 12*q.Rows }

// QuantizeVecI8 symmetrically quantizes v into dst (same length) and
// returns the scale (real ≈ scale·q) and the sum of the quantized codes,
// the per-input half of the int8 matvec. An all-zero input returns scale 0
// and an all-zero dst, which MulVecAddI8 treats as an exact zero product.
func QuantizeVecI8(dst []int8, v Vector32) (scale float32, sum int32) {
	mustSameLen(len(dst), len(v), "QuantizeVecI8")
	var maxAbs float32
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > maxAbs {
			maxAbs = x
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0, 0
	}
	scale = maxAbs / i8Lim
	inv := i8Lim / maxAbs
	for i, x := range v {
		q := int32(math.Round(float64(x * inv)))
		if q > i8Lim {
			q = i8Lim
		}
		if q < -i8Lim {
			q = -i8Lim
		}
		dst[i] = int8(q)
		sum += q
	}
	return scale, sum
}

// dotI8 is the portable int8 dot product with int32 accumulation. Integer
// arithmetic is exact, so the amd64 PMADDWD kernel produces identical
// results despite its different evaluation order.
func dotI8(row, x []int8) int32 {
	var s int32
	_ = x[len(row)-1]
	for j, r := range row {
		s += int32(r) * int32(x[j])
	}
	return s
}

// dequantI8 converts an integer dot product into the real-valued
// contribution: Scale_i·xScale·(dotq − Zero_i·Σxq). Shared by the single
// and batched kernels so both produce identical bits.
func dequantI8(scale, xScale float32, dotq, zero, xSum int32) float32 {
	return (scale * xScale) * float32(dotq-zero*xSum)
}

// ensureI32 returns scratch resliced to n, reallocating when too small.
func ensureI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// MulVecAddI8 sets dst[i] += Scale[i]·xScale·Σ_j (Data[i][j]−Zero[i])·xq[j]
// — the quantized matvec with i32 accumulation and a cached-row-sum
// zero-point correction. xq/xScale/xSum come from QuantizeVecI8. dots is
// caller scratch of length ≥ Rows for the integer dot products; pass nil
// to allocate (hot paths reuse a scratch to stay allocation-free).
func (q *MatrixI8) MulVecAddI8(dst Vector32, xq []int8, xScale float32, xSum int32, dots []int32) {
	mustSameLen(q.Cols, len(xq), "MatrixI8.MulVecAddI8 input")
	mustSameLen(q.Rows, len(dst), "MatrixI8.MulVecAddI8 output")
	if xScale == 0 || q.Cols == 0 || q.Rows == 0 {
		return // exact zero input ⇒ exact zero product
	}
	dots = ensureI32(dots, q.Rows)
	dotsI8(dots, q.Data, xq, q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		dst[i] += dequantI8(q.Scale[i], xScale, dots[i], q.Zero[i], xSum)
	}
}

// MulMatAddI8 is the batched int8 GEMM: dst[b][i] += the quantized product
// of weight row i against lane b of xq ([B×Cols] row-major), with per-lane
// scales and code sums from QuantizeVecI8. dots is scratch as in
// MulVecAddI8. Per-lane arithmetic is bit-identical to MulVecAddI8.
func (q *MatrixI8) MulMatAddI8(dst *Matrix32, xq []int8, scales []float32, sums []int32, dots []int32) {
	B := dst.Rows
	mustSameLen(q.Rows, dst.Cols, "MatrixI8.MulMatAddI8 output cols")
	mustSameLen(B*q.Cols, len(xq), "MatrixI8.MulMatAddI8 input")
	mustSameLen(B, len(scales), "MatrixI8.MulMatAddI8 scales")
	mustSameLen(B, len(sums), "MatrixI8.MulMatAddI8 sums")
	if q.Cols == 0 || q.Rows == 0 {
		return
	}
	n := q.Cols
	dots = ensureI32(dots, q.Rows)
	for b := 0; b < B; b++ {
		if scales[b] == 0 {
			continue
		}
		dotsI8(dots, q.Data, xq[b*n:b*n+n], q.Rows, n)
		out := dst.Row(b)
		for i := 0; i < q.Rows; i++ {
			out[i] += dequantI8(q.Scale[i], scales[b], dots[i], q.Zero[i], sums[b])
		}
	}
}
