package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The allocating forms below are the tests' reference algebra: nothing
// outside the tests calls them any more, but they build the fixtures and
// are the oracles the in-place kernels (MulVecAdd, TransMulVecAdd, Max,
// SoftmaxInto) are checked against.

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes x to row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// MulVec returns m·v, every row one accumulator in increasing j.
func (m *Matrix) MulVec(v Vector) Vector {
	mustSameLen(m.Cols, len(v), "Matrix.MulVec")
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// TransMulVec returns mᵀ·v. v's length must equal m.Rows.
func (m *Matrix) TransMulVec(v Vector) Vector {
	mustSameLen(m.Rows, len(v), "Matrix.TransMulVec")
	out := make(Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		a := v[i]
		if a == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			out[j] += a * x
		}
	}
	return out
}

// ArgMax returns the index of the largest element of v, the first of equal
// maxima. It panics on an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		panic("mat: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Softmax returns the softmax of v as a new vector.
func Softmax(v Vector) Vector {
	out := make(Vector, len(v))
	if len(v) > 0 {
		SoftmaxInto(out, v)
	}
	return out
}

func TestVectorAddInPlace(t *testing.T) {
	v := Vector{1, 2}
	v.AddInPlace(Vector{10, 20})
	if v[0] != 11 || v[1] != 22 {
		t.Fatalf("AddInPlace: got %v", v)
	}
}

func TestVectorScaleAxpy(t *testing.T) {
	v := Vector{1, -2, 3}
	v.ScaleInPlace(2)
	if v[0] != 2 || v[1] != -4 || v[2] != 6 {
		t.Fatalf("ScaleInPlace: got %v", v)
	}
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot: got %v", v.Dot(v))
	}
	if v.Norm2() != 5 {
		t.Fatalf("Norm2: got %v", v.Norm2())
	}
}

func TestVectorArgMax(t *testing.T) {
	v := Vector{-1, 5, 3, 5}
	if v.ArgMax() != 1 {
		t.Fatalf("ArgMax should return first max index, got %d", v.ArgMax())
	}
	if v.Max() != 5 {
		t.Fatalf("Max: got %v", v.Max())
	}
}

// TestVectorMaxEqualsArgMax pins Max, a running maximum, to the element
// ArgMax selects, bit for bit: a leading NaN stays (nothing compares
// greater than it), a later NaN is skipped, the first of equal maxima
// wins, so -0 before +0 stays -0.
func TestVectorMaxEqualsArgMax(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cases := []Vector{
		{3}, {nan}, {nan, 1, 2}, {1, nan, 2}, {1, 2, nan},
		{negZero, 0}, {0, negZero}, {math.Inf(-1), math.Inf(-1)},
		{-1, math.Inf(1), 5}, {-3, -2, -2, -7},
	}
	rng := rand.New(rand.NewSource(182))
	for i := 0; i < 200; i++ {
		v := make(Vector, 1+rng.Intn(90))
		fillGemv64(rng, v, 10)
		cases = append(cases, v)
	}
	for _, v := range cases {
		got, want := v.Max(), v[v.ArgMax()]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Max(%v) = %v (%#x), v[ArgMax] = %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Max of an empty vector did not panic")
		}
	}()
	Vector{}.Max()
}

func TestVectorArgMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vector{}.ArgMax()
}

func TestVectorMapSumFill(t *testing.T) {
	v := Vector{1, 4, 9}
	if v.Sum() != 14 {
		t.Fatalf("Sum: got %v", v.Sum())
	}
	v.Zero()
	if v.Sum() != 0 {
		t.Fatalf("Zero: got %v", v)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone must not share backing array")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		v := make(Vector, len(raw))
		for i, x := range raw {
			// Clamp to a sane range; quick can generate huge values.
			v[i] = math.Mod(x, 50)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
		p := Softmax(v)
		var sum float64
		for _, x := range p {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	v := Vector{1, 2, 3}
	p1 := Softmax(v)
	p2 := Softmax(Vector{1001, 1002, 1003})
	for i := range p1 {
		if !almostEqual(p1[i], p2[i], 1e-9) {
			t.Fatalf("softmax not shift-invariant: %v vs %v", p1, p2)
		}
	}
}

func TestSoftmaxExtremeValues(t *testing.T) {
	p := Softmax(Vector{-1e300, 0, 1e300})
	if math.IsNaN(p[0]) || math.IsNaN(p[2]) {
		t.Fatalf("softmax produced NaN: %v", p)
	}
	if !almostEqual(p[2], 1, 1e-9) {
		t.Fatalf("expected all mass on max element, got %v", p)
	}
}

func TestLogSumExp(t *testing.T) {
	v := Vector{math.Log(1), math.Log(2), math.Log(3)}
	if !almostEqual(LogSumExp(v), math.Log(6), 1e-9) {
		t.Fatalf("LogSumExp: got %v want %v", LogSumExp(v), math.Log(6))
	}
	if !math.IsInf(LogSumExp(Vector{}), -1) {
		t.Fatal("LogSumExp of empty should be -Inf")
	}
}

// A maximum of −0 with a later +0 makes a difference of −0, whose sign
// ExpNeg would carry onto the term: the family must read both zeros as 0.
func TestSoftmaxSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		v   Vector
		lse float64
	}{
		{Vector{negZero, 0}, math.Log(2)},
		{Vector{0, negZero}, math.Log(2)},
		{Vector{negZero, -1, 0}, math.Log(2 + math.Exp(-1))},
		{Vector{negZero, negZero}, math.Log(2)},
	} {
		if got := LogSumExp(c.v); !almostEqual(got, c.lse, 1e-12) {
			t.Errorf("LogSumExp(%v) = %v, want %v", c.v, got, c.lse)
		}
		p := make(Vector, len(c.v))
		lse := SoftmaxInto(p, c.v)
		if !almostEqual(lse, c.lse, 1e-12) {
			t.Errorf("SoftmaxInto(%v) returned %v, want %v", c.v, lse, c.lse)
		}
		for i, x := range c.v {
			if want := math.Exp(x - c.lse); !almostEqual(p[i], want, 1e-12) {
				t.Errorf("SoftmaxInto(%v) = %v, want p[%d] = %v", c.v, p, i, want)
			}
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatalf("At/Set broken: %v", m.Data)
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias backing array")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows: %+v", m)
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Fatal("FromRows(nil) should be 0x0")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	out := m.MulVec(Vector{1, 1})
	want := Vector{3, 7, 11}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MulVec: got %v want %v", out, want)
		}
	}
}

func TestMulVecAdd(t *testing.T) {
	m := FromRows([][]float64{{1, 0}, {0, 1}})
	dst := Vector{10, 20}
	m.MulVecAdd(dst, Vector{1, 2})
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("MulVecAdd: got %v", dst)
	}
}

// The sparse one-hot kernels must agree with MulVecAdd on a materialized
// one-hot vector — bit for bit, since the training path relies on exact
// equivalence between the sparse and dense forms.
func TestColGatherAddMatchesOneHotMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 2+rng.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		bias := NewVector(rows)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		j1, j2 := rng.Intn(cols), rng.Intn(cols)
		for j2 == j1 {
			j2 = rng.Intn(cols)
		}
		a2 := rng.NormFloat64()

		x := NewVector(cols)
		x[j1] = 1
		want := bias.Clone()
		m.MulVecAdd(want, x)
		got := bias.Clone()
		m.ColGatherAdd(got, j1, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ColGatherAdd: got %v want %v", got, want)
			}
		}

		x[j2] = a2
		want = bias.Clone()
		m.MulVecAdd(want, x)
		got = bias.Clone()
		m.Col2GatherAdd(got, j1, 1, j2, a2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Col2GatherAdd: got %v want %v", got, want)
			}
		}
	}
}

func TestAddOuterOneHotMatchesAddOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows, cols := 5, 7
	a, b := NewMatrix(rows, cols), NewMatrix(rows, cols)
	u := NewVector(rows)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	j := 3
	onehot := NewVector(cols)
	onehot[j] = 1
	a.AddOuter(2.5, u, onehot)
	b.AddOuterOneHot(2.5, u, j)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("AddOuterOneHot: %v vs %v", a.Data, b.Data)
		}
	}
}

func TestTransMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	out := m.TransMulVec(Vector{1, 1, 1})
	if out[0] != 9 || out[1] != 12 {
		t.Fatalf("TransMulVec: got %v", out)
	}
	dst := Vector{1, 1}
	m.TransMulVecAdd(dst, Vector{1, 0, 0})
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("TransMulVecAdd: got %v", dst)
	}
}

// TransMulVec must agree with explicitly transposing then multiplying.
func TestTransMulVecMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		m.XavierInit(rng)
		v := NewVector(rows)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		got := m.TransMulVec(v)
		// Explicit transpose.
		tr := NewMatrix(cols, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				tr.Set(j, i, m.At(i, j))
			}
		}
		want := tr.MulVec(v)
		for j := range want {
			if !almostEqual(got[j], want[j], 1e-12) {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, Vector{1, 3}, Vector{4, 5})
	// m[i][j] = 2*u[i]*v[j]
	if m.At(0, 0) != 8 || m.At(0, 1) != 10 || m.At(1, 0) != 24 || m.At(1, 1) != 30 {
		t.Fatalf("AddOuter: %v", m.Data)
	}
	// Two terms, one rank-1 each: m[i][j] += u[i]*v[j] + u'[i]*v'[j].
	m.Zero()
	m.AddOuterSeq([]Vector{{1, 3}, {2, 0}}, []Vector{{4, 5}, {1, -1}})
	if m.At(0, 0) != 6 || m.At(0, 1) != 3 || m.At(1, 0) != 12 || m.At(1, 1) != 15 {
		t.Fatalf("AddOuterSeq: %v", m.Data)
	}
}

func TestScale(t *testing.T) {
	m := FromRows([][]float64{{2, 3}})
	m.Scale(2)
	if m.At(0, 0) != 4 || m.At(0, 1) != 6 {
		t.Fatalf("Scale: %v", m.Data)
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(10, 20)
	m.XavierInit(rng)
	r := math.Sqrt(6.0 / 30.0)
	var nonZero int
	for _, x := range m.Data {
		if math.Abs(x) > r {
			t.Fatalf("Xavier value %v outside ±%v", x, r)
		}
		if x != 0 {
			nonZero++
		}
	}
	if nonZero < len(m.Data)/2 {
		t.Fatal("Xavier init suspiciously sparse")
	}
}

func TestHeInitVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(200, 100)
	m.HeInit(rng)
	var sum, sumSq float64
	for _, x := range m.Data {
		sum += x
		sumSq += x * x
	}
	n := float64(len(m.Data))
	mean := sum / n
	variance := sumSq/n - mean*mean
	want := 2.0 / 100.0
	if math.Abs(variance-want) > want*0.2 {
		t.Fatalf("He variance %v, want ~%v", variance, want)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Vector{1}.AddInPlace(Vector{1, 2}) },
		func() { Vector{1}.Dot(Vector{1, 2}) },
		func() { NewMatrix(2, 2).MulVec(Vector{1}) },
		func() { NewMatrix(2, 2).TransMulVec(Vector{1}) },
		func() { NewMatrix(2, 2).TransMulVecAdd(Vector{1, 2}, Vector{1}) },
		func() { NewMatrix(2, 2).AddOuterSeq([]Vector{{1, 2}}, []Vector{{1}}) },
		func() { NewMatrix(2, 2).AddOuterSeq([]Vector{{1}}, []Vector{{1, 2}}) },
		func() { NewMatrix(2, 2).AddOuterSeq([]Vector{{1, 2}}, nil) },
		func() {
			AdamStep(make([]float64, 2), make([]float64, 2), make([]float64, 1), make([]float64, 2), AdamCoef{})
		},
		func() { NewMatrix(2, 2).CopyFrom(NewMatrix(2, 3)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDotCommutes(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 || n > 32 {
			return true
		}
		v, w := make(Vector, n), make(Vector, n)
		for i := 0; i < n; i++ {
			v[i], w[i] = math.Mod(a[i], 1e3), math.Mod(b[i], 1e3)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
		}
		return almostEqual(v.Dot(w), w.Dot(v), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(256, 256)
	m.XavierInit(rng)
	v := NewVector(256)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	dst := NewVector(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		m.MulVecAdd(dst, v)
	}
}

func BenchmarkSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := NewVector(512)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(v)
	}
}
