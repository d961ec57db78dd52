package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestMulVecAddBitIdentical pins MulVecAdd to the two-partial-sum oracle
// (gemv64Ref) across column tails (cols 1..9 plus larger shapes) and a
// row count that leaves a row tail. Bit identity, not tolerance: row
// blocking must not change any row's summation order.
func TestMulVecAddBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 128} {
		m := randMatrix(rng, 17, cols)
		v := randVector(rng, cols)
		got := randVector(rng, 17) // nonzero dst: the += must also agree
		want := got.Clone()
		m.MulVecAdd(got, v)
		gemv64Ref(want, m.Data, v, m.Rows, m.Cols)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("cols=%d row %d: %v != %v", cols, i, got[i], want[i])
			}
		}
	}
}

// TestTransMulVecAddUnrollBitIdentical checks the transposed kernel against
// a rolled reference across tail lengths, including zero entries in v
// (which the kernel skips).
func TestTransMulVecAddUnrollBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, cols := range []int{1, 3, 4, 7, 8, 33} {
		m := randMatrix(rng, 12, cols)
		v := randVector(rng, 12)
		v[3], v[7] = 0, 0
		got := randVector(rng, cols)
		want := got.Clone()
		m.TransMulVecAdd(got, v)
		for i := 0; i < m.Rows; i++ {
			a := v[i]
			if a == 0 {
				continue
			}
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, x := range row {
				want[j] += a * x
			}
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("cols=%d col %d: %v != %v", cols, j, got[j], want[j])
			}
		}
	}
}

// servedShapes are the dense f64 products of one served step at
// detect.DefaultLSTMConfig (32×32, vocab 80): the gate product 4H×H and
// the output projection V×H.
var servedShapes = []struct {
	name       string
	rows, cols int
}{{"128x32", 128, 32}, {"80x32", 80, 32}}

// BenchmarkMulVecAdd measures the matvec kernel at the served shapes,
// and the gate product once more cycling through 16 distinct matrices
// (512 KB: out of L1, inside L2). That row is the regime the served step
// runs in — a host's step streams its model's weights in behind the
// previous host's — and the L1-hot rows alone overstate the kernel (the L2
// row reads ≈1.1–1.15× the L1-hot one on the build box).
func BenchmarkMulVecAdd(b *testing.B) {
	for _, sh := range servedShapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := randMatrix(rng, sh.rows, sh.cols)
			v := randVector(rng, sh.cols)
			dst := NewVector(sh.rows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.MulVecAdd(dst, v)
			}
		})
	}
	b.Run("128x32_L2", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var ms [16]*Matrix
		for i := range ms {
			ms[i] = randMatrix(rng, 128, 32)
		}
		v := randVector(rng, 32)
		dst := NewVector(128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ms[i%len(ms)].MulVecAdd(dst, v)
		}
	})
}
