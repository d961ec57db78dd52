package svm

import (
	"math"
	"math/rand"
	"testing"

	"nfvpredict/internal/mat"
)

// DefaultConfig is the tests' starting point: reasonable settings for
// unit-norm TF windows.
func DefaultConfig() Config {
	return Config{Nu: 0.1, Gamma: 2.0, Iters: 4000, Seed: 1}
}

func clusterData(n int, seed int64) []mat.Vector {
	rng := rand.New(rand.NewSource(seed))
	centers := []mat.Vector{{1, 0, 0, 1}, {0, 1, 1, 0}}
	var out []mat.Vector
	for i := 0; i < n; i++ {
		c := centers[i%2]
		x := make(mat.Vector, 4)
		for j := range x {
			x[j] = c[j] + rng.NormFloat64()*0.08
		}
		out = append(out, x)
	}
	return out
}

func TestTrainValidation(t *testing.T) {
	xs := clusterData(10, 1)
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Fatal("empty training set should error")
	}
	bad := DefaultConfig()
	bad.Nu = 0
	if _, err := Train(xs, bad); err == nil {
		t.Fatal("Nu=0 should error")
	}
	bad = DefaultConfig()
	bad.Nu = 1.5
	if _, err := Train(xs, bad); err == nil {
		t.Fatal("Nu>1 should error")
	}
	bad = DefaultConfig()
	bad.Gamma = -1
	if _, err := Train(xs, bad); err == nil {
		t.Fatal("negative gamma should error")
	}
}

func TestSeparatesNovelPoints(t *testing.T) {
	train := clusterData(120, 2)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// In-distribution points score low.
	test := clusterData(40, 3)
	var inScores []float64
	for _, x := range test {
		inScores = append(inScores, m.Score(x))
	}
	// Far-away point scores high.
	novel := mat.Vector{-1, -1, -1, -1}
	novelScore := m.Score(novel)
	var worstIn float64 = math.Inf(-1)
	for _, s := range inScores {
		if s > worstIn {
			worstIn = s
		}
	}
	if novelScore <= worstIn {
		t.Fatalf("novel score %v not above worst in-dist score %v", novelScore, worstIn)
	}
	// Most in-distribution points should be inside the boundary.
	inside := 0
	for _, s := range inScores {
		if s <= 0 {
			inside++
		}
	}
	if float64(inside)/float64(len(inScores)) < 0.7 {
		t.Fatalf("only %d/%d in-distribution points inside boundary", inside, len(inScores))
	}
}

func TestNuControlsOutlierFraction(t *testing.T) {
	train := clusterData(150, 4)
	cfg := DefaultConfig()
	cfg.Nu = 0.2
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outliers := 0
	for _, x := range train {
		if m.Decision(x) < -1e-9 {
			outliers++
		}
	}
	frac := float64(outliers) / float64(len(train))
	// ν upper-bounds the training outlier fraction (allow solver slack).
	if frac > cfg.Nu+0.12 {
		t.Fatalf("training outlier fraction %.2f far exceeds nu=%.2f", frac, cfg.Nu)
	}
	if len(m.support) == 0 {
		t.Fatal("no support vectors")
	}
}

func TestAlphaConstraintsRespected(t *testing.T) {
	train := clusterData(60, 5)
	cfg := DefaultConfig()
	cfg.Nu = 0.3
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := 1 / (cfg.Nu * float64(len(train)))
	var sum float64
	for _, a := range m.alpha {
		if a < 0 || a > c+1e-9 {
			t.Fatalf("alpha %v outside [0, %v]", a, c)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("alphas sum to %v, want 1", sum)
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := clusterData(80, 6)
	a, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vector{0.5, 0.5, 0.5, 0.5}
	if math.Abs(a.Score(x)-b.Score(x)) > 1e-12 {
		t.Fatal("training not deterministic for fixed seed")
	}
}

func TestScoreIsNegDecision(t *testing.T) {
	train := clusterData(50, 7)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vector{1, 1, 0, 0}
	if math.Abs(m.Score(x)+m.Decision(x)) > 1e-12 {
		t.Fatal("Score must be -Decision")
	}
}

func TestRBFKernel(t *testing.T) {
	a := mat.Vector{1, 0}
	if rbf(a, a, 2) != 1 {
		t.Fatal("k(x,x) must be 1")
	}
	b := mat.Vector{0, 1}
	want := math.Exp(-2 * 2.0)
	if math.Abs(rbf(a, b, 2)-want) > 1e-12 {
		t.Fatalf("rbf=%v want %v", rbf(a, b, 2), want)
	}
}

func TestRBFDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rbf(mat.Vector{1}, mat.Vector{1, 2}, 1)
}

func TestSinglePointTraining(t *testing.T) {
	m, err := Train([]mat.Vector{{1, 2, 3}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(mat.Vector{1, 2, 3}) > m.Score(mat.Vector{9, 9, 9}) {
		t.Fatal("training point should score lower than a distant point")
	}
}

func BenchmarkTrain200(b *testing.B) {
	train := clusterData(200, 1)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScore(b *testing.B) {
	train := clusterData(200, 1)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := mat.Vector{0.3, 0.3, 0.7, 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(x)
	}
}
