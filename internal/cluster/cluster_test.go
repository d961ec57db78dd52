package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := Histogram{}
	h.Add(1)
	h.Add(1)
	h.Add(3)
	if h.Total() != 3 || h[1] != 2 || h[3] != 1 {
		t.Fatalf("histogram: %v", h)
	}
	other := Histogram{1: 1, 5: 4}
	h.Merge(other)
	if h[1] != 3 || h[5] != 4 {
		t.Fatalf("merge: %v", h)
	}
}

func TestCosineKnownValues(t *testing.T) {
	a := Histogram{0: 1, 1: 1}
	if c := Cosine(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self cosine %v", c)
	}
	b := Histogram{2: 5}
	if c := Cosine(a, b); c != 0 {
		t.Fatalf("disjoint cosine %v", c)
	}
	if Cosine(Histogram{}, a) != 0 {
		t.Fatal("empty histogram should give 0")
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(ka, kb []uint8, va, vb []uint8) bool {
		a, b := Histogram{}, Histogram{}
		for i := range ka {
			if i < len(va) {
				a[int(ka[i]%16)] += float64(va[i]%9) + 1
			}
		}
		for i := range kb {
			if i < len(vb) {
				b[int(kb[i]%16)] += float64(vb[i]%9) + 1
			}
		}
		c := Cosine(a, b)
		return c >= 0 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDense(t *testing.T) {
	h := Histogram{0: 1, 2: 3, 99: 4, -1: 7}
	v := h.Dense(4)
	// 99 folds into slot 3; -1 dropped; normalized to sum 1.
	if math.Abs(v.Sum()-1) > 1e-12 {
		t.Fatalf("not normalized: %v", v)
	}
	if v[0] != 1.0/8 || v[2] != 3.0/8 || v[3] != 4.0/8 {
		t.Fatalf("dense: %v", v)
	}
	empty := Histogram{}.Dense(4)
	if empty.Sum() != 0 {
		t.Fatal("empty histogram should stay zero")
	}
}

func TestSimilarityToAggregate(t *testing.T) {
	hists := map[string]Histogram{
		"a": {0: 100, 1: 100},
		"b": {0: 100, 1: 100},
		"c": {7: 10}, // outlier
	}
	sims := SimilarityToAggregate(hists)
	if sims["a"] < 0.9 || sims["b"] < 0.9 {
		t.Fatalf("majority vPEs should be close to aggregate: %v", sims)
	}
	if sims["c"] > 0.5 {
		t.Fatalf("outlier should be far from aggregate: %v", sims)
	}
}

func TestQuantiles(t *testing.T) {
	q := Quantiles([]float64{4, 1, 3, 2, 5})
	want := [5]float64{1, 2, 3, 4, 5}
	if q != want {
		t.Fatalf("quantiles %v want %v", q, want)
	}
	if Quantiles(nil) != [5]float64{} {
		t.Fatal("empty quantiles should be zero")
	}
}

// synthetic role histograms: k-means must recover the planted partition.
func plantedHists(roles, perRole int, seed int64) (map[string]Histogram, map[string]int) {
	rng := rand.New(rand.NewSource(seed))
	hists := map[string]Histogram{}
	truth := map[string]int{}
	for r := 0; r < roles; r++ {
		for i := 0; i < perRole; i++ {
			name := string(rune('a'+r)) + string(rune('0'+i))
			h := Histogram{}
			// Shared core templates 0-4.
			for tid := 0; tid < 5; tid++ {
				h[tid] = 50 + rng.Float64()*10
			}
			// Role-specific templates 10r..10r+4 dominate.
			for tid := 0; tid < 5; tid++ {
				h[10*(r+1)+tid] = 200 + rng.Float64()*50
			}
			hists[name] = h
			truth[name] = r
		}
	}
	return hists, truth
}

func agreesWithTruth(res *Result, truth map[string]int) bool {
	// Clustering is correct iff same-truth pairs share clusters and
	// different-truth pairs do not.
	keys := make([]string, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			same := truth[keys[i]] == truth[keys[j]]
			got := res.Assign[keys[i]] == res.Assign[keys[j]]
			if same != got {
				return false
			}
		}
	}
	return true
}

func TestKMeansRecoversPlantedClusters(t *testing.T) {
	hists, truth := plantedHists(4, 6, 1)
	res := KMeans(hists, 4, 64, 42)
	if !agreesWithTruth(res, truth) {
		t.Fatalf("k-means failed to recover planted partition: %v", res.Assign)
	}
}

func TestSelectKFindsPlantedK(t *testing.T) {
	hists, truth := plantedHists(4, 6, 2)
	res, err := SelectK(hists, 2, 8, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("SelectK chose K=%d, want 4 (score %v)", res.K, res.Score)
	}
	if !agreesWithTruth(res, truth) {
		t.Fatal("selected clustering does not match planted partition")
	}
}

func TestSelectKInvalidRange(t *testing.T) {
	hists, _ := plantedHists(2, 2, 3)
	if _, err := SelectK(hists, 0, 3, 16, 1); err == nil {
		t.Fatal("kMin=0 should error")
	}
	if _, err := SelectK(hists, 3, 2, 16, 1); err == nil {
		t.Fatal("kMax<kMin should error")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	hists, _ := plantedHists(3, 5, 4)
	a := KMeans(hists, 3, 64, 9)
	b := KMeans(hists, 3, 64, 9)
	for k := range a.Assign {
		if a.Assign[k] != b.Assign[k] {
			t.Fatal("k-means not deterministic for fixed seed")
		}
	}
}

func TestKMeansClampsK(t *testing.T) {
	hists := map[string]Histogram{"a": {0: 1}, "b": {1: 1}}
	res := KMeans(hists, 10, 8, 1)
	if res.K != 2 {
		t.Fatalf("K should clamp to point count: %d", res.K)
	}
}

func TestKMeansPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KMeans(map[string]Histogram{"a": {0: 1}}, 0, 8, 1)
}

func TestKMeansSingleCluster(t *testing.T) {
	hists, _ := plantedHists(1, 5, 5)
	res := KMeans(hists, 1, 32, 1)
	for _, c := range res.Assign {
		if c != 0 {
			t.Fatal("single cluster must assign all to 0")
		}
	}
}

func TestResultMembers(t *testing.T) {
	res := &Result{K: 2, Assign: map[string]int{"b": 0, "a": 0, "c": 1}}
	m := res.Members(0)
	if len(m) != 2 || m[0] != "a" || m[1] != "b" {
		t.Fatalf("Members: %v", m)
	}
	if len(res.Members(5)) != 0 {
		t.Fatal("missing cluster should be empty")
	}
}

func BenchmarkKMeans38VPEs(b *testing.B) {
	hists, _ := plantedHists(4, 10, 1) // 40 ≈ the paper's 38
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(hists, 4, 128, 1)
	}
}
