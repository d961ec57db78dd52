package features

import (
	"math"
	"testing"
	"time"
)

var f0 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(offset time.Duration, tpl int) Event { return Event{Time: f0.Add(offset), Template: tpl} }

func TestWindowize(t *testing.T) {
	events := []Event{
		ev(0, 1), ev(30*time.Second, 1), ev(5*time.Minute, 2),
		ev(25*time.Minute, 3), // skips windows 1 and 2
	}
	ws := Windowize(events, 10*time.Minute)
	if len(ws) != 2 {
		t.Fatalf("windows: %+v", ws)
	}
	if ws[0].N != 3 || ws[0].Counts[1] != 2 || ws[0].Counts[2] != 1 {
		t.Fatalf("window 0: %+v", ws[0])
	}
	if !ws[1].Start.Equal(f0.Add(20*time.Minute)) || ws[1].Counts[3] != 1 {
		t.Fatalf("window 1: %+v", ws[1])
	}
}

func TestWindowizeEmpty(t *testing.T) {
	if ws := Windowize(nil, time.Minute); len(ws) != 0 {
		t.Fatalf("empty events: %+v", ws)
	}
}

func TestWindowizePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Windowize(nil, 0)
}

func fitVectorizer(t *testing.T, tfidf bool) (*Vectorizer, []Window) {
	t.Helper()
	train := []Window{
		{Start: f0, Counts: map[int]int{1: 5, 2: 1}, N: 6},
		{Start: f0.Add(time.Hour), Counts: map[int]int{1: 4, 3: 2}, N: 6},
		{Start: f0.Add(2 * time.Hour), Counts: map[int]int{1: 6}, N: 6},
	}
	v := NewVectorizer(tfidf)
	v.Fit(train)
	return v, train
}

func TestVectorizerDim(t *testing.T) {
	v, _ := fitVectorizer(t, true)
	// Templates 1,2,3 + unknown slot.
	if v.Dim() != 4 {
		t.Fatalf("Dim=%d", v.Dim())
	}
}

func TestTransformNormalized(t *testing.T) {
	v, train := fitVectorizer(t, true)
	for _, w := range train {
		x := v.Transform(w)
		if math.Abs(x.Norm2()-1) > 1e-9 {
			t.Fatalf("not unit norm: %v", x)
		}
	}
}

func TestIDFWeighting(t *testing.T) {
	v, _ := fitVectorizer(t, true)
	// Template 1 appears in every window (df=3), template 2 in one (df=1):
	// IDF of 2 must exceed IDF of 1, so a window with equal counts leans
	// toward the rarer template.
	w := Window{Start: f0, Counts: map[int]int{1: 3, 2: 3}, N: 6}
	x := v.Transform(w)
	slot1, slot2 := 0, 1 // sorted template ids 1,2,3
	if x[slot2] <= x[slot1] {
		t.Fatalf("rare template should out-weigh common: %v", x)
	}
}

func TestUnknownTemplateFoldsToLastSlot(t *testing.T) {
	v, _ := fitVectorizer(t, true)
	w := Window{Start: f0, Counts: map[int]int{999: 4}, N: 4}
	x := v.Transform(w)
	if x[v.Dim()-1] == 0 {
		t.Fatalf("unknown template lost: %v", x)
	}
	var rest float64
	for i := 0; i+1 < v.Dim(); i++ {
		rest += x[i]
	}
	if rest != 0 {
		t.Fatalf("unknown leaked into known slots: %v", x)
	}
}

func TestCountVectorizerUniformIDF(t *testing.T) {
	v, _ := fitVectorizer(t, false)
	w := Window{Start: f0, Counts: map[int]int{1: 2, 2: 2}, N: 4}
	x := v.Transform(w)
	if math.Abs(x[0]-x[1]) > 1e-12 {
		t.Fatalf("count mode should weight equally: %v", x)
	}
}

func TestTransformEmptyWindow(t *testing.T) {
	v, _ := fitVectorizer(t, true)
	x := v.Transform(Window{Start: f0, Counts: map[int]int{}, N: 0})
	if x.Norm2() != 0 {
		t.Fatalf("empty window should be zero: %v", x)
	}
}

func TestTransformBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVectorizer(true).Transform(Window{})
}

func TestVectorizerDeterministicSlots(t *testing.T) {
	// Fitting twice on the same data must produce identical transforms
	// (map iteration order must not leak into slot assignment).
	_, train := fitVectorizer(t, true)
	a := NewVectorizer(true)
	b := NewVectorizer(true)
	a.Fit(train)
	b.Fit(train)
	w := Window{Start: f0, Counts: map[int]int{1: 1, 2: 2, 3: 3}, N: 6}
	xa, xb := a.Transform(w), b.Transform(w)
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatalf("non-deterministic vectorizer: %v vs %v", xa, xb)
		}
	}
}
