package detect

import (
	"testing"
	"time"

	"nfvpredict/internal/features"
)

var d0 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

// cyclicStream produces a deterministic template cycle with fixed spacing:
// the kind of strongly sequential "normal" traffic an LSTM should learn.
func cyclicStream(n int, period int, spacing time.Duration) []features.Event {
	out := make([]features.Event, n)
	for i := range out {
		out[i] = features.Event{Time: d0.Add(time.Duration(i) * spacing), Template: i % period}
	}
	return out
}

// withAnomaly copies stream and replaces templates in [lo,hi) with a
// template the training data never contained.
func withAnomaly(stream []features.Event, lo, hi, novelTemplate int) []features.Event {
	out := make([]features.Event, len(stream))
	copy(out, stream)
	for i := lo; i < hi && i < len(out); i++ {
		out[i].Template = novelTemplate
	}
	return out
}

func TestVocabulary(t *testing.T) {
	streams := [][]features.Event{{
		{Template: 5}, {Template: 5}, {Template: 5},
		{Template: 7}, {Template: 7},
		{Template: 9},
	}}
	v := BuildVocabulary(streams, 3)
	if v.Size() != 3 {
		t.Fatalf("Size=%d", v.Size())
	}
	if len(v.index) != 2 {
		t.Fatalf("Known=%d", len(v.index))
	}
	if v.Class(5) != 0 || v.Class(7) != 1 {
		t.Fatalf("frequency order broken: %d %d", v.Class(5), v.Class(7))
	}
	// 9 overflows the capacity → other; unseen templates → other.
	if v.Class(9) != v.Other() || v.Class(1234) != v.Other() {
		t.Fatal("overflow/unseen should map to other")
	}
	if v.Other() != 2 {
		t.Fatalf("Other=%d", v.Other())
	}
}

func TestVocabularyAssignExtendsIntoSpareSlots(t *testing.T) {
	v := BuildVocabulary([][]features.Event{{{Template: 1}, {Template: 2}}}, 6)
	if len(v.index) != 2 || v.Size() != 6 {
		t.Fatalf("initial: known=%d size=%d", len(v.index), v.Size())
	}
	// Post-update templates get fresh slots, existing ones keep theirs.
	before1 := v.Class(1)
	v.Assign([][]features.Event{{{Template: 10}, {Template: 10}, {Template: 11}}})
	if v.Class(1) != before1 {
		t.Fatal("existing slot moved")
	}
	if v.Class(10) == v.Other() || v.Class(11) == v.Other() {
		t.Fatal("new templates should get spare slots")
	}
	if v.Class(10) == v.Class(11) {
		t.Fatal("new templates should get distinct slots")
	}
	// Capacity exhaustion: only one slot left after 4 assignments.
	v.Assign([][]features.Event{{{Template: 20}, {Template: 21}}})
	if len(v.index) != 5 { // capacity 6 → 5 assignable
		t.Fatalf("known=%d want 5", len(v.index))
	}
	if v.Class(21) != v.Other() {
		t.Fatal("template beyond capacity must fold to other")
	}
}

func TestVocabularyDeterministicTieBreak(t *testing.T) {
	streams := [][]features.Event{{{Template: 3}, {Template: 1}, {Template: 2}}}
	a := BuildVocabulary(streams, 10)
	b := BuildVocabulary(streams, 10)
	for id := 1; id <= 3; id++ {
		if a.Class(id) != b.Class(id) {
			t.Fatal("vocabulary not deterministic")
		}
	}
	// Equal counts break ties by template ID.
	if a.Class(1) != 0 || a.Class(2) != 1 || a.Class(3) != 2 {
		t.Fatalf("tie-break wrong: %d %d %d", a.Class(1), a.Class(2), a.Class(3))
	}
}

func TestThresholdAndQuantiles(t *testing.T) {
	events := []ScoredEvent{
		{Time: d0, VPE: "a", Score: 1},
		{Time: d0.Add(time.Minute), VPE: "a", Score: 5},
		{Time: d0.Add(2 * time.Minute), VPE: "b", Score: 3},
	}
	anoms := Threshold(events, 2.5)
	if len(anoms) != 2 {
		t.Fatalf("anomalies: %+v", anoms)
	}
	if q := ScoreQuantile(events, 0); q != 1 {
		t.Fatalf("q0=%v", q)
	}
	if q := ScoreQuantile(events, 1); q != 5 {
		t.Fatalf("q1=%v", q)
	}
	if ScoreQuantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

func TestThresholdSweep(t *testing.T) {
	var events []ScoredEvent
	for i := 0; i < 100; i++ {
		events = append(events, ScoredEvent{Time: d0, VPE: "a", Score: float64(i)})
	}
	thrs := ThresholdSweep(events, 10)
	if len(thrs) < 5 {
		t.Fatalf("sweep too small: %v", thrs)
	}
	for i := 1; i < len(thrs); i++ {
		if thrs[i] <= thrs[i-1] {
			t.Fatalf("sweep not increasing: %v", thrs)
		}
	}
	if thrs[0] < 49 {
		t.Fatalf("sweep should cover the upper half: %v", thrs)
	}
	if ThresholdSweep(events, 1) != nil || ThresholdSweep(nil, 10) != nil {
		t.Fatal("degenerate sweeps should be nil")
	}
}

func TestClusterWarnings(t *testing.T) {
	anoms := []Anomaly{
		// Cluster of 3 on vpe-a.
		{Time: d0, VPE: "a"},
		{Time: d0.Add(20 * time.Second), VPE: "a"},
		{Time: d0.Add(50 * time.Second), VPE: "a"},
		// Isolated on vpe-a (2 min later): dropped (size 1).
		{Time: d0.Add(3 * time.Minute), VPE: "a"},
		// Pair on vpe-b.
		{Time: d0.Add(time.Hour), VPE: "b"},
		{Time: d0.Add(time.Hour + 30*time.Second), VPE: "b"},
	}
	ws := ClusterWarnings(anoms, DefaultClusterWindow, DefaultMinClusterSize)
	if len(ws) != 2 {
		t.Fatalf("warnings: %+v", ws)
	}
	if ws[0].VPE != "a" || ws[0].Size != 3 || !ws[0].Time.Equal(d0) {
		t.Fatalf("warning 0: %+v", ws[0])
	}
	if ws[1].VPE != "b" || ws[1].Size != 2 {
		t.Fatalf("warning 1: %+v", ws[1])
	}
}

func TestClusterWarningsUnsortedInput(t *testing.T) {
	anoms := []Anomaly{
		{Time: d0.Add(30 * time.Second), VPE: "a"},
		{Time: d0, VPE: "a"},
	}
	ws := ClusterWarnings(anoms, time.Minute, 2)
	if len(ws) != 1 || !ws[0].Time.Equal(d0) {
		t.Fatalf("unsorted input mishandled: %+v", ws)
	}
}

func TestClusterWarningsEmpty(t *testing.T) {
	if ws := ClusterWarnings(nil, time.Minute, 2); len(ws) != 0 {
		t.Fatalf("empty: %+v", ws)
	}
}

func smallLSTMConfig() LSTMConfig {
	cfg := DefaultLSTMConfig()
	cfg.Hidden = []int{16}
	cfg.MaxVocab = 12
	cfg.WindowLen = 16
	cfg.Stride = 8
	cfg.Epochs = 6
	cfg.OverSampleRounds = 1
	cfg.MaxWindowsPerEpoch = 0
	return cfg
}

func TestLSTMDetectorFlagsNovelTemplates(t *testing.T) {
	train := [][]features.Event{cyclicStream(600, 4, time.Minute)}
	d := NewLSTMDetector(smallLSTMConfig())
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	test := withAnomaly(cyclicStream(200, 4, time.Minute), 100, 103, 99)
	scored := d.Score("vpe00", test)
	if len(scored) != 200 {
		t.Fatalf("scored %d events", len(scored))
	}
	// Normal-region scores must sit well below anomalous-region scores.
	var normalMax float64
	for i := 10; i < 90; i++ {
		if scored[i].Score > normalMax {
			normalMax = scored[i].Score
		}
	}
	anomalous := scored[100].Score
	if anomalous <= normalMax {
		t.Fatalf("novel template score %v not above normal max %v", anomalous, normalMax)
	}
}

func TestLSTMDetectorScoreMetadata(t *testing.T) {
	train := [][]features.Event{cyclicStream(300, 3, time.Minute)}
	d := NewLSTMDetector(smallLSTMConfig())
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	stream := cyclicStream(50, 3, time.Minute)
	scored := d.Score("vpe07", stream)
	if scored[0].Score != 0 {
		t.Fatal("first event must have neutral score")
	}
	for i, s := range scored {
		if s.VPE != "vpe07" || !s.Time.Equal(stream[i].Time) {
			t.Fatalf("metadata broken at %d: %+v", i, s)
		}
	}
	if d.Name() != "lstm" {
		t.Fatal("name")
	}
}

func TestLSTMDetectorTrainErrors(t *testing.T) {
	d := NewLSTMDetector(smallLSTMConfig())
	if err := d.Train(nil); err == nil {
		t.Fatal("empty training should error")
	}
	if got := d.Score("v", cyclicStream(5, 2, time.Second)); got != nil {
		t.Fatal("untrained detector should return nil scores")
	}
}

func TestLSTMDetectorUpdateKeepsVocabulary(t *testing.T) {
	train := [][]features.Event{cyclicStream(300, 4, time.Minute)}
	d := NewLSTMDetector(smallLSTMConfig())
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	vocabBefore := d.vocab
	if err := d.Update([][]features.Event{cyclicStream(100, 4, time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if d.vocab != vocabBefore {
		t.Fatal("Update must not rebuild the vocabulary")
	}
	// Update on an untrained detector falls back to Train.
	d2 := NewLSTMDetector(smallLSTMConfig())
	if err := d2.Update(train); err != nil {
		t.Fatal(err)
	}
	if d2.Model() == nil {
		t.Fatal("fallback train did not happen")
	}
}

// The transfer-learning scenario in miniature: after a distribution shift,
// Adapt on a short window of new data must cut false-alarm scores on the
// new normal, and must do so without touching the teacher's frozen bottom
// layer during fine-tuning.
func TestLSTMDetectorAdaptRecoversFromShift(t *testing.T) {
	cfg := smallLSTMConfig()
	cfg.Hidden = []int{16, 16}
	cfg.AdaptFreezeLayers = 1
	cfg.AdaptEpochs = 6
	d := NewLSTMDetector(cfg)
	// Old regime: cycle over templates 0-3.
	if err := d.Train([][]features.Event{cyclicStream(600, 4, time.Minute)}); err != nil {
		t.Fatal(err)
	}
	// New regime: cycle over templates 4-7 (all previously absent... but
	// within vocab because Train saw only 4 classes + other). Build the
	// new regime from a permuted old alphabet instead so it stays in-vocab:
	// cycle 3,2,1,0 — reversed order, same templates.
	newRegime := func(n int) []features.Event {
		out := make([]features.Event, n)
		for i := range out {
			out[i] = features.Event{Time: d0.Add(time.Duration(i) * time.Minute), Template: 3 - i%4}
		}
		return out
	}
	before := meanScore(d, newRegime(200))
	if err := d.Adapt([][]features.Event{newRegime(400)}); err != nil {
		t.Fatal(err)
	}
	after := meanScore(d, newRegime(200))
	if after >= before*0.8 {
		t.Fatalf("Adapt did not reduce new-regime scores: before %v after %v", before, after)
	}
}

func meanScore(d Detector, stream []features.Event) float64 {
	scored := d.Score("v", stream)
	var s float64
	for _, e := range scored[1:] {
		s += e.Score
	}
	return s / float64(len(scored)-1)
}

func TestAEDetectorFlagsNovelWindows(t *testing.T) {
	cfg := DefaultAEConfig()
	cfg.Hidden = []int{8, 4}
	cfg.Epochs = 20
	train := [][]features.Event{cyclicStream(2000, 4, 30*time.Second)}
	d := NewAEDetector(cfg)
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	if d.Name() != "autoencoder" {
		t.Fatal("name")
	}
	normal := d.Score("v", cyclicStream(400, 4, 30*time.Second))
	novel := d.Score("v", withAnomaly(cyclicStream(400, 4, 30*time.Second), 0, 400, 99))
	if len(normal) == 0 || len(novel) == 0 {
		t.Fatal("no windows scored")
	}
	if meanOf(novel) <= meanOf(normal)*1.5 {
		t.Fatalf("novel windows not separated: normal %v novel %v", meanOf(normal), meanOf(novel))
	}
}

func meanOf(events []ScoredEvent) float64 {
	var s float64
	for _, e := range events {
		s += e.Score
	}
	return s / float64(len(events))
}

func TestAEDetectorLifecycle(t *testing.T) {
	d := NewAEDetector(DefaultAEConfig())
	if err := d.Train(nil); err == nil {
		t.Fatal("empty training should error")
	}
	if d.Score("v", cyclicStream(10, 2, time.Second)) != nil {
		t.Fatal("untrained score should be nil")
	}
	train := [][]features.Event{cyclicStream(500, 4, time.Minute)}
	if err := d.Update(train); err != nil { // falls back to Train
		t.Fatal(err)
	}
	if err := d.Update(train); err != nil {
		t.Fatal(err)
	}
	if err := d.Adapt(train); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.net.Params() {
		if p.Frozen {
			t.Fatal("Adapt left layers frozen")
		}
	}
}

func TestOCSVMDetectorFlagsNovelWindows(t *testing.T) {
	train := [][]features.Event{cyclicStream(3000, 4, 20*time.Second)}
	d := NewOCSVMDetector(DefaultOCSVMConfig())
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	if d.Name() != "ocsvm" {
		t.Fatal("name")
	}
	normal := d.Score("v", cyclicStream(600, 4, 20*time.Second))
	novel := d.Score("v", withAnomaly(cyclicStream(600, 4, 20*time.Second), 0, 600, 99))
	if meanOf(novel) <= meanOf(normal) {
		t.Fatalf("novel windows not separated: normal %v novel %v", meanOf(normal), meanOf(novel))
	}
}

func TestOCSVMDetectorLifecycle(t *testing.T) {
	d := NewOCSVMDetector(DefaultOCSVMConfig())
	if err := d.Train(nil); err == nil {
		t.Fatal("empty training should error")
	}
	train := [][]features.Event{cyclicStream(800, 4, time.Minute)}
	if err := d.Update(train); err != nil { // fallback to Train
		t.Fatal(err)
	}
	if err := d.Update(train); err != nil {
		t.Fatal(err)
	}
	if err := d.Adapt(train); err != nil {
		t.Fatal(err)
	}
	// Reservoir respects its cap.
	if len(d.reservoir) > d.cfg.ReservoirSize {
		t.Fatalf("reservoir overflow: %d > %d", len(d.reservoir), d.cfg.ReservoirSize)
	}
}

func TestDetectorInterfaceCompliance(t *testing.T) {
	var _ Detector = NewLSTMDetector(DefaultLSTMConfig())
	var _ Detector = NewAEDetector(DefaultAEConfig())
	var _ Detector = NewOCSVMDetector(DefaultOCSVMConfig())
}

func BenchmarkLSTMScore(b *testing.B) {
	train := [][]features.Event{cyclicStream(500, 4, time.Minute)}
	cfg := smallLSTMConfig()
	cfg.Epochs = 1
	d := NewLSTMDetector(cfg)
	if err := d.Train(train); err != nil {
		b.Fatal(err)
	}
	stream := cyclicStream(1000, 4, time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Score("v", stream)
	}
}
