package detect

import (
	"math"
	"testing"
	"time"

	"nfvpredict/internal/features"
)

// batchDetector trains a small detector for batch-equivalence tests.
func batchDetector(t testing.TB, seed int64) *LSTMDetector {
	t.Helper()
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	var stream []features.Event
	for i := 0; i < 400; i++ {
		stream = append(stream, features.Event{
			Time: base.Add(time.Duration(i) * 30 * time.Second), Template: i % 5,
		})
	}
	cfg := DefaultLSTMConfig()
	cfg.Hidden = []int{16}
	cfg.MaxVocab = 8
	cfg.Epochs = 1
	cfg.OverSampleRounds = 0
	cfg.Seed = seed
	det := NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	return det
}

// TestPushBatchBitIdenticalToPush drives N streams through PushBatch and N
// twin streams through sequential Push with the same events, at batch sizes
// 1, 3, and 8, and requires bit-identical scores at every step — including
// the cold first event of each stream and a mix of detectors per batch.
func TestPushBatchBitIdenticalToPush(t *testing.T) {
	detA := batchDetector(t, 1)
	detB := batchDetector(t, 2)
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, B := range []int{1, 3, 8} {
		seq := make([]*LSTMStream, B)
		bat := make([]*LSTMStream, B)
		for b := 0; b < B; b++ {
			d := detA
			if b%3 == 2 {
				d = detB // mixed models within one batch
			}
			seq[b] = d.NewStream()
			bat[b] = d.NewStream()
		}
		var bs StreamBatch
		events := make([]features.Event, B)
		scores := make([]float64, B)
		for step := 0; step < 30; step++ {
			for b := 0; b < B; b++ {
				events[b] = features.Event{
					Time:     base.Add(time.Duration(step*30+b) * time.Second),
					Template: (step*7 + b) % 9, // includes out-of-vocab IDs
				}
			}
			PushBatch(&bs, bat, events, scores)
			for b := 0; b < B; b++ {
				want := seq[b].Push(events[b])
				if math.Float64bits(scores[b]) != math.Float64bits(want) {
					t.Fatalf("B=%d step=%d lane=%d: %v != %v", B, step, b, scores[b], want)
				}
			}
		}
	}
}

// TestScoringHotPathAllocFree is the CI guard on the serving hot path:
// after warm-up, neither the sequential Push nor the batched PushBatch may
// allocate.
func TestScoringHotPathAllocFree(t *testing.T) {
	det := batchDetector(t, 3)
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

	s := det.NewStream()
	ev := features.Event{Time: base, Template: 1}
	s.Push(ev)
	if n := testing.AllocsPerRun(100, func() {
		ev.Time = ev.Time.Add(30 * time.Second)
		s.Push(ev)
	}); n != 0 {
		t.Fatalf("sequential Push allocates %v per run, want 0", n)
	}

	const B = 8
	streams := make([]*LSTMStream, B)
	events := make([]features.Event, B)
	scores := make([]float64, B)
	for b := 0; b < B; b++ {
		streams[b] = det.NewStream()
		events[b] = features.Event{Time: base, Template: b % 5}
	}
	var bs StreamBatch
	PushBatch(&bs, streams, events, scores) // warm the scratch
	if n := testing.AllocsPerRun(100, func() {
		for b := range events {
			events[b].Time = events[b].Time.Add(30 * time.Second)
		}
		PushBatch(&bs, streams, events, scores)
	}); n != 0 {
		t.Fatalf("PushBatch allocates %v per run, want 0", n)
	}
}

// TestPushBatchAlternatingModelsAllocFree is the allocation gate on a wave
// that mixes cluster models: one StreamBatch scores the lanes of two
// detectors, so the model-level scratch serves two models in turn on every
// call, and that must cost nothing after warm-up.
func TestPushBatchAlternatingModelsAllocFree(t *testing.T) {
	dets := []*LSTMDetector{batchDetector(t, 1), batchDetector(t, 2)}
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	const B = 8
	streams := make([]*LSTMStream, B)
	events := make([]features.Event, B)
	scores := make([]float64, B)
	for b := 0; b < B; b++ {
		streams[b] = dets[b%2].NewStream()
		events[b] = features.Event{Time: base, Template: b % 5}
	}
	var bs StreamBatch
	for warm := 0; warm < 2; warm++ { // the first push only starts the streams
		PushBatch(&bs, streams, events, scores)
	}
	if n := testing.AllocsPerRun(100, func() {
		for b := range events {
			events[b].Time = events[b].Time.Add(30 * time.Second)
		}
		PushBatch(&bs, streams, events, scores)
	}); n != 0 {
		t.Errorf("PushBatch over two models allocates %v per run, want 0", n)
	}
}
