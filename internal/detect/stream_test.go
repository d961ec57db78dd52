package detect

import (
	"testing"
	"time"

	"nfvpredict/internal/features"
)

// smallDetector trains a 16-hidden detector on a five-template cycle.
func smallDetector(t testing.TB, seed int64) *LSTMDetector {
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

// TestScoringHotPathAllocFree is the CI guard on the serving hot path:
// after warm-up, Push may not allocate.
func TestScoringHotPathAllocFree(t *testing.T) {
	det := smallDetector(t, 3)
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

	s := det.NewStream()
	ev := features.Event{Time: base, Template: 1}
	s.Push(ev)
	if n := testing.AllocsPerRun(100, func() {
		ev.Time = ev.Time.Add(30 * time.Second)
		s.Push(ev)
	}); n != 0 {
		t.Fatalf("Push allocates %v per run, want 0", n)
	}
}
