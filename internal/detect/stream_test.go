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

// TestScoreIsAPushReplay: offline Score and the served Push are one loop
// and one gap rule. The stream has two swapped timestamps — syslog from a
// host whose clock stepped back — where the two used to disagree: Push fed
// the model a zero gap, Score a negative one. Training tokenizes with the
// same rule (gapSeconds).
func TestScoreIsAPushReplay(t *testing.T) {
	det := smallDetector(t, 5)
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	var stream []features.Event
	for i := 0; i < 40; i++ {
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: i % 5})
	}
	stream[20].Time, stream[21].Time = stream[21].Time, stream[20].Time

	scored := det.Score("vpe01", stream)
	if len(scored) != len(stream) {
		t.Fatalf("%d scores for %d events", len(scored), len(stream))
	}
	s := det.NewStream()
	for i, e := range stream {
		if want := s.Push(e); scored[i].Score != want || !scored[i].Time.Equal(e.Time) || scored[i].VPE != "vpe01" {
			t.Fatalf("event %d: Score %+v, Push %v", i, scored[i], want)
		}
		if got, want := gapSeconds(stream, i), s.pending.Gap; got != want {
			t.Fatalf("event %d: training gap %v, served gap %v", i, got, want)
		}
	}
}
