package detect

import (
	"testing"
	"time"

	"nfvpredict/internal/features"
)

// cloneTrainStreams builds a small deterministic training corpus.
func cloneTrainStreams(templates, events int) [][]features.Event {
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	var s []features.Event
	for i := 0; i < events; i++ {
		s = append(s, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: i % templates})
	}
	return [][]features.Event{s}
}

// TestCloneIndependence is the serving-safety property the lifecycle
// depends on: a clone scores identically to the original, and training the
// clone (Update and Adapt, including vocabulary extension) leaves the
// original's weights, vocabulary, and scores untouched.
func TestCloneIndependence(t *testing.T) {
	cfg := DefaultLSTMConfig()
	cfg.Hidden = []int{12}
	cfg.MaxVocab = 10
	cfg.Epochs = 2
	cfg.OverSampleRounds = 0
	det := NewLSTMDetector(cfg)
	if err := det.Train(cloneTrainStreams(4, 400)); err != nil {
		t.Fatal(err)
	}
	origFP := det.Fingerprint()
	if origFP == 0 {
		t.Fatal("trained detector fingerprints to 0")
	}

	cand := det.Clone()
	if cand.Fingerprint() != origFP {
		t.Fatal("clone does not fingerprint equal to its original")
	}
	score := func(d *LSTMDetector) []ScoredEvent {
		return d.Score("vpe01", cloneTrainStreams(4, 60)[0])
	}
	a, b := score(det), score(cand)
	for i := range a {
		if a[i].Score != b[i].Score {
			t.Fatalf("clone scores diverge at %d: %v vs %v", i, a[i].Score, b[i].Score)
		}
	}

	// Adapt the clone on a shifted distribution with unseen templates
	// (vocabulary extension) — the original must be bit-unchanged.
	if err := cand.Adapt(cloneTrainStreams(8, 400)); err != nil {
		t.Fatal(err)
	}
	if det.Fingerprint() != origFP {
		t.Fatal("adapting the clone mutated the original's weights")
	}
	if cand.Fingerprint() == origFP {
		t.Fatal("adaptation did not change the clone's weights")
	}
	if got := len(det.vocab.index); got != 4 {
		t.Fatalf("adapting the clone leaked vocabulary slots into the original: known=%d", got)
	}
	if len(cand.vocab.index) <= 4 {
		t.Fatalf("clone vocabulary did not extend: known=%d", len(cand.vocab.index))
	}
}

// TestCloneUntrained: cloning before Train yields an untrained detector
// that can itself be trained.
func TestCloneUntrained(t *testing.T) {
	det := NewLSTMDetector(DefaultLSTMConfig())
	c := det.Clone()
	if c.Fingerprint() != 0 || c.Model() != nil {
		t.Fatal("untrained clone is not untrained")
	}
	if err := c.Train(cloneTrainStreams(3, 200)); err != nil {
		t.Fatal(err)
	}
}
