package detect

import (
	"runtime"
	"testing"
	"time"

	"nfvpredict/internal/features"
)

// TestTrainedFingerprintGolden pins training to the f64 matvec contract: a
// small detector trained and then updated on a fixed seed must end at the
// weights it ended at before the row-blocked kernel existed. The two
// constants were recorded at commit 85381d1 (single-accumulator scalar
// dot product); `go test` checks the SSE2 kernel against them and `go test
// -tags purego` the portable one, so neither can drift from the other or
// from history by a bit. Widths 7 and 5 give the dense products odd
// column counts and row counts (28, 20, 11) that leave every row tail.
func TestTrainedFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64: math.Exp and math.Tanh differ in the last bit across architectures")
	}
	cfg := smallLSTMConfig()
	cfg.Hidden = []int{7, 5}
	cfg.MaxVocab = 11
	cfg.Epochs = 3
	cfg.Seed = 20180731
	d := NewLSTMDetector(cfg)
	if err := d.Train([][]features.Event{
		cyclicStream(240, 9, time.Minute),
		withAnomaly(cyclicStream(160, 5, 45*time.Second), 70, 74, 31),
	}); err != nil {
		t.Fatal(err)
	}
	const wantTrained, wantUpdated = uint64(0x59375e0a6cd3ca96), uint64(0x97db188cab665155)
	if got := d.Fingerprint(); got != wantTrained {
		t.Errorf("trained fingerprint %#x, want %#x", got, wantTrained)
	}
	if err := d.Update([][]features.Event{cyclicStream(120, 7, 30*time.Second)}); err != nil {
		t.Fatal(err)
	}
	if got := d.Fingerprint(); got != wantUpdated {
		t.Errorf("updated fingerprint %#x, want %#x", got, wantUpdated)
	}
}
