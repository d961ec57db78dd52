package detect

import (
	"runtime"
	"testing"
	"time"

	"nfvpredict/internal/features"
)

// TestTrainedFingerprintGolden pins training to the f64 contracts: a small
// detector trained and then updated on a fixed seed must end at the
// recorded weights. `go test` checks the SSE2 kernels against the two
// constants and `go test -tags purego` the portable ones, so neither can
// drift from the other or from history by a bit. Widths 7 and 5 give the
// dense products odd column counts and row counts (28, 20, 11) that leave
// every row tail, and gate blocks that end on mat.ExpNeg's odd element.
//
// The constants have been re-recorded twice, each time on purpose and each
// time to the same pair under both tags. This pair is from the PR that
// redefined the f64 matvec core as two partial sums per row — even and
// odd columns, dst[i] += e + o (parent commit cbc1ae0; DESIGN.md §10): the
// products' order of addition changed, so the weights moved in their last
// places. Before that they were 0x0231061a03c4bf21 and 0x1baa4c461a60163c,
// recorded at 7515014 when mat.ExpNeg went under every gate and softmax;
// and before that 0x59375e0a6cd3ca96 and 0x97db188cab665155, recorded at
// 85381d1 with the single-accumulator scalar dot product.
func TestTrainedFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64: compilers that have FMA fuse the cell update and math.Log differently")
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
	const wantTrained, wantUpdated = uint64(0xf336c7db5f4a7a1f), uint64(0x81719f1a992342c1)
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
