package bundle

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/sigtree"
	"nfvpredict/internal/wireframe"
)

func trainedBundle(t testing.TB) *Bundle {
	t.Helper()
	tree := sigtree.New()
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
		"fpc 0 cpu utilization 20 percent memory 40 percent",
	}
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	var stream []features.Event
	for i := 0; i < 600; i++ {
		tpl := tree.Learn(texts[i%len(texts)])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * time.Minute), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden = []int{12}
	cfg.MaxVocab = 12
	cfg.Epochs = 2
	cfg.OverSampleRounds = 0
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	return &Bundle{
		Tree:      tree,
		Detectors: []*detect.LSTMDetector{det},
		Assign:    map[string]int{"vpe00": 0},
		Threshold: 5.5,
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold != 5.5 {
		t.Fatalf("threshold: %v", loaded.Threshold)
	}
	if loaded.Tree.Len() != b.Tree.Len() {
		t.Fatalf("tree size: %d vs %d", loaded.Tree.Len(), b.Tree.Len())
	}
	// Loaded detector scores identically.
	base := time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)
	stream := []features.Event{
		{Time: base, Template: 0}, {Time: base.Add(time.Minute), Template: 1},
		{Time: base.Add(2 * time.Minute), Template: 2}, {Time: base.Add(3 * time.Minute), Template: 0},
	}
	a := b.Detectors[0].Score("v", stream)
	c := loaded.Detectors[0].Score("v", stream)
	for i := range a {
		if math.Abs(a[i].Score-c[i].Score) > 1e-12 {
			t.Fatalf("score %d: %v vs %v", i, a[i].Score, c[i].Score)
		}
	}
}

func TestDetectorFor(t *testing.T) {
	b := trainedBundle(t)
	if b.DetectorFor("vpe00") != b.Detectors[0] {
		t.Fatal("assigned host")
	}
	if b.DetectorFor("unknown-host") != b.Detectors[0] {
		t.Fatal("unknown host should fall back to cluster 0")
	}
	empty := &Bundle{}
	if empty.DetectorFor("x") != nil {
		t.Fatal("empty bundle should return nil")
	}
}

func TestSaveValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Bundle{}).Save(&buf); err == nil {
		t.Fatal("empty bundle should not save")
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Fatal("corrupt input should fail")
	}
}

func TestLoadTruncated(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut at several depths: inside the header, inside the payload, and
	// inside the checksum trailer. All must be rejected with an error.
	for _, cut := range []int{3, 10, len(full) / 2, len(full) - 2} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
	}
}

func TestLoadBitFlip(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	headerLen := len(Magic) + 4 + 8
	// Flip single bits at several payload offsets; the CRC must catch each.
	for _, byteOff := range []int{headerLen, headerLen + 100, len(full) - 8} {
		corrupt := append([]byte(nil), full...)
		corrupt[byteOff] ^= 1 << 3
		_, err := Load(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("bit flip at byte %d not detected", byteOff)
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit flip at byte %d: want checksum error, got: %v", byteOff, err)
		}
	}
}

func TestLoadBadVersion(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	full[4] = 99 // version field
	if _, err := Load(bytes.NewReader(full)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version must be named in the error, got: %v", err)
	}
}

func TestValidateRejectsBadAssign(t *testing.T) {
	b := trainedBundle(t)
	b.Assign["vpe-evil"] = 7 // only 1 detector
	var buf bytes.Buffer
	if err := b.Save(&buf); err == nil {
		t.Fatal("out-of-range cluster index must not save")
	}
	delete(b.Assign, "vpe-evil")
	b.Assign["vpe-neg"] = -1
	if err := b.Save(&buf); err == nil {
		t.Fatal("negative cluster index must not save")
	}
}

func TestValidateRejectsNegativeThreshold(t *testing.T) {
	b := trainedBundle(t)
	b.Threshold = -3
	var buf bytes.Buffer
	if err := b.Save(&buf); err == nil || !strings.Contains(err.Error(), "threshold") {
		t.Fatalf("negative threshold must be rejected by name, got: %v", err)
	}
}

// gobPayload gob-encodes b's wire form without Save's validation or frame.
func gobPayload(t *testing.T, b *Bundle) []byte {
	t.Helper()
	var wf wire
	var tb bytes.Buffer
	if err := b.Tree.Save(&tb); err != nil {
		t.Fatal(err)
	}
	wf.Tree = tb.Bytes()
	var db bytes.Buffer
	if err := b.Detectors[0].Save(&db); err != nil {
		t.Fatal(err)
	}
	wf.Detectors = [][]byte{db.Bytes()}
	wf.Assign = b.Assign
	wf.Threshold = b.Threshold
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsBadAssignInPayload corrupts the payload the way a buggy
// trainer would (bad index, valid checksum): Load must reject it at load
// time rather than serving cluster-0 fallbacks silently.
func TestLoadRejectsBadAssignInPayload(t *testing.T) {
	b := trainedBundle(t)
	b.Assign["vpe-evil"] = 7
	// Bypass Save's validation by framing the payload directly.
	var buf bytes.Buffer
	if err := wireframe.Encode(&buf, Magic, Version, gobPayload(t, b)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("bad assign index in payload must fail load, got: %v", err)
	}
}

// TestLoadLegacyUnframed ensures a raw gob payload with no frame (the
// pre-versioning format, or a bundle whose magic bytes are damaged) is
// rejected by name instead of being decoded without its checksum.
func TestLoadLegacyUnframed(t *testing.T) {
	_, err := Load(bytes.NewReader(gobPayload(t, trainedBundle(t))))
	if err == nil || !strings.Contains(err.Error(), "missing") || !strings.Contains(err.Error(), Magic) {
		t.Fatalf("unframed bundle must be rejected naming the %q magic, got: %v", Magic, err)
	}
}

func TestSaveFileAtomicAndLoadFile(t *testing.T) {
	b := trainedBundle(t)
	path := filepath.Join(t.TempDir(), "model.bundle")
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold != b.Threshold {
		t.Fatalf("threshold: %v", loaded.Threshold)
	}
	if loaded.Source != path || loaded.Clone().Source != path || loaded.Fingerprint() != b.Fingerprint() {
		t.Fatalf("Source %q (clone %q) must name the file and stay out of the fingerprint", loaded.Source, loaded.Clone().Source)
	}
	// Corrupt the file on disk; LoadFile must reject it and a re-save must
	// restore it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("corrupt on-disk bundle must not load")
	}
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestTrainHistRoundTrip: the optional per-cluster training histograms
// survive Save/Load, their absence is accepted (backward compatibility —
// pre-TrainHist bundles decode to a nil slice), and a count mismatched
// against the detectors is rejected.
func TestTrainHistRoundTrip(t *testing.T) {
	b := trainedBundle(t)
	b.TrainHist = []map[int]float64{{0: 200, 1: 200, 2: 199}}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.TrainHist) != 1 || loaded.TrainHist[0][0] != 200 || loaded.TrainHist[0][2] != 199 {
		t.Fatalf("training histogram did not round-trip: %+v", loaded.TrainHist)
	}

	// Absent histograms stay absent.
	b2 := trainedBundle(t)
	buf.Reset()
	if err := b2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded, err = Load(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.TrainHist != nil {
		t.Fatalf("absent TrainHist loaded as %+v", loaded.TrainHist)
	}

	// Mismatched count is a validation error on both Save and Load.
	b3 := trainedBundle(t)
	b3.TrainHist = []map[int]float64{{0: 1}, {1: 1}}
	buf.Reset()
	if err := b3.Save(&buf); err == nil || !strings.Contains(err.Error(), "histograms") {
		t.Fatalf("mismatched TrainHist saved: %v", err)
	}
}
