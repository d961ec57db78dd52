package ingest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/sigtree"
	"nfvpredict/internal/wireframe"
)

// monitorTraffic builds a deterministic message sequence: mostly normal
// cyclic traffic across several hosts with an anomaly burst per host near
// the end.
func monitorTraffic(hosts []string, n int) []logfmt.Message {
	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
		"fpc 1 cpu utilization 30 percent memory 45 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 80 us",
	}
	var out []logfmt.Message
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		for _, h := range hosts {
			out = append(out, logfmt.Message{
				Time: at, Host: h, Tag: "rpd",
				Text: normal[i%len(normal)],
			})
		}
		at = at.Add(30 * time.Second)
	}
	for _, h := range hosts {
		for i := 0; i < 3; i++ {
			out = append(out, logfmt.Message{
				Time: at, Host: h, Tag: "rpd",
				Text: fmt.Sprintf("invalid response from peer chassis-control session %d retries 3", i),
			})
			at = at.Add(10 * time.Second)
		}
	}
	return out
}

// TestRestoreCheckpointWithSavedAt restores a checkpoint in the earlier
// wire form, which also carried a SavedAt timestamp that nothing read: gob
// skips the field, so an old checkpoint resumes with the same counters and
// warnings.
func TestRestoreCheckpointWithSavedAt(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)
	for _, m := range monitorTraffic([]string{"vpe01", "vpe02"}, 30) {
		mon.HandleMessage(m)
	}
	var buf bytes.Buffer
	if err := mon.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := wireframe.Decode(buf.Bytes(), CheckpointMagic, CheckpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	var cur checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cur); err != nil {
		t.Fatal(err)
	}

	type oldCheckpointWire struct {
		Tree     []byte
		Hosts    []hostWire
		Warnings []detect.Warning
		Messages uint64
		Anoms    uint64
		Evicted  uint64
		Swaps    uint64
		SavedAt  time.Time
	}
	old := oldCheckpointWire{
		Tree: cur.Tree, Hosts: cur.Hosts, Warnings: cur.Warnings,
		Messages: cur.Messages, Anoms: cur.Anoms, Evicted: cur.Evicted, Swaps: cur.Swaps,
		SavedAt: time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC),
	}
	var oldPayload, oldFile bytes.Buffer
	if err := gob.NewEncoder(&oldPayload).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if err := wireframe.Encode(&oldFile, CheckpointMagic, CheckpointVersion, oldPayload.Bytes()); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreMonitor(&oldFile, mcfg, resolve, nil)
	if err != nil {
		t.Fatalf("old-format checkpoint no longer restores: %v", err)
	}
	if a, b := mon.Stats(), restored.Stats(); a != b {
		t.Fatalf("stats: checkpointed %+v, restored %+v", a, b)
	}
	wa, wb := mon.Warnings(), restored.Warnings()
	if len(wa) == 0 || !reflect.DeepEqual(wa, wb) {
		t.Fatalf("warnings: checkpointed %+v, restored %+v", wa, wb)
	}
}

// TestRestoreCheckpointWithoutDetectorFingerprints restores a checkpoint in
// the wire form written before hosts recorded the fingerprint of the
// detector their stream ran under. Such a checkpoint restores exactly as
// it did then: every stream goes into whatever detector serves its host
// now, unchecked, with the counters and warnings it carried. The same
// checkpoint with fingerprints is refused for a detector of other weights.
func TestRestoreCheckpointWithoutDetectorFingerprints(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	_, other := trainMonitorDetectorWidth(t, 16) // same shape, other weights
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	for _, m := range monitorTraffic([]string{"vpe01", "vpe02"}, 30) {
		mon.HandleMessage(m)
	}
	var buf bytes.Buffer
	if err := mon.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := wireframe.Decode(buf.Bytes(), CheckpointMagic, CheckpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	var cur checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	if len(cur.Hosts) != 2 || cur.Hosts[0].Detector != det.Fingerprint() {
		t.Fatalf("hosts do not record their detector: %+v", cur.Hosts)
	}
	if _, err := RestoreMonitor(bytes.NewReader(buf.Bytes()), mcfg,
		func(string) *detect.LSTMDetector { return other }, nil); err == nil || !strings.Contains(err.Error(), "cut under detector") {
		t.Fatalf("stream cut under other weights restored: %v", err)
	}

	type oldHostWire struct {
		Host        string
		Stream      detect.StreamSnapshot
		HasCluster  bool
		First, Last time.Time
		Size        int
		Reported    bool
	}
	type oldCheckpointWire struct {
		Tree     []byte
		Hosts    []oldHostWire
		Warnings []detect.Warning
		Messages uint64
		Anoms    uint64
		Evicted  uint64
		Swaps    uint64
	}
	old := oldCheckpointWire{Tree: cur.Tree, Warnings: cur.Warnings,
		Messages: cur.Messages, Anoms: cur.Anoms, Evicted: cur.Evicted, Swaps: cur.Swaps}
	for _, hw := range cur.Hosts {
		old.Hosts = append(old.Hosts, oldHostWire{Host: hw.Host, Stream: hw.Stream, HasCluster: hw.HasCluster,
			First: hw.First, Last: hw.Last, Size: hw.Size, Reported: hw.Reported})
	}
	var oldPayload, oldFile bytes.Buffer
	if err := gob.NewEncoder(&oldPayload).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if err := wireframe.Encode(&oldFile, CheckpointMagic, CheckpointVersion, oldPayload.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, serving := range []*detect.LSTMDetector{det, other} {
		restored, err := RestoreMonitor(bytes.NewReader(oldFile.Bytes()), mcfg,
			func(string) *detect.LSTMDetector { return serving }, nil)
		if err != nil {
			t.Fatalf("checkpoint without fingerprints no longer restores: %v", err)
		}
		if a, b := mon.Stats(), restored.Stats(); a != b {
			t.Fatalf("stats: checkpointed %+v, restored %+v", a, b)
		}
		if wa, wb := mon.Warnings(), restored.Warnings(); len(wa) == 0 || !reflect.DeepEqual(wa, wb) {
			t.Fatalf("warnings: checkpointed %+v, restored %+v", wa, wb)
		}
	}
}

// cloneTree round-trips a tree through its serializer so the reference and
// interrupted runs grow independent trees from the same starting point.
func cloneTree(t testing.TB, tr *sigtree.Tree) *sigtree.Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := sigtree.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// trainMonitorDetectorWidth trains the standard test detector but with a
// different hidden width, to model an architecture change across a reload.
func trainMonitorDetectorWidth(t *testing.T, hidden int) (*sigtree.Tree, *detect.LSTMDetector) {
	t.Helper()
	tree := sigtree.New()
	var stream []features.Event
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
	}
	for i := 0; i < 400; i++ {
		tpl := tree.Learn(texts[i%len(texts)])
		stream = append(stream, features.Event{Time: base.Add(time.Duration(i) * 30 * time.Second), Template: tpl.ID})
	}
	cfg := detect.DefaultLSTMConfig()
	cfg.Hidden = []int{hidden}
	cfg.MaxVocab = 16
	cfg.Epochs = 1
	cfg.OverSampleRounds = 0
	det := detect.NewLSTMDetector(cfg)
	if err := det.Train([][]features.Event{stream}); err != nil {
		t.Fatal(err)
	}
	return tree, det
}

// TestCheckpointFileTornWrite simulates a crash mid-checkpoint: the atomic
// writer must leave the previous checkpoint readable.
func TestCheckpointFileTornWrite(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	faults := faultinject.NewRegistry()
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.Faults = faults
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)
	for _, m := range monitorTraffic([]string{"vpe01"}, 30) {
		mon.HandleMessage(m)
	}

	path := filepath.Join(t.TempDir(), "monitor.ckpt")
	checkpointFile := func() error {
		c, err := mon.Cut()
		if err != nil {
			return err
		}
		return c.WriteFile(path)
	}
	if err := checkpointFile(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Torn write of a later checkpoint: the checkpoint.write point passes a
	// third of the file through, then fails every write.
	if err := faults.Arm("checkpoint.write", faultinject.Arming{Mode: faultinject.ModeTorn, Bytes: int64(len(good) / 3), Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := checkpointFile(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn checkpoint write = %v, want the injected fault", err)
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil || !bytes.Equal(after, good) {
		t.Fatal("torn write damaged the previous checkpoint")
	}
	if _, err := RestoreMonitor(bytes.NewReader(after), mcfg, resolve, nil); err != nil {
		t.Fatalf("previous checkpoint no longer restores: %v", err)
	}
}

// TestRestoreRejectsCorruptCheckpoint covers truncated and bit-flipped
// checkpoint files.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	resolve := func(string) *detect.LSTMDetector { return det }
	mcfg := DefaultMonitorConfig()
	mon := NewMonitorWithResolver(mcfg, tree, resolve, nil)
	for _, m := range monitorTraffic([]string{"vpe01", "vpe02"}, 20) {
		mon.HandleMessage(m)
	}
	var buf bytes.Buffer
	if err := mon.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, cut := range []int{0, 8, len(full) / 2, len(full) - 1} {
		if _, err := RestoreMonitor(bytes.NewReader(full[:cut]), mcfg, resolve, nil); err == nil {
			t.Fatalf("truncation at %d not rejected", cut)
		}
	}
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 1
	_, err := RestoreMonitor(bytes.NewReader(flipped), mcfg, resolve, nil)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip: %v", err)
	}
	if _, err := RestoreMonitor(strings.NewReader("junk that is not a checkpoint"), mcfg, resolve, nil); err == nil {
		t.Fatal("junk input not rejected")
	}
}

// TestRestoreShapeMismatchFailsLoudly replays a checkpoint against a
// detector with different layer widths — the post-hot-reload case — and
// expects a descriptive error rather than silent garbage.
func TestRestoreShapeMismatchFailsLoudly(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg := DefaultMonitorConfig()
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	for _, m := range monitorTraffic([]string{"vpe01"}, 20) {
		mon.HandleMessage(m)
	}
	var buf bytes.Buffer
	if err := mon.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	_, other := trainMonitorDetectorWidth(t, 24)
	_, err := RestoreMonitor(&buf, mcfg, func(string) *detect.LSTMDetector { return other }, nil)
	if err == nil {
		t.Fatal("architecture mismatch must fail restore")
	}
}

// TestMonitorLRUEviction floods the monitor with more spoofed hostnames
// than the host cap allows and verifies memory stays bounded.
func TestMonitorLRUEviction(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mon := NewMonitorWithResolver(DefaultMonitorConfig(), tree, func(string) *detect.LSTMDetector { return det }, nil)
	mon.capHosts(8)
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		mon.HandleMessage(logfmt.Message{
			Time: at, Host: fmt.Sprintf("spoofed-%03d", i), Tag: "rpd",
			Text: "bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		})
		at = at.Add(time.Second)
	}
	st := mon.Stats()
	if st.ActiveHosts != 8 {
		t.Fatalf("active hosts %d, cap 8", st.ActiveHosts)
	}
	if st.EvictedHosts != 92 {
		t.Fatalf("evicted %d, want 92", st.EvictedHosts)
	}
	// The most recent hosts survive; the oldest are gone.
	newest := mon.hasHost("spoofed-099")
	oldest := mon.hasHost("spoofed-000")
	if !newest || oldest {
		t.Fatalf("LRU kept wrong hosts: newest=%v oldest=%v", newest, oldest)
	}
}

// TestSwapModelHotReload verifies a model swap keeps history, resets
// streams, and applies the new threshold.
func TestSwapModelHotReload(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mon := NewMonitorWithResolver(mcfg, tree, func(string) *detect.LSTMDetector { return det }, nil)
	msgs := monitorTraffic([]string{"vpe01", "vpe02"}, 40)
	for _, m := range msgs {
		mon.HandleMessage(m)
	}
	before := mon.Stats()
	if before.Warnings == 0 {
		t.Fatal("expected warnings before swap")
	}

	tree2, det2 := trainMonitorDetector(t)
	mon.SwapModel(&bundle.Bundle{Tree: tree2, Detectors: []*detect.LSTMDetector{det2}, Threshold: 5})
	after := mon.Stats()
	if after.ModelSwaps != 1 || after.ActiveHosts != 0 {
		t.Fatalf("swap state: %+v", after)
	}
	if after.Warnings != before.Warnings || after.Messages != before.Messages {
		t.Fatalf("swap must keep history: before=%+v after=%+v", before, after)
	}
	// The monitor keeps scoring against the new model.
	for _, m := range msgs {
		mon.HandleMessage(m)
	}
	if st := mon.Stats(); st.Messages != before.Messages*2 {
		t.Fatalf("post-swap ingestion: %+v", st)
	}
}
