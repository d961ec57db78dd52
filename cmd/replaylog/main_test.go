package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nfvpredict/internal/logfmt"
)

// writeTrace writes a small JSONL trace and returns its path.
func writeTrace(t *testing.T, msgs []logfmt.Message) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := logfmt.NewWriter(f)
	for i := range msgs {
		if err := w.Write(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoopShiftsTimestamps: -loop replays the trace N times and each pass
// shifts the RFC 3164 timestamps forward, so the receiver sees one
// monotonic stream rather than N copies of the same minute.
func TestLoopShiftsTimestamps(t *testing.T) {
	base := time.Date(2018, 3, 1, 10, 0, 0, 0, time.UTC)
	var msgs []logfmt.Message
	for i := 0; i < 4; i++ {
		msgs = append(msgs, logfmt.Message{
			Time: base.Add(time.Duration(i) * time.Minute),
			Host: "vpe01", Tag: "rpd", Text: "bgp keepalive exchanged with peer",
		})
	}
	trace := writeTrace(t, msgs)

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	const loops = 3
	done := make(chan error, 1)
	go func() { done <- run(trace, "", pc.LocalAddr().String(), "udp", 0, 0, 0, loops) }()

	var got []logfmt.Message
	buf := make([]byte, 64*1024)
	pc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < loops*len(msgs) {
		n, _, rerr := pc.ReadFrom(buf)
		if rerr != nil {
			t.Fatalf("received %d/%d datagrams: %v", len(got), loops*len(msgs), rerr)
		}
		m, perr := logfmt.Parse3164Bytes(buf[:n], base.Year())
		if perr != nil {
			t.Fatalf("datagram %d: %v", len(got), perr)
		}
		got = append(got, m)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatalf("timestamps not monotonic across passes: %v then %v (msg %d)", got[i-1].Time, got[i].Time, i)
		}
	}
	// The second pass starts a full span after the first, not at the seam.
	if !got[len(msgs)].Time.After(got[len(msgs)-1].Time) {
		t.Fatalf("pass 2 did not shift: %v vs %v", got[len(msgs)].Time, got[len(msgs)-1].Time)
	}
}

// TestScenarioSource: -scenario synthesizes the trace from a scenario
// spec instead of a JSONL file, deterministically under its seed.
func TestScenarioSource(t *testing.T) {
	doc := `
name: replay-source
seed: 9
fleet:
  vpes: 3
  months: 2
  start: 2017-01-01
  base_rate_per_hour: 0.5
  mean_fault_gap_hours: 2000
train:
  months: 1
`
	path := filepath.Join(t.TempDir(), "scen.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := loadMessages("", path)
	if err != nil {
		t.Fatalf("loadMessages: %v", err)
	}
	if len(a) == 0 {
		t.Fatal("scenario produced no messages")
	}
	b, err := loadMessages("", path)
	if err != nil {
		t.Fatalf("loadMessages (second): %v", err)
	}
	if len(a) != len(b) || !a[0].Time.Equal(b[0].Time) || a[len(a)-1].Text != b[len(b)-1].Text {
		t.Fatalf("scenario trace not deterministic: %d vs %d messages", len(a), len(b))
	}
}

// TestRatePacing: -rate bounds throughput; 8 messages at 40/s must take at
// least ~175ms.
func TestRatePacing(t *testing.T) {
	base := time.Date(2018, 3, 1, 10, 0, 0, 0, time.UTC)
	var msgs []logfmt.Message
	for i := 0; i < 8; i++ {
		msgs = append(msgs, logfmt.Message{
			Time: base.Add(time.Duration(i) * time.Second),
			Host: "vpe01", Tag: "rpd", Text: "interface statistics poll completed",
		})
	}
	trace := writeTrace(t, msgs)

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, _, rerr := pc.ReadFrom(buf); rerr != nil {
				return
			}
		}
	}()

	start := time.Now()
	if err := run(trace, "", pc.LocalAddr().String(), "udp", 0, 40, 0, 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("rate pacing not applied: 8 msgs at 40/s took %v", elapsed)
	}
}
