package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/scenario"
	"nfvpredict/internal/ticket"
)

// execute runs one subcommand the way main does, returning its error.
func execute(name string, args ...string) error {
	for _, c := range commands {
		if c.name == name {
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			body := c.setup(fs)
			if err := fs.Parse(args); err != nil {
				return err
			}
			return body(fs.Args())
		}
	}
	return fmt.Errorf("no command %q", name)
}

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

// writeScenario writes a small scenario document and returns its path.
func writeScenario(t *testing.T) string {
	t.Helper()
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
	return path
}

// TestLoopShiftsTimestamps: replay -loop sends the trace N times and each
// pass shifts the RFC 3164 timestamps forward, so the receiver sees one
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
	go func() {
		done <- execute("replay", "-addr", pc.LocalAddr().String(), "-loop", fmt.Sprint(loops), trace)
	}()

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

// TestScenarioSource: a .yaml replay source is generated from the
// scenario spec instead of read as JSONL, deterministically under its
// seed.
func TestScenarioSource(t *testing.T) {
	path := writeScenario(t)
	a, err := loadMessages(path)
	if err != nil {
		t.Fatalf("loadMessages: %v", err)
	}
	if len(a) == 0 {
		t.Fatal("scenario produced no messages")
	}
	b, err := loadMessages(path)
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
	if err := execute("replay", "-addr", pc.LocalAddr().String(), "-rate", "40", trace); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("rate pacing not applied: 8 msgs at 40/s took %v", elapsed)
	}
}

// TestDumpRoundTrip: dump's JSONL and CSV, read back through the loaders
// nfvtrain uses, are exactly the scenario's generated messages and tickets.
func TestDumpRoundTrip(t *testing.T) {
	path := writeScenario(t)
	dir := t.TempDir()
	tracePath, ticketsPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "t.csv")
	if err := execute("dump", "-trace", tracePath, "-tickets", ticketsPath, path); err != nil {
		t.Fatalf("dump: %v", err)
	}
	spec, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Messages) == 0 || len(want.Tickets) == 0 {
		t.Fatalf("scenario too small to test: %d messages, %d tickets", len(want.Messages), len(want.Tickets))
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	msgs, err := logfmt.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if len(msgs) != len(want.Messages) {
		t.Fatalf("dumped %d messages, generated %d", len(msgs), len(want.Messages))
	}
	for i := range msgs {
		g, w := msgs[i], want.Messages[i]
		if !g.Time.Equal(w.Time) {
			t.Fatalf("message %d time %v, want %v", i, g.Time, w.Time)
		}
		g.Time = w.Time
		if g != w {
			t.Fatalf("message %d = %+v, want %+v", i, g, w)
		}
	}

	kf, err := os.Open(ticketsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer kf.Close()
	tickets, err := ticket.ReadCSV(kf)
	if err != nil {
		t.Fatalf("read tickets: %v", err)
	}
	if len(tickets) != len(want.Tickets) {
		t.Fatalf("dumped %d tickets, generated %d", len(tickets), len(want.Tickets))
	}
	for i := range tickets {
		g, w := tickets[i], want.Tickets[i]
		if !g.Report.Equal(w.Report) || !g.Repair.Equal(w.Repair) {
			t.Fatalf("ticket %d times %v/%v, want %v/%v", i, g.Report, g.Repair, w.Report, w.Repair)
		}
		g.Report, g.Repair = w.Report, w.Repair
		if g != w {
			t.Fatalf("ticket %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestUsageGolden pins `nfvscen help` byte for byte: every subcommand,
// flag, default and usage string. On a deliberate change, copy the
// failure output into testdata/usage.golden.
func TestUsageGolden(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	want, err := os.ReadFile("testdata/usage.golden")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Fatalf("nfvscen help changed:\n%s", buf.String())
	}
}
