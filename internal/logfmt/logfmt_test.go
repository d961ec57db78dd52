package logfmt

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mkMsg() Message {
	return Message{
		Time:     time.Date(2017, 3, 14, 15, 9, 26, 0, time.UTC),
		Host:     "vpe07",
		Facility: FacDaemon,
		Severity: Warning,
		Tag:      "rpd",
		Text:     "BGP peer 10.0.0.1 state change to Idle",
	}
}

func TestPri(t *testing.T) {
	m := mkMsg()
	if m.Pri() != 3*8+4 {
		t.Fatalf("Pri=%d", m.Pri())
	}
}

func TestSeverityString(t *testing.T) {
	if Error.String() != "err" || Info.String() != "info" || Emergency.String() != "emerg" {
		t.Fatal("severity names wrong")
	}
	if !strings.Contains(Severity(42).String(), "42") {
		t.Fatal("out-of-range severity should include the number")
	}
}

func TestFormat3164(t *testing.T) {
	m := mkMsg()
	line := m.Format3164()
	want := "<28>Mar 14 15:09:26 vpe07 rpd: BGP peer 10.0.0.1 state change to Idle"
	if line != want {
		t.Fatalf("got %q want %q", line, want)
	}
}

func TestParse3164RoundTrip(t *testing.T) {
	m := mkMsg()
	got, err := Parse3164Bytes([]byte(m.Format3164()), 2017)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(m.Time) {
		t.Fatalf("time: got %v want %v", got.Time, m.Time)
	}
	if got.Host != m.Host || got.Tag != m.Tag || got.Text != m.Text {
		t.Fatalf("fields: %+v", got)
	}
	if got.Facility != m.Facility || got.Severity != m.Severity {
		t.Fatalf("pri fields: %+v", got)
	}
}

func TestParse3164RoundTripProperty(t *testing.T) {
	f := func(host, tag, text string, fac uint8, sev uint8, unix int64) bool {
		clean := func(s string, allowSpace bool) string {
			return strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
					return r
				}
				if allowSpace && r == ' ' {
					return r
				}
				return -1
			}, strings.ToLower(s))
		}
		host = clean(host, false)
		tag = clean(tag, false)
		text = strings.TrimSpace(clean(text, true))
		if host == "" || tag == "" || text == "" {
			return true
		}
		m := Message{
			Time:     time.Unix(1480000000+(unix%86400*300), 0).UTC(),
			Host:     host,
			Facility: Facility(fac % 24),
			Severity: Severity(sev % 8),
			Tag:      tag,
			Text:     text,
		}
		got, err := Parse3164Bytes([]byte(m.Format3164()), m.Time.Year())
		if err != nil {
			return false
		}
		return got.Host == m.Host && got.Tag == m.Tag && got.Text == m.Text &&
			got.Facility == m.Facility && got.Severity == m.Severity &&
			got.Time.Equal(m.Time)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParse3164Malformed(t *testing.T) {
	bad := []string{
		"",
		"no pri at all",
		"<>Mar 14 15:09:26 h t: x",
		"<999>Mar 14 15:09:26 h t: x",
		"<28>not a timestamp here h t: x",
		"<28>Mar 14 15:09:26",
		"<28>Mar 14 15:09:26 hostonly",
		"<28>Mar 14 15:09:26 host notag",
	}
	for _, line := range bad {
		if _, err := Parse3164Bytes([]byte(line), 2017); err == nil {
			t.Errorf("Parse3164Bytes(%q) should fail", line)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("Parse3164Bytes(%q) error not ErrBadFormat: %v", line, err)
		}
	}
}

// TestParse3164BytesMatchesString pins the served instance of the parser to
// its string instance, which slices the line without copying: same fields
// on valid lines, same rejection (and same sentinel) on malformed ones. The
// byte path may not share the input's memory — the server reuses its read
// buffer after enqueue.
func TestParse3164BytesMatchesString(t *testing.T) {
	ref := mkMsg()
	lines := []string{
		ref.Format3164(),
		"<0>Jan  1 00:00:00 h t: x",
		"<191>Dec 31 23:59:59 edge-r1 chassisd: fan tray 2 removed",
		"<28>Mar 14 15:09:26 vpe07 rpd[1423]: task_timer: IPv6 fe80::1 down",
		"<28>Mar 14 15:09:26 vpe07 rpd:  leading space text",
		// Malformed family: each entry point must reject the same inputs.
		"",
		"no pri at all",
		"<>Mar 14 15:09:26 h t: x",
		"<28a>Mar 14 15:09:26 h t: x",
		"< 28>Mar 14 15:09:26 h t: x",
		"<+28>Mar 14 15:09:26 h t: x",
		"<999>Mar 14 15:09:26 h t: x",
		"<28>not a timestamp here h t: x",
		"<28>Mar 14 15:09:26",
		"<28>Mar 14 15:09:26 hostonly",
		"<28>Mar 14 15:09:26 host notag",
		"<28>Mar 14 15:09:26 host : emptytag",
	}
	for _, line := range lines {
		sm, serr := parse3164(line, 2017)
		buf := []byte(line)
		bm, berr := Parse3164Bytes(buf, 2017)
		if (serr == nil) != (berr == nil) {
			t.Fatalf("Parse3164(%q): string err %v, bytes err %v", line, serr, berr)
		}
		if serr != nil {
			if !errors.Is(berr, ErrBadFormat) {
				t.Fatalf("Parse3164Bytes(%q) error not ErrBadFormat: %v", line, berr)
			}
			continue
		}
		if sm.Host != bm.Host || sm.Tag != bm.Tag || sm.Text != bm.Text ||
			sm.Facility != bm.Facility || sm.Severity != bm.Severity || !sm.Time.Equal(bm.Time) {
			t.Fatalf("Parse3164(%q): string %+v, bytes %+v", line, sm, bm)
		}
		// The message must survive the caller scribbling over the frame.
		for i := range buf {
			buf[i] = 'Z'
		}
		if bm.Host != sm.Host || bm.Tag != sm.Tag || bm.Text != sm.Text {
			t.Fatalf("Parse3164Bytes(%q) aliases its input buffer", line)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	msgs := []Message{mkMsg(), mkMsg(), mkMsg()}
	msgs[1].Host = "vpe13"
	msgs[2].Text = "unicode: ünïcode / tab\tseparated"
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range msgs {
		if err := w.Write(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d messages", len(got))
	}
	for i := range msgs {
		if got[i].Host != msgs[i].Host || got[i].Text != msgs[i].Text || !got[i].Time.Equal(msgs[i].Time) {
			t.Fatalf("msg %d mismatch: %+v vs %+v", i, got[i], msgs[i])
		}
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	input := "\n\n{\"t\":\"2017-01-01T00:00:00Z\",\"host\":\"v\",\"fac\":3,\"sev\":6,\"tag\":\"x\",\"text\":\"y\"}\n\n"
	got, err := NewReader(strings.NewReader(input)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Host != "v" {
		t.Fatalf("got %+v", got)
	}
}

func TestReaderBadJSON(t *testing.T) {
	r := NewReader(strings.NewReader("{broken\n"))
	if _, err := r.Read(); err == nil {
		t.Fatal("expected error")
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func BenchmarkFormat3164(b *testing.B) {
	m := mkMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Format3164()
	}
}

func BenchmarkParse3164(b *testing.B) {
	m := mkMsg()
	line := []byte(m.Format3164())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse3164Bytes(line, 2017); err != nil {
			b.Fatal(err)
		}
	}
}
