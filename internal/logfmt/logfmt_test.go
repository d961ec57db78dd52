package logfmt

import (
	"bytes"
	"errors"
	"io"
	"strconv"
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

// ref3164 is the reference RFC 3164 parser the served one is held to:
// the same grammar over a string, with the timestamp decoded by
// time.Parse(time.Stamp, …) and placed in year with AddDate.
func ref3164(line string, year int) (Message, error) {
	var m Message
	if len(line) < 5 || line[0] != '<' {
		return m, ErrBadFormat
	}
	end := strings.IndexByte(line[:min(len(line), 5)], '>')
	if end < 2 {
		return m, ErrBadFormat
	}
	pri, err := strconv.Atoi(line[1:end])
	if err != nil || line[1] == '+' || line[1] == '-' || pri > 191 {
		return m, ErrBadFormat
	}
	m.Facility = Facility(pri / 8)
	m.Severity = Severity(pri % 8)
	rest := line[end+1:]
	if len(rest) < len(time.Stamp)+1 {
		return m, ErrBadFormat
	}
	ts, err := time.Parse(time.Stamp, rest[:len(time.Stamp)])
	if err != nil {
		return m, ErrBadFormat
	}
	m.Time = ts.AddDate(year, 0, 0)
	rest = strings.TrimPrefix(rest[len(time.Stamp):], " ")
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return m, ErrBadFormat
	}
	colon := strings.Index(rest[sp+1:], ": ")
	if colon <= 0 {
		return m, ErrBadFormat
	}
	m.Host = rest[:sp]
	m.Tag = rest[sp+1 : sp+1+colon]
	m.Text = rest[sp+1+colon+2:]
	return m, nil
}

// checkAgainstRef fails t unless Parse3164Bytes and ref3164 agree on line:
// the same Message, or both ErrBadFormat. The parsed message must also
// survive the caller scribbling over the frame, because the server reuses
// its read buffer after enqueue.
func checkAgainstRef(t *testing.T, line []byte, year int) (Message, bool) {
	t.Helper()
	want, werr := ref3164(string(line), year)
	buf := append([]byte(nil), line...)
	got, gerr := Parse3164Bytes(buf, year)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("Parse3164Bytes(%q, %d): err %v, reference err %v", line, year, gerr, werr)
	}
	if gerr != nil {
		if !errors.Is(gerr, ErrBadFormat) {
			t.Fatalf("Parse3164Bytes(%q) error not ErrBadFormat: %v", line, gerr)
		}
		return got, false
	}
	if got != want {
		t.Fatalf("Parse3164Bytes(%q, %d) = %+v, reference %+v", line, year, got, want)
	}
	for i := range buf {
		buf[i] = 'Z'
	}
	if got != want {
		t.Fatalf("Parse3164Bytes(%q) aliases its input buffer", line)
	}
	return got, true
}

// parseCorpus holds well-formed lines, the malformed family each parser
// must reject, and timestamp fields at the edges of time.Stamp's grammar.
func parseCorpus() []string {
	ref := mkMsg()
	return []string{
		ref.Format3164(),
		"<0>Jan  1 00:00:00 h t: x",
		"<191>Dec 31 23:59:59 edge-r1 chassisd: fan tray 2 removed",
		"<28>Mar 14 15:09:26 vpe07 rpd[1423]: task_timer: IPv6 fe80::1 down",
		"<28>Mar 14 15:09:26 vpe07 rpd:  leading space text",
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
		// Timestamp grammar: month case, space runs, short fields,
		// fractions, ranges, leap day and trailing junk.
		"<28>MAR 14 15:09:26 h t: x",
		"<28>mAr 14 15:09:26 h t: x",
		"<28>Mar 04 15:09:26 h t: x",
		"<28>Mar   4 5:09:26 h t: x",
		"<28>Mar 4  5:09:26 h t: x",
		"<28>Mar 4 5:09:26.7 h t: x",
		"<28>Mar 4 5:09:26,7 h t: x",
		"<28>Mar 4 5:09:26.x h t: x",
		"<28>Mar 4 5:09:26   h t: x",
		"<28>Mar14 15:09:26 h t: x",
		"<28> Mar 4 15:09:26 h t: x",
		"<28>Mar 14 24:00:00 h t: x",
		"<28>Mar 14 23:60:00 h t: x",
		"<28>Mar 14 23:00:60 h t: x",
		"<28>Mar 14 23:0:000 h t: x",
		"<28>Mar 00 15:09:26 h t: x",
		"<28>Apr 31 15:09:26 h t: x",
		"<28>Feb 29 15:09:26 h t: x",
		"<28>Feb 30 15:09:26 h t: x",
		"<28>Mä 14 15:09:26 h t: x",
		"<28>M@r 14 15:09:26 h t: x",
		"<28>Mar 14 15:09:26h t: x",
	}
}

// TestParse3164BytesMatchesString pins the served parser to the
// time.Parse-based reference: same fields on valid lines, same rejection
// (and same sentinel) on malformed ones, in a leap and a common year.
func TestParse3164BytesMatchesString(t *testing.T) {
	for _, line := range parseCorpus() {
		for _, year := range []int{2016, 2017} {
			checkAgainstRef(t, []byte(line), year)
		}
	}
}

// FuzzParse3164 holds the served parser to the reference on arbitrary
// lines and years, and a parsed message to a Format3164 round trip, which
// pins Format3164's bytes to the grammar the parser reads. The wire form
// carries no fraction and no year, and a common year's Feb 29 is Mar 1.
func FuzzParse3164(f *testing.F) {
	for _, line := range parseCorpus() {
		f.Add([]byte(line), 2017)
	}
	f.Add([]byte("<28>Feb 29 15:09:26 h t:: x"), 2016)
	f.Fuzz(func(t *testing.T, line []byte, year int) {
		year = year%10000 + 1
		m, ok := checkAgainstRef(t, line, year)
		if !ok {
			return
		}
		again, err := Parse3164Bytes([]byte(m.Format3164()), year)
		m.Time = m.Time.Truncate(time.Second)
		if err != nil || again != m {
			t.Fatalf("Parse3164Bytes(Format3164(%+v)) = %+v, %v", m, again, err)
		}
	})
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
