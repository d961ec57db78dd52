// Package logfmt defines the syslog message model shared by the simulator,
// the ingestion server, and the analysis pipeline, with BSD-syslog
// (RFC 3164) wire formatting/parsing and a JSONL dataset codec for storing
// generated traces on disk.
package logfmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Severity is the syslog severity level (RFC 5424 §6.2.1).
type Severity int

// Syslog severities, most severe first.
const (
	Emergency Severity = iota
	Alert
	Critical
	Error
	Warning
	Notice
	Info
	Debug
)

// String returns the conventional severity keyword.
func (s Severity) String() string {
	names := [...]string{"emerg", "alert", "crit", "err", "warning", "notice", "info", "debug"}
	if s < 0 || int(s) >= len(names) {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return names[s]
}

// Facility is the syslog facility code (RFC 5424 §6.2.1).
type Facility int

// Common facilities used by router daemons.
const (
	FacKernel Facility = 0
	FacUser   Facility = 1
	FacDaemon Facility = 3
	FacAuth   Facility = 4
	FacLocal0 Facility = 16
	FacLocal7 Facility = 23
)

// TraceCtx is the observability context minted when a frame is accepted
// off the wire and carried with the message through the scoring pipeline.
// It is runtime-only state — never serialized to JSONL or the syslog wire
// form — so datasets round-trip unchanged. ID 0 means "untraced".
type TraceCtx struct {
	// ID is the trace identifier (obs.SpanID's integer form).
	ID uint64
	// Sampled marks messages chosen for full stage-clock instrumentation.
	Sampled bool
	// Accept is when the frame was accepted (before decode); span totals
	// are measured from here.
	Accept time.Time
	// DecodeNS is syslog parse time on the listener goroutine.
	DecodeNS int64
}

// Message is one syslog message as emitted by a (virtual or physical) PE
// router. Host carries the vPE name; Tag the emitting daemon.
type Message struct {
	// Time is the event time with full year (JSONL keeps it lossless;
	// the RFC 3164 wire form drops the year).
	Time time.Time `json:"t"`
	// Host is the emitting router, e.g. "vpe07".
	Host string `json:"host"`
	// Facility and Severity form the PRI value.
	Facility Facility `json:"fac"`
	Severity Severity `json:"sev"`
	// Tag is the daemon or process name, e.g. "rpd" or "chassisd".
	Tag string `json:"tag"`
	// Text is the free-form message body.
	Text string `json:"text"`
	// Trace is the runtime trace context (never serialized).
	Trace TraceCtx `json:"-"`
}

// Pri returns the RFC 3164 PRI value 8*facility + severity.
func (m *Message) Pri() int { return int(m.Facility)*8 + int(m.Severity) }

// Format3164 renders the message in BSD syslog format:
//
//	<PRI>Mmm dd hh:mm:ss host tag: text
func (m *Message) Format3164() string {
	b := make([]byte, 0, len("<191>")+len(time.Stamp)+len(m.Host)+len(m.Tag)+len(m.Text)+4)
	b = append(b, '<')
	b = strconv.AppendInt(b, int64(m.Pri()), 10)
	b = append(b, '>')
	b = m.Time.AppendFormat(b, time.Stamp)
	b = append(b, ' ')
	b = append(b, m.Host...)
	b = append(b, ' ')
	b = append(b, m.Tag...)
	b = append(b, ": "...)
	b = append(b, m.Text...)
	return string(b)
}

// ErrBadFormat reports an unparseable syslog line.
var ErrBadFormat = errors.New("logfmt: malformed syslog line")

// Parse3164Bytes parses a raw frame holding a line produced by
// Format3164. RFC 3164 timestamps have no year, so the caller supplies one.
// It is Parse3164Header plus one copy of the tail from the host onward, so
// the caller may reuse the frame's buffer.
func Parse3164Bytes(line []byte, year int) (Message, error) {
	var m Message
	tail, hostEnd, tagEnd, err := Parse3164Header(line, year, &m)
	if err != nil {
		return m, err
	}
	s := string(tail)
	m.Host, m.Tag, m.Text = s[:hostEnd], s[hostEnd+1:tagEnd], s[tagEnd+2:]
	return m, nil
}

// Parse3164Header is the ingest hot path's half of Parse3164Bytes: it
// decodes line's PRI and timestamp in place into m's Facility, Severity and
// Time, and returns the tail from the host onward with its field bounds —
// the host is tail[:hostEnd], the tag tail[hostEnd+1:tagEnd] and the text
// tail[tagEnd+2:]. It copies nothing and leaves m's other fields alone, so
// a caller can parse into the slot the message will live in and copy the
// tail wherever its strings should end up. tail aliases line.
func Parse3164Header(line []byte, year int, m *Message) (tail []byte, hostEnd, tagEnd int, err error) {
	if len(line) < 5 || line[0] != '<' {
		return nil, 0, 0, fmt.Errorf("%w: missing PRI in %q", ErrBadFormat, truncate(line))
	}
	end := 0
	for i := 1; i < len(line) && i <= 4; i++ {
		if line[i] == '>' {
			end = i
			break
		}
	}
	if end < 2 {
		return nil, 0, 0, fmt.Errorf("%w: bad PRI in %q", ErrBadFormat, truncate(line))
	}
	pri := parsePri(line[1:end])
	if pri < 0 || pri > 191 {
		return nil, 0, 0, fmt.Errorf("%w: bad PRI value in %q", ErrBadFormat, truncate(line))
	}
	m.Facility = Facility(pri / 8)
	m.Severity = Severity(pri % 8)
	rest := line[end+1:]
	if len(rest) < len(time.Stamp)+1 {
		return nil, 0, 0, fmt.Errorf("%w: short line %q", ErrBadFormat, truncate(line))
	}
	ts, ok := parseStamp(rest[:len(time.Stamp)], year)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: bad timestamp in %q", ErrBadFormat, truncate(line))
	}
	m.Time = ts
	rest = rest[len(time.Stamp):]
	if len(rest) > 0 && rest[0] == ' ' {
		rest = rest[1:]
	}
	// host tag: text
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return nil, 0, 0, fmt.Errorf("%w: missing host in %q", ErrBadFormat, truncate(line))
	}
	colon := -1
	for i := sp + 1; i+1 < len(rest); i++ {
		if rest[i] == ':' && rest[i+1] == ' ' {
			colon = i
			break
		}
	}
	if colon <= sp+1 {
		return nil, 0, 0, fmt.Errorf("%w: missing tag in %q", ErrBadFormat, truncate(line))
	}
	return rest, sp, colon, nil
}

// parsePri parses the digits between '<' and '>': 1–3 ASCII digits, no
// sign, no whitespace. -1 means malformed.
func parsePri(digits []byte) int {
	v := 0
	for _, b := range digits {
		if b < '0' || b > '9' {
			return -1
		}
		v = v*10 + int(b-'0')
	}
	return v
}

// parseStamp decodes a time.Stamp field ("Mmm _d hh:mm:ss") into year. It
// accepts exactly the fields time.Parse(time.Stamp, …) accepts: month names
// in any ASCII case, a run of spaces for each layout space, a 1–2-digit day
// and hour, 2-digit minute and second, and an optional ".ddd" or ",ddd"
// fraction; the day is checked against the month in leap year 0, where
// Parse checks it. The result is what time.Parse's value shifted by
// AddDate(year, 0, 0) would be, Feb 29 of a common year falling on Mar 1
// as AddDate's normalisation puts it. b is the line's
// len(time.Stamp)-byte field.
func parseStamp(b []byte, year int) (time.Time, bool) {
	month := 0
	key := uint32(b[0]|0x20)<<16 | uint32(b[1]|0x20)<<8 | uint32(b[2]|0x20)
	for i, k := range monthKeys {
		if k == key {
			month = i + 1
			break
		}
	}
	if month == 0 {
		return time.Time{}, false
	}
	if day, hour, minute, sec, ok := fixedStamp(b); ok {
		if hour > 23 || minute > 59 || sec > 59 || day < 1 || day > daysInYear0[month-1] {
			return time.Time{}, false
		}
		return stampTime(year, month, day, hour, minute, sec, 0), true
	}
	i, ok := stampSpace(b, 3)
	day, i, ok1 := stampNum(b, i, false)
	i, ok2 := stampSpace(b, i)
	hour, i, ok3 := stampNum(b, i, false)
	if !ok || !ok1 || !ok2 || !ok3 || hour > 23 || i >= len(b) || b[i] != ':' {
		return time.Time{}, false
	}
	minute, i, ok := stampNum(b, i+1, true)
	if !ok || minute > 59 || i >= len(b) || b[i] != ':' {
		return time.Time{}, false
	}
	sec, i, ok := stampNum(b, i+1, true)
	if !ok || sec > 59 {
		return time.Time{}, false
	}
	nsec := 0
	if i+1 < len(b) && (b[i] == '.' || b[i] == ',') && isDigit(b[i+1]) {
		// Parse keeps the first nine digits as nanoseconds and drops the rest.
		digits := 0
		for i++; i < len(b) && isDigit(b[i]); i++ {
			if digits < 9 {
				nsec = nsec*10 + int(b[i]-'0')
				digits++
			}
		}
		for ; digits < 9; digits++ {
			nsec *= 10
		}
	}
	if i != len(b) || day < 1 || day > daysInYear0[month-1] {
		return time.Time{}, false
	}
	return stampTime(year, month, day, hour, minute, sec, nsec), true
}

// fixedStamp reads the fields of a stamp in the layout Format3164 writes,
// "Jan _2 15:04:05" with every field in its place; ok is false for any
// other spelling, which parseStamp's general grammar then reads. The numbers are not range-checked. A space
// has 0 in its low nibble, so a space-padded day reads like a leading 0.
func fixedStamp(b []byte) (day, hour, minute, sec int, ok bool) {
	if b[3] != ' ' || b[6] != ' ' || b[9] != ':' || b[12] != ':' || (b[4] != ' ' && !isDigit(b[4])) ||
		!isDigit(b[5]) || !isDigit(b[7]) || !isDigit(b[8]) || !isDigit(b[10]) || !isDigit(b[11]) ||
		!isDigit(b[13]) || !isDigit(b[14]) {
		return 0, 0, 0, 0, false
	}
	two := func(i int) int { return int(b[i]&0xf)*10 + int(b[i+1]-'0') }
	return two(4), two(7), two(10), two(13), true
}

// stampTime is the UTC instant of a civil date and time in year.
func stampTime(year, month, day, hour, minute, sec, nsec int) time.Time {
	days := daysFromCivil(int64(year), month, day)
	return time.Unix(days*86400+int64(hour*3600+minute*60+sec), int64(nsec)).UTC()
}

// daysFromCivil returns the days from 1970-01-01 to the given proleptic
// Gregorian date (Hinnant's algorithm, in years that start on Mar 1 so the
// leap day is the last of its year). A day past the month's end runs on
// into the next month, so a common year's Feb 29 is its Mar 1.
func daysFromCivil(y int64, month, day int) int64 {
	if month <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era-- // floor division
	}
	yoe := y - era*400                               // [0, 399]
	doy := int64((153*((month+9)%12)+2)/5 + day - 1) // days since Mar 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// monthKeys are the lowercase month abbreviations packed three bytes to a
// word. OR-ing 0x20 into a byte folds only the matching upper-case letter
// onto a lower-case one, so a key compare is an ASCII case-insensitive
// match.
var monthKeys = [12]uint32{
	'j'<<16 | 'a'<<8 | 'n', 'f'<<16 | 'e'<<8 | 'b', 'm'<<16 | 'a'<<8 | 'r',
	'a'<<16 | 'p'<<8 | 'r', 'm'<<16 | 'a'<<8 | 'y', 'j'<<16 | 'u'<<8 | 'n',
	'j'<<16 | 'u'<<8 | 'l', 'a'<<16 | 'u'<<8 | 'g', 's'<<16 | 'e'<<8 | 'p',
	'o'<<16 | 'c'<<8 | 't', 'n'<<16 | 'o'<<8 | 'v', 'd'<<16 | 'e'<<8 | 'c',
}

// daysInYear0 is each month's length in year 0, a leap year.
var daysInYear0 = [12]int{31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// stampSpace consumes one layout space at b[i:]: a run of spaces, which
// must be non-empty unless the field has ended.
func stampSpace(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] != ' ' {
		return i, false
	}
	for i < len(b) && b[i] == ' ' {
		i++
	}
	return i, true
}

// stampNum reads the one or two digits at b[i:]; fixed requires two.
func stampNum(b []byte, i int, fixed bool) (v, next int, ok bool) {
	if i >= len(b) || !isDigit(b[i]) {
		return 0, i, false
	}
	if i+1 < len(b) && isDigit(b[i+1]) {
		return int(b[i]-'0')*10 + int(b[i+1]-'0'), i + 2, true
	}
	return int(b[i] - '0'), i + 1, !fixed
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func truncate(b []byte) string {
	if len(b) > 64 {
		return string(b[:64]) + "…"
	}
	return string(b)
}

// Writer streams messages to an io.Writer as JSON lines.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter returns a JSONL writer; call Flush when done.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one message.
func (w *Writer) Write(m *Message) error {
	if err := w.enc.Encode(m); err != nil {
		return fmt.Errorf("logfmt: encoding message: %w", err)
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams messages from a JSONL stream.
type Reader struct {
	sc *bufio.Scanner
}

// NewReader returns a JSONL reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Reader{sc: sc}
}

// Read returns the next message, or io.EOF when the stream ends.
func (r *Reader) Read() (Message, error) {
	var m Message
	for {
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				return m, fmt.Errorf("logfmt: reading dataset: %w", err)
			}
			return m, io.EOF
		}
		line := strings.TrimSpace(r.sc.Text())
		if line == "" {
			continue
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return m, fmt.Errorf("logfmt: decoding message: %w", err)
		}
		return m, nil
	}
}

// ReadAll consumes the stream and returns all messages.
func (r *Reader) ReadAll() ([]Message, error) {
	var out []Message
	for {
		m, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}
