// Package logfmt defines the syslog message model shared by the simulator,
// the ingestion server, and the analysis pipeline, with BSD-syslog
// (RFC 3164) wire formatting/parsing and a JSONL dataset codec for storing
// generated traces on disk.
package logfmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	return fmt.Sprintf("<%d>%s %s %s: %s", m.Pri(), m.Time.Format(time.Stamp), m.Host, m.Tag, m.Text)
}

// ErrBadFormat reports an unparseable syslog line.
var ErrBadFormat = errors.New("logfmt: malformed syslog line")

// Parse3164Bytes parses a raw frame holding a line produced by
// Format3164, the ingest hot path. RFC 3164 timestamps have no year, so the
// caller supplies one. The PRI and timestamp are parsed in place and only
// the tail from the host onward is copied into the message — the line's
// sole copy, so the caller may reuse the frame's buffer.
func Parse3164Bytes(line []byte, year int) (Message, error) {
	return parse3164(line, year)
}

// parse3164 is the shared RFC 3164 parser. Instantiated over string it
// slices without copying; over []byte each string(...) conversion is a
// copy, so conversions are kept to the timestamp field (15 bytes, parsed
// and dropped) and the single host+tag+text tail that outlives the call.
// The PRI field is parsed with parsePri — digits only, no fmt machinery.
func parse3164[T ~string | ~[]byte](line T, year int) (Message, error) {
	var m Message
	if len(line) < 5 || line[0] != '<' {
		return m, fmt.Errorf("%w: missing PRI in %q", ErrBadFormat, truncate(string(line)))
	}
	end := 0
	for i := 1; i < len(line) && i <= 4; i++ {
		if line[i] == '>' {
			end = i
			break
		}
	}
	if end < 2 {
		return m, fmt.Errorf("%w: bad PRI in %q", ErrBadFormat, truncate(string(line)))
	}
	pri := parsePri(line[1:end])
	if pri < 0 || pri > 191 {
		return m, fmt.Errorf("%w: bad PRI value in %q", ErrBadFormat, truncate(string(line)))
	}
	m.Facility = Facility(pri / 8)
	m.Severity = Severity(pri % 8)
	rest := line[end+1:]
	if len(rest) < len(time.Stamp)+1 {
		return m, fmt.Errorf("%w: short line %q", ErrBadFormat, truncate(string(line)))
	}
	ts, err := time.Parse(time.Stamp, string(rest[:len(time.Stamp)]))
	if err != nil {
		return m, fmt.Errorf("%w: bad timestamp in %q: %v", ErrBadFormat, truncate(string(line)), err)
	}
	m.Time = ts.AddDate(year, 0, 0)
	rest = rest[len(time.Stamp):]
	if len(rest) > 0 && rest[0] == ' ' {
		rest = rest[1:]
	}
	// host tag: text — find the boundaries first, convert the tail once.
	sp := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == ' ' {
			sp = i
			break
		}
	}
	if sp <= 0 {
		return m, fmt.Errorf("%w: missing host in %q", ErrBadFormat, truncate(string(line)))
	}
	colon := -1
	for i := sp + 1; i+1 < len(rest); i++ {
		if rest[i] == ':' && rest[i+1] == ' ' {
			colon = i
			break
		}
	}
	if colon <= sp+1 {
		return m, fmt.Errorf("%w: missing tag in %q", ErrBadFormat, truncate(string(line)))
	}
	tail := string(rest)
	m.Host = tail[:sp]
	m.Tag = tail[sp+1 : colon]
	m.Text = tail[colon+2:]
	return m, nil
}

// parsePri parses the digits between '<' and '>': 1–3 ASCII digits, no
// sign, no whitespace. -1 means malformed. (The RFC allows nothing else;
// this replaces a fmt.Sscanf that allocated per frame and tolerated
// trailing junk.)
func parsePri[T ~string | ~[]byte](digits T) int {
	v := 0
	for i := 0; i < len(digits); i++ {
		b := digits[i]
		if b < '0' || b > '9' {
			return -1
		}
		v = v*10 + int(b-'0')
	}
	return v
}

func truncate(s string) string {
	if len(s) > 64 {
		return s[:64] + "…"
	}
	return s
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
