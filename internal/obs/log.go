package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int

// Levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level as emitted in the level= field.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Logger emits one structured key=value line per event:
//
//	ts=2018-02-03T04:05:06Z level=info msg=status messages=120 anomalies=3
//
// so the ticker, SIGHUP, and shutdown paths of a long-running binary all
// produce the same machine-parseable shape instead of drifting printf
// formats. A nil Logger drops everything; events below the configured
// level are dropped before formatting.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	now   func() time.Time // time.Now; tests fix it for exact log lines

	// Rate limiting for hot-path warning lines (WarnLimited). Guarded by
	// mu; nil buckets means unlimited.
	rateLimit  float64 // tokens refilled per second
	rateBurst  float64
	buckets    map[string]*logBucket
	suppressed *Counter
}

// logBucket is one key's token bucket.
type logBucket struct {
	tokens float64
	last   time.Time
}

// maxLogBuckets bounds the per-key bucket map; when full, the sweep drops
// buckets idle long enough to have fully refilled (forgetting them is
// equivalent to a full bucket).
const maxLogBuckets = 1024

// NewLogger returns a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level, now: time.Now}
}

// SetRateLimit enables per-key rate limiting for WarnLimited: each key may
// emit at most burst lines at once and refills at perSec lines per second.
// Suppressed lines increment the suppressed counter (nil-safe). perSec <= 0
// disables limiting.
func (l *Logger) SetRateLimit(perSec float64, burst int, suppressed *Counter) {
	if l == nil {
		return
	}
	if burst < 1 {
		burst = 1
	}
	l.mu.Lock()
	l.rateLimit = perSec
	l.rateBurst = float64(burst)
	l.suppressed = suppressed
	if perSec > 0 {
		l.buckets = make(map[string]*logBucket)
	} else {
		l.buckets = nil
	}
	l.mu.Unlock()
}

// WarnLimited logs at warn level subject to the per-key token bucket set by
// SetRateLimit; without a configured limit it behaves exactly like Warn.
// Use it on warning paths that can fire per-message (anomaly warnings, shed
// notices) so a misbehaving vPE cannot flood the log: the first burst lines
// per key pass, the rest are counted in log_suppressed_total instead.
func (l *Logger) WarnLimited(key, msg string, kv ...any) {
	if !l.Enabled(LevelWarn) {
		return
	}
	if !l.allow(key) {
		return
	}
	l.log(LevelWarn, msg, kv)
}

// allow takes one token from key's bucket, reporting whether the line may
// be emitted. Unlimited loggers always allow.
func (l *Logger) allow(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rateLimit <= 0 {
		return true
	}
	now := l.now()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxLogBuckets {
			l.sweepLocked(now)
		}
		b = &logBucket{tokens: l.rateBurst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rateLimit
		if b.tokens > l.rateBurst {
			b.tokens = l.rateBurst
		}
		b.last = now
	}
	if b.tokens < 1 {
		l.suppressed.Inc()
		return false
	}
	b.tokens--
	return true
}

// sweepLocked evicts buckets idle long enough to have refilled completely.
// If none qualify (burst of brand-new keys), it drops everything — losing a
// bucket only resets that key to a full burst, which is an acceptable
// failure mode for a bound on memory.
func (l *Logger) sweepLocked(now time.Time) {
	refill := time.Duration(l.rateBurst / l.rateLimit * float64(time.Second))
	for k, b := range l.buckets {
		if now.Sub(b.last) >= refill {
			delete(l.buckets, k)
		}
	}
	if len(l.buckets) >= maxLogBuckets {
		l.buckets = make(map[string]*logBucket)
	}
}

// Enabled reports whether a line at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Debug logs at debug level; kv is alternating key, value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	l.mu.Lock()
	defer l.mu.Unlock()
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format(time.RFC3339))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprint(kv[i]))
		b.WriteByte('=')
		b.WriteString(quoteValue(formatKV(kv[i+1])))
	}
	if len(kv)%2 == 1 {
		// An odd trailing value is a programming slip; surface it rather
		// than silently dropping it.
		b.WriteString(" _extra=")
		b.WriteString(quoteValue(formatKV(kv[len(kv)-1])))
	}
	b.WriteByte('\n')
	io.WriteString(l.w, b.String())
}

// formatKV renders one value compactly (RFC 3339 for times, %v otherwise).
func formatKV(v any) string {
	switch x := v.(type) {
	case time.Time:
		return x.UTC().Format(time.RFC3339)
	case time.Duration:
		return x.String()
	case float64:
		return strconv.FormatFloat(x, 'g', 6, 64)
	case error:
		return x.Error()
	default:
		return fmt.Sprint(v)
	}
}

// quoteValue quotes a value only when it needs it (spaces, quotes, '=', or
// control characters), keeping the common numeric fields unquoted.
func quoteValue(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
