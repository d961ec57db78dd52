// Package faultinject is the runtime's fault-injection registry: named
// points in production code — checkpoint writes, bundle loads, shard
// drains and worker loops, the watchdog's clock, the adaptation cycle —
// that tests, the fault-soak scenario and the /chaos admin endpoint arm
// at runtime to fail, tear, fill, stall, panic or skew.
// A disarmed point costs one atomic pointer load, so the points ship in the
// binary. Every arming is deterministic (a mode, a count, a byte offset),
// so a failing test reproduces exactly. Tests arm a private Registry; a
// point's Writer wraps any io.Writer, which is how a test tears a file or
// connection write at a chosen byte offset.
package faultinject

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error an armed point returns unless its Arming
// overrides it.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrDiskFull is the injected error for the disk-full fault mode. It wraps
// ErrInjected so errors.Is(err, ErrInjected) still identifies it as
// synthetic.
var ErrDiskFull = fmt.Errorf("%w: no space left on device", ErrInjected)

// Mode names a fault behavior a Point can be armed with.
type Mode string

const (
	// ModeOff disarms the point.
	ModeOff Mode = "off"
	// ModeError makes Fire return an error (Arming.Err or ErrInjected).
	ModeError Mode = "error"
	// ModeDiskFull makes Fire / wrapped writers fail with ErrDiskFull.
	ModeDiskFull Mode = "disk-full"
	// ModeTorn makes a wrapped writer pass Arming.Bytes through, then fail
	// — a torn write at a byte offset, not an operation boundary.
	ModeTorn Mode = "torn"
	// ModePanic makes Fire panic, exercising recover paths.
	ModePanic Mode = "panic"
	// ModeSlow makes Fire sleep Arming.Delay before succeeding — a wedged
	// disk or GC stall, the food of watchdogs.
	ModeSlow Mode = "slow"
	// ModeSkew makes Skew report Arming.Skew — a clock-skewed heartbeat
	// that fools liveness math without touching real clocks.
	ModeSkew Mode = "skew"
)

var validModes = map[Mode]bool{
	ModeOff: true, ModeError: true, ModeDiskFull: true, ModeTorn: true,
	ModePanic: true, ModeSlow: true, ModeSkew: true,
}

// Valid reports whether m is a mode Arm accepts.
func (m Mode) Valid() bool { return validModes[m] }

// Arming is one activation of a fault point.
type Arming struct {
	// Mode selects the behavior.
	Mode Mode `json:"mode"`
	// Count is how many firings before the point auto-disarms; 0 means
	// "until explicitly disarmed".
	Count int64 `json:"count,omitempty"`
	// Delay is the ModeSlow stall.
	Delay time.Duration `json:"delay,omitempty"`
	// Bytes is the ModeTorn pass-through prefix.
	Bytes int64 `json:"bytes,omitempty"`
	// Skew is the ModeSkew clock offset.
	Skew time.Duration `json:"skew,omitempty"`
	// Err overrides the injected error for ModeError.
	Err error `json:"-"`
}

// arming is the armed state held behind an atomic pointer so the hot path
// (Fire on every message) is one pointer load when disarmed.
type arming struct {
	Arming
	remaining atomic.Int64 // counts down when Count > 0
}

// Point is one named place in the runtime where a fault can be injected.
// Production code calls Fire() (or wraps a writer / reads Skew) at the
// point; a disarmed point costs an atomic pointer load. Tests and the
// /chaos admin endpoint arm it at runtime.
type Point struct {
	name  string
	desc  string
	armed atomic.Pointer[arming]
	hits  atomic.Uint64 // total evaluations
	fired atomic.Uint64 // evaluations that injected
}

// Name returns the point's registry name.
func (p *Point) Name() string { return p.name }

// take consumes one firing from the armed state, handling Count-limited
// armings (auto-disarm on exhaustion). It returns nil when the point is
// disarmed or exhausted.
func (p *Point) take() *arming {
	a := p.armed.Load()
	if a == nil || a.Mode == ModeOff {
		return nil
	}
	if a.Count > 0 {
		if a.remaining.Add(-1) < 0 {
			// Exhausted; retire the arming (best effort — a racing Arm wins).
			p.armed.CompareAndSwap(a, nil)
			return nil
		}
	}
	p.fired.Add(1)
	return a
}

// Fire evaluates the point: nil when disarmed, an injected error for the
// error-like modes, a panic for ModePanic, a delayed nil for ModeSlow.
// ModeTorn behaves as ModeError at a bare Fire site (tearing needs a
// writer); ModeSkew never fails a Fire site. A nil Point never fires, so
// production paths can hold a nil point when no chaos registry is wired.
func (p *Point) Fire() error {
	if p == nil {
		return nil
	}
	p.hits.Add(1)
	a := p.take()
	if a == nil {
		return nil
	}
	switch a.Mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", p.name))
	case ModeSlow:
		if a.Delay > 0 {
			time.Sleep(a.Delay)
		}
		return nil
	case ModeSkew:
		return nil
	case ModeDiskFull:
		return ErrDiskFull
	default: // ModeError, ModeTorn
		if a.Err != nil {
			return a.Err
		}
		return ErrInjected
	}
}

// Skew returns the injected clock offset when armed with ModeSkew, else 0.
// It consumes a firing like Fire does. A nil Point reports no skew.
func (p *Point) Skew() time.Duration {
	if p == nil {
		return 0
	}
	p.hits.Add(1)
	a := p.armed.Load()
	if a == nil || a.Mode != ModeSkew {
		return 0
	}
	if a = p.take(); a == nil {
		return 0
	}
	return a.Skew
}

// tornWriter passes prefix bytes through then fails every write.
type tornWriter struct {
	w      io.Writer
	budget int64
	err    error
}

func (t *tornWriter) Write(b []byte) (int, error) {
	if t.budget <= 0 {
		return 0, t.err
	}
	allowed := int64(len(b))
	torn := false
	if allowed > t.budget {
		allowed, torn = t.budget, true
	}
	n, err := t.w.Write(b[:allowed])
	t.budget -= int64(n)
	if err == nil && torn {
		err = t.err
	}
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return n, err
}

type errWriter struct{ err error }

func (e errWriter) Write(b []byte) (int, error) { return 0, e.err }

type slowWriter struct {
	w     io.Writer
	delay time.Duration
}

func (s *slowWriter) Write(b []byte) (int, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
		s.delay = 0 // stall once per wrapped stream, not per chunk
	}
	return s.w.Write(b)
}

// Writer wraps w according to the point's current arming: torn writes tear
// at Arming.Bytes, disk-full fails immediately, slow stalls the first
// chunk, error modes fail every write. A disarmed (or nil) point returns w
// unchanged. The arming is consumed once per wrapped stream.
func (p *Point) Writer(w io.Writer) io.Writer {
	if p == nil {
		return w
	}
	p.hits.Add(1)
	a := p.take()
	if a == nil {
		return w
	}
	switch a.Mode {
	case ModeTorn:
		return &tornWriter{w: w, budget: a.Bytes, err: ErrInjected}
	case ModeDiskFull:
		return errWriter{err: ErrDiskFull}
	case ModeSlow:
		return &slowWriter{w: w, delay: a.Delay}
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", p.name))
	case ModeSkew:
		return w
	default:
		err := a.Err
		if err == nil {
			err = ErrInjected
		}
		return errWriter{err: err}
	}
}

// Registry is a named set of fault points. Production code registers its
// points at init or construction; tests and the /chaos endpoint arm them.
// The zero value is unusable; use NewRegistry or the package Default.
type Registry struct {
	mu     sync.Mutex
	points map[string]*Point
}

// Default is the process-wide registry; the runtime's built-in fault
// points live here so the /chaos endpoint and tests see the same set.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{points: make(map[string]*Point)}
}

// Point returns the named point, registering it (with desc) on first use.
// Registration is idempotent: the first description wins, later calls with
// the same name return the existing point.
func (r *Registry) Point(name, desc string) *Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		if p.desc == "" {
			p.desc = desc
		}
		return p
	}
	p := &Point{name: name, desc: desc}
	r.points[name] = p
	return p
}

// Arm activates the named point (registering it if needed, so a test can
// arm before the production path first evaluates it).
func (r *Registry) Arm(name string, a Arming) error {
	if !a.Mode.Valid() {
		return fmt.Errorf("faultinject: unknown mode %q", a.Mode)
	}
	p := r.Point(name, "")
	if a.Mode == ModeOff {
		p.armed.Store(nil)
		return nil
	}
	st := &arming{Arming: a}
	st.remaining.Store(a.Count)
	p.armed.Store(st)
	return nil
}

// Disarm deactivates the named point; unknown names are a no-op.
func (r *Registry) Disarm(name string) {
	r.mu.Lock()
	p := r.points[name]
	r.mu.Unlock()
	if p != nil {
		p.armed.Store(nil)
	}
}

// DisarmAll deactivates every point.
func (r *Registry) DisarmAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.points {
		p.armed.Store(nil)
	}
}

// PointStatus is one point's snapshot for the /chaos endpoint.
type PointStatus struct {
	Name  string  `json:"name"`
	Desc  string  `json:"desc,omitempty"`
	Armed *Arming `json:"armed,omitempty"`
	Hits  uint64  `json:"hits"`
	Fired uint64  `json:"fired"`
}

// Snapshot returns every point's status, sorted by name.
func (r *Registry) Snapshot() []PointStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PointStatus, 0, len(r.points))
	for _, p := range r.points {
		st := PointStatus{Name: p.name, Desc: p.desc, Hits: p.hits.Load(), Fired: p.fired.Load()}
		if a := p.armed.Load(); a != nil && a.Mode != ModeOff {
			cp := a.Arming
			st.Armed = &cp
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Handler serves the chaos admin surface:
//
//	GET  /          — JSON snapshot of every point
//	POST /arm?point=NAME&mode=MODE[&count=N][&delay=DUR][&bytes=N][&skew=DUR]
//	                — NAME must be a registered point (400 lists them)
//	POST /disarm[?point=NAME] — disarm one point, or all when omitted
//
// Mount it behind an admin-only listener; arming faults in production is a
// deliberately sharp tool (that is the point of a chaos drill).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Points []PointStatus `json:"points"`
		}{r.Snapshot()})
	})
	mux.HandleFunc("/arm", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		name := q.Get("point")
		if name == "" {
			http.Error(w, "point parameter required", http.StatusBadRequest)
			return
		}
		var known []string // a point nothing registered can never fire
		for _, p := range r.Snapshot() {
			known = append(known, p.Name)
		}
		if !slices.Contains(known, name) {
			http.Error(w, fmt.Sprintf("unknown point %q; known points: %s", name, strings.Join(known, ", ")),
				http.StatusBadRequest)
			return
		}
		a := Arming{Mode: Mode(q.Get("mode"))}
		var err error
		if v := q.Get("count"); v != "" {
			if a.Count, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad count: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("bytes"); v != "" {
			if a.Bytes, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad bytes: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("delay"); v != "" {
			if a.Delay, err = time.ParseDuration(v); err != nil {
				http.Error(w, "bad delay: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("skew"); v != "" {
			if a.Skew, err = time.ParseDuration(v); err != nil {
				http.Error(w, "bad skew: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if err := r.Arm(name, a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "armed %s mode=%s\n", name, a.Mode)
	})
	mux.HandleFunc("/disarm", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if name := req.URL.Query().Get("point"); name != "" {
			r.Disarm(name)
			fmt.Fprintf(w, "disarmed %s\n", name)
			return
		}
		r.DisarmAll()
		fmt.Fprintln(w, "disarmed all points")
	})
	return mux
}
