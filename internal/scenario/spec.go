package scenario

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/resilience"
	"nfvpredict/internal/ticket"
)

// Spec is a parsed, validated scenario. A field's dsl tag is its key in
// the scenario document; the decoder reads nothing else, so the tags are
// also the known-key lists of `nfvscen validate`.
type Spec struct {
	// Name identifies the scenario in reports and /statusz.
	Name string `dsl:"name"`
	// Description is a one-line human summary.
	Description string `dsl:"description"`
	// Seed drives every random choice (simulation and training).
	Seed int64 `dsl:"seed"`
	// File is the source path when loaded from disk ("" for inline specs).
	File string

	Fleet     FleetSpec     `dsl:"fleet"`
	Train     TrainSpec     `dsl:"train"`
	Serve     ServeSpec     `dsl:"serve"`
	Lifecycle LifecycleSpec `dsl:"lifecycle"`
	Timeline  []Event       `dsl:"timeline"`
	Assert    AssertSpec    `dsl:"assert"`
}

// FleetSpec mirrors the nfvsim Config knobs the DSL exposes.
type FleetSpec struct {
	VPEs                  int           `dsl:"vpes"`
	Months                int           `dsl:"months"`
	Start                 time.Time     `dsl:"start"`
	BaseRatePerHour       float64       `dsl:"base_rate_per_hour"`
	Roles                 int           `dsl:"roles"`
	MeanFaultGapHours     float64       `dsl:"mean_fault_gap_hours"`
	MaintenanceEvery      time.Duration `dsl:"maintenance_every"`
	DupProb               float64       `dsl:"dup_prob"`
	CoreIncidentsPerMonth float64       `dsl:"core_incidents_per_month"`
	UpdateMonth           int           `dsl:"update_month"`
	UpdateFraction        float64       `dsl:"update_fraction"`
	GlitchesPerDay        float64       `dsl:"glitches_per_day"`
}

// TrainSpec controls the bootstrap-training phase.
type TrainSpec struct {
	// Months is the number of leading months used for training; the
	// serve phase replays the rest of the horizon.
	Months int `dsl:"months"`
	// Clusters is the per-role model count (1 = single fleet model).
	Clusters int `dsl:"clusters"`
	// Hidden, Epochs, MaxVocab override the LSTM configuration.
	Hidden   []int `dsl:"hidden"`
	Epochs   int   `dsl:"epochs"`
	MaxVocab int   `dsl:"max_vocab"`
	// Exclusion is the ticket-exclusion window for clean training data.
	Exclusion time.Duration `dsl:"exclusion"`
}

// ServeSpec controls the serving stack.
type ServeSpec struct {
	// Shards is the monitor's shard count.
	Shards int `dsl:"shards"`
	// Threshold is the anomaly threshold.
	Threshold float64 `dsl:"threshold"`
	// Admin enables the obs admin surface (/statusz scenario metadata)
	// on a loopback listener for the duration of the run.
	Admin bool `dsl:"admin"`
}

// LifecycleSpec enables and tunes online adaptation.
type LifecycleSpec struct {
	Enabled    bool    `dsl:"enabled"`
	GateBudget float64 `dsl:"gate_budget"`
	WindowLen  int     `dsl:"window_len"`
	MinWindows int     `dsl:"min_windows"`
}

// Event kinds. Sim-side kinds compile to nfvsim.Injections; runner-side
// kinds execute at their trace-time offset during the serve phase.
const (
	EventFault      = "fault"      // sim: fault episode(s) with ticket(s)
	EventBurst      = "burst"      // sim: ticketless anomaly burst
	EventChaos      = "chaos"      // runner: arm a faultinject point
	EventAdapt      = "adapt"      // runner: trigger a lifecycle cycle
	EventCheckpoint = "checkpoint" // runner: checkpoint + restore parity
	EventDegrade    = "degrade"    // runner: switch monitor degrade mode
)

// eventKinds are the keys that name a timeline entry's event.
var eventKinds = []string{EventFault, EventBurst, EventChaos, EventAdapt, EventCheckpoint, EventDegrade}

// injectKinds are the sim-side event kinds; the runner executes the others
// during the serve phase.
var injectKinds = map[string]nfvsim.InjectionKind{EventFault: nfvsim.InjectFault, EventBurst: nfvsim.InjectBurst}

// Event is one timeline entry: its tagged fields with no kinds tag, which
// every entry needs, plus one event kind whose body sets the fields whose
// kinds tag names that kind.
type Event struct {
	// At is the offset from trace start.
	At time.Duration `dsl:"at"`
	// Kind is one of the Event* constants.
	Kind string
	// Line is the source line (error messages and reports).
	Line int

	Cause      string        `dsl:"cause" kinds:"fault burst"`
	VPEs       []string      `dsl:"vpes" kinds:"fault burst"`
	Fraction   float64       `dsl:"fraction" kinds:"fault burst"`
	Duration   time.Duration `dsl:"duration" kinds:"fault"`
	Duplicates int           `dsl:"duplicates" kinds:"fault"`
	Messages   int           `dsl:"messages" kinds:"burst"`
	Repeat     int           `dsl:"repeat" kinds:"fault burst"`
	Every      time.Duration `dsl:"every" kinds:"fault burst"`

	Point string        `dsl:"point" kinds:"chaos"`
	Mode  string        `dsl:"mode" kinds:"chaos"`
	Count int           `dsl:"count" kinds:"chaos"`
	Delay time.Duration `dsl:"delay" kinds:"chaos"`
	Bytes int           `dsl:"bytes" kinds:"chaos"`
	Skew  time.Duration `dsl:"skew" kinds:"chaos"`

	Forced bool `dsl:"forced" kinds:"adapt"`

	DegradeMode string `dsl:"mode" kinds:"degrade"`
}

// AssertSpec is the declarative assertion block. Nil pointers mean
// "not asserted". A field tagged floor:"m" (ceiling:"m") asserts that the
// run's metric m is at least (at most) its value.
type AssertSpec struct {
	MinWarnings        *int     `dsl:"min_warnings" floor:"eval_warnings"`
	MaxWarnings        *int     `dsl:"max_warnings" ceiling:"eval_warnings"`
	MaxFARPerDay       *float64 `dsl:"max_far_per_day" ceiling:"far_per_day"`
	MinPrecision       *float64 `dsl:"min_precision" floor:"precision"`
	MinRecall          *float64 `dsl:"min_recall" floor:"recall"`
	MinDetected        *int     `dsl:"min_detected" floor:"eval_detected"`
	MinEarlyTickets    *int     `dsl:"min_early_tickets" floor:"eval_early_tickets"`
	MinMeanLeadMinutes *float64 `dsl:"min_mean_lead_minutes" floor:"mean_lead_minutes"`
	MinFalseAlarms     *int     `dsl:"min_false_alarms" floor:"eval_false_alarms"`
	MaxFalseAlarms     *int     `dsl:"max_false_alarms" ceiling:"eval_false_alarms"`
	// CheckpointParity requires at least one checkpoint event, all with
	// restore parity intact.
	CheckpointParity bool `dsl:"checkpoint_parity"`
	// ZeroDrops asserts the serving path dropped nothing (default true —
	// the runner paces feeding so drops indicate a harness bug).
	ZeroDrops bool             `dsl:"zero_drops"`
	Lifecycle *LifecycleAssert `dsl:"lifecycle"`
	Chaos     []ChaosAssert    `dsl:"chaos"`
	Metrics   []MetricAssert   `dsl:"metrics"`
}

// LifecycleAssert checks adaptation outcomes.
type LifecycleAssert struct {
	MinCycles     *int   `dsl:"min_cycles" floor:"lifecycle_cycles"`
	MinPromotions *int   `dsl:"min_promotions" floor:"lifecycle_promotions"`
	Breaker       string `dsl:"breaker"` // "", "closed", "open"
}

// ChaosAssert checks a fault point's injected-failure count.
type ChaosAssert struct {
	Point    string `dsl:"point"`
	MinFired uint64 `dsl:"min_fired"`
}

// MetricAssert checks one runner-exported metric value (see metrics).
type MetricAssert struct {
	Name string   `dsl:"name"`
	Min  *float64 `dsl:"min"`
	Max  *float64 `dsl:"max"`
}

// chaosPoints are the fault points a chaos event may arm: those the
// serving stack evaluates on its own registry while the timeline runs.
// bundle.load fires only on faultinject.Default.
var chaosPoints = []string{
	"checkpoint.write",
	"heartbeat.skew",
	"lifecycle.cycle",
	"shard.score",
	"shard.worker",
}

// causeByName maps DSL cause names to ticket root causes.
var causeByName = map[string]ticket.RootCause{
	"circuit":  ticket.Circuit,
	"software": ticket.Software,
	"cable":    ticket.Cable,
	"hardware": ticket.Hardware,
}

// degradeModes maps the monitor's degrade mode names to the modes.
var degradeModes = map[string]resilience.Mode{
	resilience.ModeNormal.String():       resilience.ModeNormal,
	resilience.ModeShedLearning.String(): resilience.ModeShedLearning,
	resilience.ModeShedScoring.String():  resilience.ModeShedScoring,
}

// defaultSpec is the scenario every document starts from.
func defaultSpec() *Spec {
	return &Spec{
		Seed: 1,
		Fleet: FleetSpec{
			VPEs:              6,
			Months:            3,
			Start:             time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			BaseRatePerHour:   1.2,
			Roles:             4,
			MeanFaultGapHours: 300,
			MaintenanceEvery:  35 * 24 * time.Hour,
			DupProb:           0.25,
			UpdateMonth:       -1,
			UpdateFraction:    0.8,
			GlitchesPerDay:    0.08,
		},
		Train: TrainSpec{
			Months:    1,
			Clusters:  1,
			Hidden:    []int{16},
			Epochs:    4,
			MaxVocab:  48,
			Exclusion: 72 * time.Hour,
		},
		Serve: ServeSpec{
			Shards:    4,
			Threshold: 6,
		},
		Lifecycle: LifecycleSpec{
			GateBudget: 1.0,
			WindowLen:  16,
			MinWindows: 4,
		},
		Assert: AssertSpec{ZeroDrops: true},
	}
}

// itemDefaults seeds each list item of these types before its keys apply.
var itemDefaults = map[reflect.Type]any{
	reflect.TypeOf(Event{}):       Event{Repeat: 1},
	reflect.TypeOf(ChaosAssert{}): ChaosAssert{MinFired: 1},
}

// Load parses and validates a scenario document.
func Load(src []byte) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	spec := defaultSpec()
	d := &dec{}
	d.value(root, reflect.ValueOf(spec).Elem(), "")
	if err := errors.Join(d.errs...); err != nil {
		return nil, err
	}
	sort.SliceStable(spec.Timeline, func(i, j int) bool { return spec.Timeline[i].At < spec.Timeline[j].At })
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// LoadFile loads a scenario from disk.
func LoadFile(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := Load(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spec.File = path
	return spec, nil
}

// dec decodes a parsed document into the tagged structs above,
// accumulating positioned errors.
type dec struct {
	errs []error
}

func (d *dec) errf(line int, format string, args ...any) {
	d.errs = append(d.errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

// want reports whether n is of the given kind, and an error if not.
func (d *dec) want(n *yNode, kind yKind, path string) bool {
	if n.kind != kind {
		d.errf(n.line, "%s must be %s", pathName(path), [...]string{yScalar: "a scalar", yMap: "a mapping", ySeq: "a list"}[kind])
	}
	return n.kind == kind
}

var (
	durationType = reflect.TypeOf(time.Duration(0))
	dateType     = reflect.TypeOf(time.Time{})
	eventType    = reflect.TypeOf(Event{})
)

// value decodes n into v, which path ("fleet.vpes", "timeline[2]") names
// in error messages. It handles exactly the field types the DSL uses; any
// other type is a programming error and panics.
func (d *dec) value(n *yNode, v reflect.Value, path string) {
	t := v.Type()
	switch {
	case t == eventType:
		d.event(n, v, path)
		return
	case t.Kind() == reflect.Struct && t != dateType:
		if d.want(n, yMap, path) {
			d.fields(n, v, path, "", nil)
		}
		return
	case t.Kind() == reflect.Pointer:
		p := reflect.New(t.Elem())
		d.value(n, p.Elem(), path)
		v.Set(p)
		return
	case t.Kind() == reflect.Slice:
		d.list(n, v, path)
		return
	}
	if !d.want(n, yScalar, path) {
		return
	}
	s, bad := n.scalar, ""
	switch {
	case t == durationType: // "90m", "3h", or the day extension "45d" / "2.5d"
		dur, err := time.ParseDuration(s)
		if days, derr := strconv.ParseFloat(strings.TrimSuffix(s, "d"), 64); derr == nil && strings.HasSuffix(s, "d") {
			dur, err = time.Duration(days*24*float64(time.Hour)), nil
		}
		v.SetInt(int64(dur))
		if err != nil {
			bad = "a duration (use 30m/3h/45d)"
		}
	case t == dateType:
		date, err := time.Parse("2006-01-02", s)
		if err != nil {
			bad = "a date (YYYY-MM-DD)"
		} else {
			v.Set(reflect.ValueOf(date))
		}
	case t.Kind() == reflect.String:
		v.SetString(s)
	case t.Kind() == reflect.Int || t.Kind() == reflect.Int64:
		i, err := strconv.ParseInt(s, 10, t.Bits())
		v.SetInt(i)
		if err != nil {
			bad = "an integer"
		}
	case t.Kind() == reflect.Uint64:
		u, err := strconv.ParseUint(s, 10, 64)
		v.SetUint(u)
		if err != nil {
			bad = "a non-negative integer"
		}
	case t.Kind() == reflect.Float64:
		f, err := strconv.ParseFloat(s, 64)
		v.SetFloat(f)
		if err != nil {
			bad = "a number"
		}
	case t.Kind() == reflect.Bool:
		switch s {
		case "true", "yes", "on":
			v.SetBool(true)
		case "false", "no", "off":
			v.SetBool(false)
		default:
			bad = "a boolean"
		}
	default:
		panic("scenario: no DSL decoding for field type " + t.String())
	}
	if bad != "" {
		d.errf(n.line, "%s: not %s: %q", path, bad, s)
	}
}

// list decodes a sequence into the slice v; a bare scalar is a one-item
// list of strings.
func (d *dec) list(n *yNode, v reflect.Value, path string) {
	items := n.items
	if n.kind == yScalar && v.Type().Elem().Kind() == reflect.String {
		items = []*yNode{n}
	} else if !d.want(n, ySeq, path) {
		return
	}
	out := reflect.MakeSlice(v.Type(), len(items), len(items))
	for i, item := range items {
		if def, ok := itemDefaults[v.Type().Elem()]; ok {
			out.Index(i).Set(reflect.ValueOf(def))
		}
		d.value(item, out.Index(i), fmt.Sprintf("%s[%d]", path, i))
	}
	v.Set(out)
}

// fields decodes mapping n into struct v: each entry sets the field whose
// dsl tag is its key, among the fields whose kinds tag names kind (kind
// "" selects the fields with no kinds tag). Any other key is an error,
// unless skip lists it for the caller to decode.
func (d *dec) fields(n *yNode, v reflect.Value, path, kind string, skip []string) {
	index := keys(v.Type(), kind)
	for _, e := range n.entries {
		if i, ok := index[e.key]; ok {
			d.value(e.val, v.Field(i), joinPath(path, e.key))
		} else if !slices.Contains(skip, e.key) {
			known := slices.Clone(skip)
			for k := range index {
				known = append(known, k)
			}
			sort.Strings(known)
			d.errf(e.line, "unknown key %q in %s (known: %s)", e.key, pathName(path), strings.Join(known, ", "))
		}
	}
}

// keys maps the dsl tag of each field of t that a document may set under
// kind to the field's index.
func keys(t reflect.Type, kind string) map[string]int {
	index := make(map[string]int)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		kinds := strings.Fields(f.Tag.Get("kinds"))
		if key := f.Tag.Get("dsl"); key != "" && (len(kinds) == 0 && kind == "" || slices.Contains(kinds, kind)) {
			index[key] = i
		}
	}
	return index
}

// event decodes one timeline entry: its common keys and exactly one event
// kind, whose body may be empty (a bare "checkpoint:").
func (d *dec) event(n *yNode, v reflect.Value, path string) {
	if !d.want(n, yMap, path) {
		return
	}
	ev := v.Addr().Interface().(*Event)
	ev.Line = n.line
	d.fields(n, v, path, "", eventKinds)
	for key := range keys(eventType, "") {
		if !slices.ContainsFunc(n.entries, func(e yEntry) bool { return e.key == key }) {
			d.errf(n.line, "timeline entry needs an \"%s:\" offset", key)
		}
	}
	for _, e := range n.entries {
		if !slices.Contains(eventKinds, e.key) {
			continue
		}
		if ev.Kind != "" {
			d.errf(e.line, "timeline entry has both %q and %q — one event kind per entry", ev.Kind, e.key)
			continue
		}
		ev.Kind = e.key
		body := e.val
		if body.kind == yScalar && body.scalar == "" {
			body = &yNode{line: e.line, kind: yMap}
		}
		if d.want(body, yMap, joinPath(path, e.key)) {
			d.fields(body, v, joinPath(path, e.key), e.key, nil)
		}
	}
	if ev.Kind == "" {
		d.errf(n.line, "timeline entry needs an event (%s)", strings.Join(eventKinds, "/"))
	}
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// pathName names the value at path in messages; the root is "scenario".
func pathName(path string) string {
	if path == "" {
		return "scenario"
	}
	return path
}

// check reports a name in the event's body that the runner does not know.
func (ev *Event) check() error {
	switch ev.Kind {
	case EventFault, EventBurst:
		if _, ok := causeByName[ev.Cause]; ok || ev.Cause == "" && ev.Kind == EventBurst {
			return nil
		}
		if ev.Cause == "" {
			return errors.New("fault needs a cause (circuit/software/cable/hardware)")
		}
		return fmt.Errorf("unknown %s cause %q (circuit/software/cable/hardware)", ev.Kind, ev.Cause)
	case EventChaos:
		if !slices.Contains(chaosPoints, ev.Point) {
			return fmt.Errorf("unknown chaos point %q (known: %s)", ev.Point, strings.Join(chaosPoints, ", "))
		}
		if m := faultinject.Mode(ev.Mode); !m.Valid() || m == faultinject.ModeOff {
			return fmt.Errorf("unknown chaos mode %q (error/disk-full/torn/panic/slow/skew)", ev.Mode)
		}
	case EventDegrade:
		if _, ok := degradeModes[ev.DegradeMode]; !ok {
			return fmt.Errorf("degrade.mode must be normal/shed-scoring/shed-learning, got %q", ev.DegradeMode)
		}
	}
	return nil
}

// checkNames reports every name in the spec that the runner does not
// know: an event's cause, fault point or mode, an assertion's breaker
// state, fault point or metric.
func (s *Spec) checkNames() error {
	var errs []error
	for i := range s.Timeline {
		if err := s.Timeline[i].check(); err != nil {
			errs = append(errs, fmt.Errorf("line %d: %w", s.Timeline[i].Line, err))
		}
	}
	a := &s.Assert
	if la := a.Lifecycle; la != nil && la.Breaker != "" && la.Breaker != "closed" && la.Breaker != "open" {
		errs = append(errs, fmt.Errorf("assert.lifecycle.breaker must be closed or open, got %q", la.Breaker))
	}
	for i, ca := range a.Chaos {
		if !slices.Contains(chaosPoints, ca.Point) {
			errs = append(errs, fmt.Errorf("assert.chaos[%d]: unknown chaos point %q (known: %s)", i, ca.Point, strings.Join(chaosPoints, ", ")))
		}
	}
	for i, ma := range a.Metrics {
		if _, ok := metricByName(ma.Name); !ok {
			names := make([]string, len(metrics))
			for j, m := range metrics {
				names[j] = m.name
			}
			errs = append(errs, fmt.Errorf("assert.metrics[%d]: unknown metric %q (known: %s)", i, ma.Name, strings.Join(names, ", ")))
		}
		if ma.Min == nil && ma.Max == nil {
			errs = append(errs, fmt.Errorf("assert.metrics[%d]: metric assertion needs min and/or max", i))
		}
	}
	return errors.Join(errs...)
}

// Validate checks the names the spec uses and its cross-field
// consistency, and compiles the fleet config once to reuse nfvsim's own
// validation.
func (s *Spec) Validate() error {
	if err := s.checkNames(); err != nil {
		return err
	}
	f := &s.Fleet
	switch {
	case s.Name == "":
		return errors.New("scenario: must have a name")
	case f.Months < 2:
		return fmt.Errorf("scenario: fleet.months must be ≥ 2 (train + serve), got %d", f.Months)
	case s.Train.Months < 1 || s.Train.Months >= f.Months:
		return fmt.Errorf("scenario: train.months must be in [1, fleet.months), got %d", s.Train.Months)
	case s.Train.Clusters < 1:
		return fmt.Errorf("scenario: train.clusters must be ≥ 1, got %d", s.Train.Clusters)
	case s.Serve.Shards < 1:
		return fmt.Errorf("scenario: serve.shards must be ≥ 1, got %d", s.Serve.Shards)
	case s.Serve.Threshold <= 0:
		return fmt.Errorf("scenario: serve.threshold must be positive, got %v", s.Serve.Threshold)
	}
	// The serve phase replays RFC 3164 wire lines, whose timestamps carry
	// no year; keep the served months inside one calendar year so the
	// ingest server's year resolution cannot misdate messages. Training
	// reads the trace directly and may start in an earlier year.
	if from, last := s.ServeStart(), s.End().Add(-time.Nanosecond); last.Year() != from.Year() {
		return fmt.Errorf("scenario: serve window %s to %s crosses a calendar year; start in January, shorten the horizon or lengthen train.months",
			from.Format("2006-01-02"), s.End().Format("2006-01-02"))
	}
	serveOffset := s.ServeStart().Sub(f.Start)
	horizon := s.End().Sub(f.Start)
	for i := range s.Timeline {
		ev := &s.Timeline[i]
		if ev.At < 0 || ev.At >= horizon {
			return fmt.Errorf("scenario: line %d: event at %s is outside the %s horizon", ev.Line, ev.At, horizon)
		}
		if _, sim := injectKinds[ev.Kind]; !sim && ev.At < serveOffset {
			return fmt.Errorf("scenario: line %d: %s event at %s is inside the training window (serve starts at %s)", ev.Line, ev.Kind, ev.At, serveOffset)
		}
		if ev.Kind == EventAdapt && !s.Lifecycle.Enabled {
			return fmt.Errorf("scenario: line %d: adapt event requires lifecycle.enabled", ev.Line)
		}
	}
	if s.Assert.Lifecycle != nil && !s.Lifecycle.Enabled {
		return errors.New("scenario: assert.lifecycle requires lifecycle.enabled")
	}
	if s.Assert.CheckpointParity && !slices.ContainsFunc(s.Timeline, func(ev Event) bool { return ev.Kind == EventCheckpoint }) {
		return errors.New("scenario: assert.checkpoint_parity requires at least one checkpoint event in the timeline")
	}
	// Compile and let nfvsim validate fleet parameters and injections
	// (unknown vPE names, bad fractions, ...).
	cfg, err := s.SimConfig()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// ServeStart returns the first instant of the serve phase.
func (s *Spec) ServeStart() time.Time { return s.Fleet.Start.AddDate(0, s.Train.Months, 0) }

// End returns the first instant after the horizon.
func (s *Spec) End() time.Time { return s.Fleet.Start.AddDate(0, s.Fleet.Months, 0) }

// SimConfig compiles the fleet plus the timeline's sim-side events into
// an nfvsim configuration.
func (s *Spec) SimConfig() (nfvsim.Config, error) {
	f := &s.Fleet
	cfg := nfvsim.Config{
		Seed:                  s.Seed,
		NumVPEs:               f.VPEs,
		Start:                 f.Start,
		Months:                f.Months,
		BaseRatePerHour:       f.BaseRatePerHour,
		RoleCount:             f.Roles,
		MeanFaultGapHours:     f.MeanFaultGapHours,
		MaintenanceEvery:      f.MaintenanceEvery,
		DupProb:               f.DupProb,
		CoreIncidentsPerMonth: f.CoreIncidentsPerMonth,
		UpdateMonth:           f.UpdateMonth,
		UpdateFraction:        f.UpdateFraction,
		PPERateMultiplier:     4.3,
		GlitchesPerDay:        f.GlitchesPerDay,
	}
	for i := range s.Timeline {
		ev := &s.Timeline[i]
		kind, ok := injectKinds[ev.Kind]
		if !ok {
			continue
		}
		if err := ev.check(); err != nil {
			return cfg, fmt.Errorf("scenario: line %d: %w", ev.Line, err)
		}
		cause, ok := causeByName[ev.Cause]
		if !ok {
			cause = ticket.Software // a burst with no cause
		}
		cfg.Injections = append(cfg.Injections, nfvsim.Injection{
			Kind:       kind,
			Cause:      cause,
			At:         f.Start.Add(ev.At),
			VPEs:       ev.VPEs,
			Fraction:   ev.Fraction,
			Duration:   ev.Duration,
			Duplicates: ev.Duplicates,
			Messages:   ev.Messages,
			Repeat:     ev.Repeat,
			Every:      ev.Every,
		})
	}
	return cfg, nil
}
