package scenario

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/ticket"
)

// Spec is a parsed, validated scenario.
type Spec struct {
	// Name identifies the scenario in reports and /statusz.
	Name string
	// Description is a one-line human summary.
	Description string
	// Seed drives every random choice (simulation and training).
	Seed int64
	// File is the source path when loaded from disk ("" for inline specs).
	File string

	Fleet     FleetSpec
	Train     TrainSpec
	Serve     ServeSpec
	Lifecycle LifecycleSpec
	Timeline  []Event
	Assert    AssertSpec
}

// FleetSpec mirrors the nfvsim Config knobs the DSL exposes.
type FleetSpec struct {
	VPEs                  int
	Months                int
	Start                 time.Time
	BaseRatePerHour       float64
	Roles                 int
	MeanFaultGapHours     float64
	MaintenanceEvery      time.Duration
	DupProb               float64
	CoreIncidentsPerMonth float64
	UpdateMonth           int
	UpdateFraction        float64
	GlitchesPerDay        float64
}

// TrainSpec controls the bootstrap-training phase.
type TrainSpec struct {
	// Months is the number of leading months used for training; the
	// serve phase replays the rest of the horizon.
	Months int
	// Clusters is the per-role model count (1 = single fleet model).
	Clusters int
	// Hidden, Epochs, MaxVocab override the LSTM configuration.
	Hidden   []int
	Epochs   int
	MaxVocab int
	// Exclusion is the ticket-exclusion window for clean training data.
	Exclusion time.Duration
}

// ServeSpec controls the serving stack.
type ServeSpec struct {
	// Shards is the monitor's shard count.
	Shards int
	// Threshold is the anomaly threshold.
	Threshold float64
	// Admin enables the obs admin surface (/statusz scenario metadata)
	// on a loopback listener for the duration of the run.
	Admin bool
}

// LifecycleSpec enables and tunes online adaptation.
type LifecycleSpec struct {
	Enabled    bool
	GateBudget float64
	WindowLen  int
	MinWindows int
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

// Event is one timeline entry.
type Event struct {
	// At is the offset from trace start.
	At time.Duration
	// Kind is one of the Event* constants.
	Kind string
	// Line is the source line (error messages and reports).
	Line int

	// fault / burst
	Cause      string
	VPEs       []string
	Fraction   float64
	Duration   time.Duration
	Duplicates int
	Messages   int
	Repeat     int
	Every      time.Duration

	// chaos
	Point string
	Mode  string
	Count int
	Delay time.Duration
	Bytes int
	Skew  time.Duration

	// adapt
	Forced bool

	// degrade
	DegradeMode string
}

// AssertSpec is the declarative assertion block. Nil pointers mean
// "not asserted".
type AssertSpec struct {
	MinWarnings        *int
	MaxWarnings        *int
	MaxFARPerDay       *float64
	MinPrecision       *float64
	MinRecall          *float64
	MinDetected        *int
	MinEarlyTickets    *int
	MinMeanLeadMinutes *float64
	MinFalseAlarms     *int
	MaxFalseAlarms     *int
	// CheckpointParity requires at least one checkpoint event, all with
	// restore parity intact.
	CheckpointParity bool
	// ZeroDrops asserts the serving path dropped nothing (default true —
	// the runner paces feeding so drops indicate a harness bug).
	ZeroDrops bool
	Lifecycle *LifecycleAssert
	Chaos     []ChaosAssert
	Metrics   []MetricAssert
}

// LifecycleAssert checks adaptation outcomes.
type LifecycleAssert struct {
	MinCycles     *int
	MinPromotions *int
	Breaker       string // "", "closed", "open"
}

// ChaosAssert checks a fault point's injected-failure count.
type ChaosAssert struct {
	Point    string
	MinFired uint64
}

// MetricAssert checks one runner-exported metric value (see MetricNames).
type MetricAssert struct {
	Name string
	Min  *float64
	Max  *float64
}

// knownPoints are the fault points a chaos event may arm — the registry
// names used across ingest and lifecycle.
var knownPoints = map[string]bool{
	"checkpoint.write": true,
	"spool.write":      true,
	"spool.read":       true,
	"bundle.load":      true,
	"shard.score":      true,
	"shard.worker":     true,
	"heartbeat.skew":   true,
	"lifecycle.cycle":  true,
}

// knownModes are the faultinject arming modes.
var knownModes = map[string]bool{
	"error": true, "disk-full": true, "torn": true,
	"panic": true, "slow": true, "skew": true,
}

// MetricNames lists the metric identifiers a `metrics:` assertion may
// reference, resolved against the run report.
var MetricNames = []string{
	"sim_messages", "sim_tickets",
	"serve_received", "serve_malformed", "serve_shard_dropped",
	"monitor_messages", "monitor_anomalies", "monitor_warnings",
	"monitor_shard_panics", "monitor_worker_restarts", "monitor_watchdog_kicks",
	"monitor_evicted_hosts", "monitor_shed_messages",
	"eval_warnings", "eval_false_alarms", "eval_detected",
	"precision", "recall", "f_measure", "far_per_day",
	"lifecycle_cycles", "lifecycle_generation",
	"checkpoint_saves",
}

var metricNameSet = func() map[string]bool {
	m := make(map[string]bool, len(MetricNames))
	for _, n := range MetricNames {
		m[n] = true
	}
	return m
}()

// causeByName maps DSL cause names to ticket root causes.
var causeByName = map[string]ticket.RootCause{
	"circuit":  ticket.Circuit,
	"software": ticket.Software,
	"cable":    ticket.Cable,
	"hardware": ticket.Hardware,
}

// Load parses and validates a scenario document.
func Load(src []byte) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	d := &dec{}
	spec := d.decodeSpec(root)
	if err := d.err(); err != nil {
		return nil, err
	}
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

// dec accumulates positioned decode errors.
type dec struct {
	errs []string
}

func (d *dec) errf(line int, format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (d *dec) err() error {
	if len(d.errs) == 0 {
		return nil
	}
	return errors.New(strings.Join(d.errs, "\n"))
}

// want checks node kind, reporting an error and returning false on
// mismatch (nil nodes fail silently: the caller reported the miss).
func (d *dec) want(n *yNode, kind yKind, what string) bool {
	if n == nil {
		return false
	}
	if n.kind != kind {
		names := map[yKind]string{yScalar: "a scalar", yMap: "a mapping", ySeq: "a list"}
		d.errf(n.line, "%s must be %s", what, names[kind])
		return false
	}
	return true
}

func (d *dec) str(n *yNode, what string) string {
	if !d.want(n, yScalar, what) {
		return ""
	}
	return n.scalar
}

func (d *dec) integer(n *yNode, what string) int {
	if !d.want(n, yScalar, what) {
		return 0
	}
	v, err := strconv.Atoi(n.scalar)
	if err != nil {
		d.errf(n.line, "%s: not an integer: %q", what, n.scalar)
		return 0
	}
	return v
}

func (d *dec) float(n *yNode, what string) float64 {
	if !d.want(n, yScalar, what) {
		return 0
	}
	v, err := strconv.ParseFloat(n.scalar, 64)
	if err != nil {
		d.errf(n.line, "%s: not a number: %q", what, n.scalar)
		return 0
	}
	return v
}

func (d *dec) boolean(n *yNode, what string) bool {
	if !d.want(n, yScalar, what) {
		return false
	}
	switch n.scalar {
	case "true", "yes", "on":
		return true
	case "false", "no", "off":
		return false
	}
	d.errf(n.line, "%s: not a boolean: %q", what, n.scalar)
	return false
}

// duration parses "90m", "3h", or the day extension "45d" / "2.5d".
func (d *dec) duration(n *yNode, what string) time.Duration {
	if !d.want(n, yScalar, what) {
		return 0
	}
	s := n.scalar
	if strings.HasSuffix(s, "d") {
		days, err := strconv.ParseFloat(strings.TrimSuffix(s, "d"), 64)
		if err == nil {
			return time.Duration(days * 24 * float64(time.Hour))
		}
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		d.errf(n.line, "%s: not a duration (use 30m/3h/45d): %q", what, s)
		return 0
	}
	return v
}

func (d *dec) strList(n *yNode, what string) []string {
	if n == nil {
		return nil
	}
	if n.kind == yScalar {
		return []string{n.scalar}
	}
	if !d.want(n, ySeq, what) {
		return nil
	}
	out := make([]string, 0, len(n.items))
	for _, it := range n.items {
		out = append(out, d.str(it, what+" item"))
	}
	return out
}

func (d *dec) intList(n *yNode, what string) []int {
	if !d.want(n, ySeq, what) {
		return nil
	}
	out := make([]int, 0, len(n.items))
	for _, it := range n.items {
		out = append(out, d.integer(it, what+" item"))
	}
	return out
}

func (d *dec) intPtr(n *yNode, what string) *int     { v := d.integer(n, what); return &v }
func (d *dec) f64Ptr(n *yNode, what string) *float64 { v := d.float(n, what); return &v }

// checkKeys reports unknown keys — the heart of `nfvscen validate`.
func (d *dec) checkKeys(n *yNode, what string, allowed ...string) {
	ok := make(map[string]bool, len(allowed))
	for _, k := range allowed {
		ok[k] = true
	}
	for _, e := range n.entries {
		if !ok[e.key] {
			sorted := append([]string(nil), allowed...)
			sort.Strings(sorted)
			d.errf(e.line, "unknown key %q in %s (known: %s)", e.key, what, strings.Join(sorted, ", "))
		}
	}
}

// decodeSpec decodes the document root.
func (d *dec) decodeSpec(root *yNode) *Spec {
	spec := &Spec{
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
	d.checkKeys(root, "scenario", "name", "description", "seed", "fleet", "train", "serve", "lifecycle", "timeline", "assert")
	for _, e := range root.entries {
		switch e.key {
		case "name":
			spec.Name = d.str(e.val, "name")
		case "description":
			spec.Description = d.str(e.val, "description")
		case "seed":
			spec.Seed = int64(d.integer(e.val, "seed"))
		case "fleet":
			d.decodeFleet(e.val, &spec.Fleet)
		case "train":
			d.decodeTrain(e.val, &spec.Train)
		case "serve":
			d.decodeServe(e.val, &spec.Serve)
		case "lifecycle":
			d.decodeLifecycle(e.val, &spec.Lifecycle)
		case "timeline":
			d.decodeTimeline(e.val, spec)
		case "assert":
			d.decodeAssert(e.val, &spec.Assert)
		}
	}
	if spec.Name == "" {
		d.errf(root.line, "scenario must have a name")
	}
	return spec
}

func (d *dec) decodeFleet(n *yNode, f *FleetSpec) {
	if !d.want(n, yMap, "fleet") {
		return
	}
	d.checkKeys(n, "fleet", "vpes", "months", "start", "base_rate_per_hour", "roles",
		"mean_fault_gap_hours", "maintenance_every", "dup_prob", "core_incidents_per_month",
		"update_month", "update_fraction", "glitches_per_day")
	for _, e := range n.entries {
		switch e.key {
		case "vpes":
			f.VPEs = d.integer(e.val, "fleet.vpes")
		case "months":
			f.Months = d.integer(e.val, "fleet.months")
		case "start":
			s := d.str(e.val, "fleet.start")
			t, err := time.Parse("2006-01-02", s)
			if err != nil {
				d.errf(e.line, "fleet.start: not a date (YYYY-MM-DD): %q", s)
			} else {
				f.Start = t
			}
		case "base_rate_per_hour":
			f.BaseRatePerHour = d.float(e.val, "fleet.base_rate_per_hour")
		case "roles":
			f.Roles = d.integer(e.val, "fleet.roles")
		case "mean_fault_gap_hours":
			f.MeanFaultGapHours = d.float(e.val, "fleet.mean_fault_gap_hours")
		case "maintenance_every":
			f.MaintenanceEvery = d.duration(e.val, "fleet.maintenance_every")
		case "dup_prob":
			f.DupProb = d.float(e.val, "fleet.dup_prob")
		case "core_incidents_per_month":
			f.CoreIncidentsPerMonth = d.float(e.val, "fleet.core_incidents_per_month")
		case "update_month":
			f.UpdateMonth = d.integer(e.val, "fleet.update_month")
		case "update_fraction":
			f.UpdateFraction = d.float(e.val, "fleet.update_fraction")
		case "glitches_per_day":
			f.GlitchesPerDay = d.float(e.val, "fleet.glitches_per_day")
		}
	}
}

func (d *dec) decodeTrain(n *yNode, t *TrainSpec) {
	if !d.want(n, yMap, "train") {
		return
	}
	d.checkKeys(n, "train", "months", "clusters", "hidden", "epochs", "max_vocab", "exclusion")
	for _, e := range n.entries {
		switch e.key {
		case "months":
			t.Months = d.integer(e.val, "train.months")
		case "clusters":
			t.Clusters = d.integer(e.val, "train.clusters")
		case "hidden":
			t.Hidden = d.intList(e.val, "train.hidden")
		case "epochs":
			t.Epochs = d.integer(e.val, "train.epochs")
		case "max_vocab":
			t.MaxVocab = d.integer(e.val, "train.max_vocab")
		case "exclusion":
			t.Exclusion = d.duration(e.val, "train.exclusion")
		}
	}
}

func (d *dec) decodeServe(n *yNode, s *ServeSpec) {
	if !d.want(n, yMap, "serve") {
		return
	}
	d.checkKeys(n, "serve", "shards", "threshold", "admin")
	for _, e := range n.entries {
		switch e.key {
		case "shards":
			s.Shards = d.integer(e.val, "serve.shards")
		case "threshold":
			s.Threshold = d.float(e.val, "serve.threshold")
		case "admin":
			s.Admin = d.boolean(e.val, "serve.admin")
		}
	}
}

func (d *dec) decodeLifecycle(n *yNode, l *LifecycleSpec) {
	if !d.want(n, yMap, "lifecycle") {
		return
	}
	d.checkKeys(n, "lifecycle", "enabled", "gate_budget", "window_len", "min_windows")
	for _, e := range n.entries {
		switch e.key {
		case "enabled":
			l.Enabled = d.boolean(e.val, "lifecycle.enabled")
		case "gate_budget":
			l.GateBudget = d.float(e.val, "lifecycle.gate_budget")
		case "window_len":
			l.WindowLen = d.integer(e.val, "lifecycle.window_len")
		case "min_windows":
			l.MinWindows = d.integer(e.val, "lifecycle.min_windows")
		}
	}
}

func (d *dec) decodeTimeline(n *yNode, spec *Spec) {
	if !d.want(n, ySeq, "timeline") {
		return
	}
	for _, item := range n.items {
		if !d.want(item, yMap, "timeline entry") {
			continue
		}
		d.checkKeys(item, "timeline entry", "at", EventFault, EventBurst, EventChaos, EventAdapt, EventCheckpoint, EventDegrade)
		ev := Event{Line: item.line, Repeat: 1}
		haveAt := false
		for _, e := range item.entries {
			if e.key == "at" {
				ev.At = d.duration(e.val, "at")
				haveAt = true
				continue
			}
			if ev.Kind != "" {
				d.errf(e.line, "timeline entry has both %q and %q — one event kind per entry", ev.Kind, e.key)
				continue
			}
			ev.Kind = e.key
			d.decodeEventBody(e.val, e.line, &ev)
		}
		if !haveAt {
			d.errf(item.line, "timeline entry needs an \"at:\" offset")
		}
		if ev.Kind == "" {
			d.errf(item.line, "timeline entry needs an event (fault/burst/chaos/adapt/checkpoint/degrade)")
		}
		spec.Timeline = append(spec.Timeline, ev)
	}
	sort.SliceStable(spec.Timeline, func(i, j int) bool { return spec.Timeline[i].At < spec.Timeline[j].At })
}

// decodeEventBody fills kind-specific fields. An empty scalar body (bare
// "checkpoint:") is allowed for kinds with no parameters.
func (d *dec) decodeEventBody(n *yNode, line int, ev *Event) {
	if n != nil && n.kind == yScalar && n.scalar == "" {
		n = &yNode{line: line, kind: yMap}
	}
	if !d.want(n, yMap, ev.Kind) {
		return
	}
	switch ev.Kind {
	case EventFault:
		d.checkKeys(n, "fault", "cause", "vpes", "fraction", "duration", "duplicates", "repeat", "every")
		for _, e := range n.entries {
			switch e.key {
			case "cause":
				ev.Cause = d.str(e.val, "fault.cause")
			case "vpes":
				ev.VPEs = d.strList(e.val, "fault.vpes")
			case "fraction":
				ev.Fraction = d.float(e.val, "fault.fraction")
			case "duration":
				ev.Duration = d.duration(e.val, "fault.duration")
			case "duplicates":
				ev.Duplicates = d.integer(e.val, "fault.duplicates")
			case "repeat":
				ev.Repeat = d.integer(e.val, "fault.repeat")
			case "every":
				ev.Every = d.duration(e.val, "fault.every")
			}
		}
		if ev.Cause == "" {
			d.errf(line, "fault needs a cause (circuit/software/cable/hardware)")
		} else if _, ok := causeByName[ev.Cause]; !ok {
			d.errf(line, "unknown fault cause %q (circuit/software/cable/hardware)", ev.Cause)
		}
	case EventBurst:
		d.checkKeys(n, "burst", "cause", "vpes", "fraction", "messages", "repeat", "every")
		for _, e := range n.entries {
			switch e.key {
			case "cause":
				ev.Cause = d.str(e.val, "burst.cause")
			case "vpes":
				ev.VPEs = d.strList(e.val, "burst.vpes")
			case "fraction":
				ev.Fraction = d.float(e.val, "burst.fraction")
			case "messages":
				ev.Messages = d.integer(e.val, "burst.messages")
			case "repeat":
				ev.Repeat = d.integer(e.val, "burst.repeat")
			case "every":
				ev.Every = d.duration(e.val, "burst.every")
			}
		}
		if ev.Cause != "" {
			if _, ok := causeByName[ev.Cause]; !ok {
				d.errf(line, "unknown burst cause %q (circuit/software/cable/hardware)", ev.Cause)
			}
		}
	case EventChaos:
		d.checkKeys(n, "chaos", "point", "mode", "count", "delay", "bytes", "skew")
		for _, e := range n.entries {
			switch e.key {
			case "point":
				ev.Point = d.str(e.val, "chaos.point")
			case "mode":
				ev.Mode = d.str(e.val, "chaos.mode")
			case "count":
				ev.Count = d.integer(e.val, "chaos.count")
			case "delay":
				ev.Delay = d.duration(e.val, "chaos.delay")
			case "bytes":
				ev.Bytes = d.integer(e.val, "chaos.bytes")
			case "skew":
				ev.Skew = d.duration(e.val, "chaos.skew")
			}
		}
		if !knownPoints[ev.Point] {
			d.errf(line, "unknown chaos point %q", ev.Point)
		}
		if !knownModes[ev.Mode] {
			d.errf(line, "unknown chaos mode %q (error/disk-full/torn/panic/slow/skew)", ev.Mode)
		}
	case EventAdapt:
		d.checkKeys(n, "adapt", "forced")
		for _, e := range n.entries {
			if e.key == "forced" {
				ev.Forced = d.boolean(e.val, "adapt.forced")
			}
		}
	case EventCheckpoint:
		d.checkKeys(n, "checkpoint")
	case EventDegrade:
		d.checkKeys(n, "degrade", "mode")
		for _, e := range n.entries {
			if e.key == "mode" {
				ev.DegradeMode = d.str(e.val, "degrade.mode")
			}
		}
		switch ev.DegradeMode {
		case "normal", "shed-scoring", "shed-learning":
		default:
			d.errf(line, "degrade.mode must be normal/shed-scoring/shed-learning, got %q", ev.DegradeMode)
		}
	}
}

func (d *dec) decodeAssert(n *yNode, a *AssertSpec) {
	if !d.want(n, yMap, "assert") {
		return
	}
	d.checkKeys(n, "assert", "min_warnings", "max_warnings", "max_far_per_day",
		"min_precision", "min_recall", "min_detected", "min_early_tickets",
		"min_mean_lead_minutes", "min_false_alarms", "max_false_alarms",
		"checkpoint_parity", "zero_drops", "lifecycle", "chaos", "metrics")
	for _, e := range n.entries {
		switch e.key {
		case "min_warnings":
			a.MinWarnings = d.intPtr(e.val, "assert.min_warnings")
		case "max_warnings":
			a.MaxWarnings = d.intPtr(e.val, "assert.max_warnings")
		case "max_far_per_day":
			a.MaxFARPerDay = d.f64Ptr(e.val, "assert.max_far_per_day")
		case "min_precision":
			a.MinPrecision = d.f64Ptr(e.val, "assert.min_precision")
		case "min_recall":
			a.MinRecall = d.f64Ptr(e.val, "assert.min_recall")
		case "min_detected":
			a.MinDetected = d.intPtr(e.val, "assert.min_detected")
		case "min_early_tickets":
			a.MinEarlyTickets = d.intPtr(e.val, "assert.min_early_tickets")
		case "min_mean_lead_minutes":
			a.MinMeanLeadMinutes = d.f64Ptr(e.val, "assert.min_mean_lead_minutes")
		case "min_false_alarms":
			a.MinFalseAlarms = d.intPtr(e.val, "assert.min_false_alarms")
		case "max_false_alarms":
			a.MaxFalseAlarms = d.intPtr(e.val, "assert.max_false_alarms")
		case "checkpoint_parity":
			a.CheckpointParity = d.boolean(e.val, "assert.checkpoint_parity")
		case "zero_drops":
			a.ZeroDrops = d.boolean(e.val, "assert.zero_drops")
		case "lifecycle":
			a.Lifecycle = d.decodeLifecycleAssert(e.val)
		case "chaos":
			a.Chaos = d.decodeChaosAsserts(e.val)
		case "metrics":
			a.Metrics = d.decodeMetricAsserts(e.val)
		}
	}
}

func (d *dec) decodeLifecycleAssert(n *yNode) *LifecycleAssert {
	la := &LifecycleAssert{}
	if !d.want(n, yMap, "assert.lifecycle") {
		return la
	}
	d.checkKeys(n, "assert.lifecycle", "min_cycles", "min_promotions", "breaker")
	for _, e := range n.entries {
		switch e.key {
		case "min_cycles":
			la.MinCycles = d.intPtr(e.val, "min_cycles")
		case "min_promotions":
			la.MinPromotions = d.intPtr(e.val, "min_promotions")
		case "breaker":
			la.Breaker = d.str(e.val, "breaker")
			if la.Breaker != "closed" && la.Breaker != "open" {
				d.errf(e.line, "assert.lifecycle.breaker must be closed or open, got %q", la.Breaker)
			}
		}
	}
	return la
}

func (d *dec) decodeChaosAsserts(n *yNode) []ChaosAssert {
	if !d.want(n, ySeq, "assert.chaos") {
		return nil
	}
	var out []ChaosAssert
	for _, item := range n.items {
		if !d.want(item, yMap, "assert.chaos entry") {
			continue
		}
		d.checkKeys(item, "assert.chaos entry", "point", "min_fired")
		ca := ChaosAssert{MinFired: 1}
		for _, e := range item.entries {
			switch e.key {
			case "point":
				ca.Point = d.str(e.val, "point")
			case "min_fired":
				ca.MinFired = uint64(d.integer(e.val, "min_fired"))
			}
		}
		if !knownPoints[ca.Point] {
			d.errf(item.line, "unknown chaos point %q", ca.Point)
		}
		out = append(out, ca)
	}
	return out
}

func (d *dec) decodeMetricAsserts(n *yNode) []MetricAssert {
	if !d.want(n, ySeq, "assert.metrics") {
		return nil
	}
	var out []MetricAssert
	for _, item := range n.items {
		if !d.want(item, yMap, "assert.metrics entry") {
			continue
		}
		d.checkKeys(item, "assert.metrics entry", "name", "min", "max")
		var ma MetricAssert
		for _, e := range item.entries {
			switch e.key {
			case "name":
				ma.Name = d.str(e.val, "name")
			case "min":
				ma.Min = d.f64Ptr(e.val, "min")
			case "max":
				ma.Max = d.f64Ptr(e.val, "max")
			}
		}
		if !metricNameSet[ma.Name] {
			d.errf(item.line, "unknown metric %q (known: %s)", ma.Name, strings.Join(MetricNames, ", "))
		}
		if ma.Min == nil && ma.Max == nil {
			d.errf(item.line, "metric assertion needs min and/or max")
		}
		out = append(out, ma)
	}
	return out
}

// Validate checks cross-field consistency and compiles the fleet config
// once to reuse nfvsim's own validation.
func (s *Spec) Validate() error {
	f := &s.Fleet
	switch {
	case s.Name == "":
		return errors.New("scenario: name is required")
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
		switch ev.Kind {
		case EventChaos, EventAdapt, EventCheckpoint, EventDegrade:
			if ev.At < serveOffset {
				return fmt.Errorf("scenario: line %d: %s event at %s is inside the training window (serve starts at %s)", ev.Line, ev.Kind, ev.At, serveOffset)
			}
		}
		if (ev.Kind == EventAdapt) && !s.Lifecycle.Enabled {
			return fmt.Errorf("scenario: line %d: adapt event requires lifecycle.enabled", ev.Line)
		}
	}
	if s.Assert.Lifecycle != nil && !s.Lifecycle.Enabled {
		return errors.New("scenario: assert.lifecycle requires lifecycle.enabled")
	}
	if s.Assert.CheckpointParity {
		any := false
		for i := range s.Timeline {
			if s.Timeline[i].Kind == EventCheckpoint {
				any = true
			}
		}
		if !any {
			return errors.New("scenario: assert.checkpoint_parity requires at least one checkpoint event in the timeline")
		}
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
		switch ev.Kind {
		case EventFault, EventBurst:
			inj := nfvsim.Injection{
				At:         f.Start.Add(ev.At),
				VPEs:       ev.VPEs,
				Fraction:   ev.Fraction,
				Duration:   ev.Duration,
				Duplicates: ev.Duplicates,
				Messages:   ev.Messages,
				Repeat:     ev.Repeat,
				Every:      ev.Every,
			}
			if ev.Kind == EventFault {
				inj.Kind = nfvsim.InjectFault
			} else {
				inj.Kind = nfvsim.InjectBurst
			}
			if ev.Cause != "" {
				c, ok := causeByName[ev.Cause]
				if !ok {
					return cfg, fmt.Errorf("scenario: line %d: unknown cause %q", ev.Line, ev.Cause)
				}
				inj.Cause = c
			} else if ev.Kind == EventBurst {
				inj.Cause = ticket.Software
			}
			cfg.Injections = append(cfg.Injections, inj)
		}
	}
	return cfg, nil
}
