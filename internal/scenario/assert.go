package scenario

import (
	"fmt"
	"reflect"
	"strconv"
)

// metric is one run-report figure a `metrics:` assertion or a scalar
// bound may name; value reports false when the run produced no such
// figure (no lifecycle ran).
type metric struct {
	name  string
	value func(*Report) (float64, bool)
}

// metrics are the figures assertions resolve against the run report.
var metrics = []metric{
	{"sim_messages", always(func(r *Report) int { return r.Sim.Messages })},
	{"sim_tickets", always(func(r *Report) int { return r.Sim.Tickets })},
	{"serve_received", always(func(r *Report) uint64 { return r.Serve.Received })},
	{"serve_malformed", always(func(r *Report) uint64 { return r.Serve.Malformed })},
	{"serve_shard_dropped", always(func(r *Report) uint64 { return r.Serve.ShardDropped })},
	{"monitor_messages", always(func(r *Report) uint64 { return r.Serve.Messages })},
	{"monitor_anomalies", always(func(r *Report) uint64 { return r.Serve.Anomalies })},
	{"monitor_warnings", always(func(r *Report) uint64 { return r.Serve.Warnings })},
	{"monitor_shard_panics", always(func(r *Report) uint64 { return r.Serve.ShardPanics })},
	{"monitor_worker_restarts", always(func(r *Report) uint64 { return r.Serve.WorkerRestarts })},
	{"monitor_watchdog_kicks", always(func(r *Report) uint64 { return r.Serve.WatchdogKicks })},
	{"monitor_evicted_hosts", always(func(r *Report) uint64 { return r.Serve.EvictedHosts })},
	{"monitor_shed_messages", always(func(r *Report) uint64 { return r.Serve.ShedMessages })},
	{"eval_warnings", always(func(r *Report) int { return r.Eval.Warnings })},
	{"eval_false_alarms", always(func(r *Report) int { return r.Eval.FalseAlarms })},
	{"eval_detected", always(func(r *Report) int { return r.Eval.DetectedTickets })},
	{"eval_early_tickets", always(func(r *Report) int { return r.Eval.EarlyTickets })},
	{"precision", always(func(r *Report) float64 { return r.Eval.Precision })},
	{"recall", always(func(r *Report) float64 { return r.Eval.Recall })},
	{"f_measure", always(func(r *Report) float64 { return r.Eval.F })},
	{"far_per_day", always(func(r *Report) float64 { return r.Eval.FalseAlarmsPerDay })},
	{"mean_lead_minutes", always(func(r *Report) float64 { return r.Eval.MeanLeadMinutes })},
	{"lifecycle_cycles", adapted(func(l *LifecycleReport) int { return l.Cycles })},
	{"lifecycle_promotions", adapted(func(l *LifecycleReport) int { return l.Promotions })},
	{"lifecycle_generation", adapted(func(l *LifecycleReport) int { return l.Generation })},
	{"checkpoint_saves", always(func(r *Report) int { return r.Serve.CheckpointSaves })},
}

// always reads a figure every run produces (Run evaluates every run
// before it checks the assertions).
func always[T int | uint64 | float64](f func(*Report) T) func(*Report) (float64, bool) {
	return func(r *Report) (float64, bool) { return float64(f(r)), true }
}

// adapted reads a lifecycle figure, if a lifecycle ran.
func adapted(f func(*LifecycleReport) int) func(*Report) (float64, bool) {
	return func(r *Report) (float64, bool) {
		if r.Lifecycle == nil {
			return 0, false
		}
		return float64(f(r.Lifecycle)), true
	}
}

// metricByName finds a metrics row.
func metricByName(name string) (metric, bool) {
	for _, m := range metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// evaluate checks every declared assertion against the run report and
// returns the verdicts in a stable order. An assertion is named by its
// key in the assert block.
func evaluate(spec *Spec, rep *Report) []AssertionResult {
	var out []AssertionResult
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, AssertionResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	// check asserts the named metric against whichever bounds are set.
	check := func(assertion, name string, atLeast, atMost *float64) {
		m, _ := metricByName(name)
		v, ok := m.value(rep)
		if !ok {
			add(assertion, false, "%s unavailable", name)
			return
		}
		detail := name + "=" + number(v)
		if atLeast != nil {
			ok = ok && v >= *atLeast
			detail += " want>=" + number(*atLeast)
		}
		if atMost != nil {
			ok = ok && v <= *atMost
			detail += " want<=" + number(*atMost)
		}
		add(assertion, ok, "%s", detail)
	}
	// bounds checks each set field of the block *b tagged floor or ceiling.
	bounds := func(prefix string, b any) {
		v := reflect.ValueOf(b).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			lo, hi := f.Tag.Get("floor"), f.Tag.Get("ceiling")
			if lo+hi == "" || fv.IsNil() {
				continue
			}
			want := fv.Elem().Convert(reflect.TypeOf(0.0)).Float()
			if lo != "" {
				check(prefix+f.Tag.Get("dsl"), lo, &want, nil)
			} else {
				check(prefix+f.Tag.Get("dsl"), hi, nil, &want)
			}
		}
	}
	a := &spec.Assert

	if a.ZeroDrops {
		ok := rep.Serve.Malformed == 0 && rep.Serve.ShardDropped == 0
		add(keyOf(a, &a.ZeroDrops), ok, "malformed=%d shard_dropped=%d", rep.Serve.Malformed, rep.Serve.ShardDropped)
	}
	bounds("", a)
	if a.CheckpointParity {
		ok := rep.Serve.CheckpointSaves > 0 && rep.Serve.CheckpointParity
		add(keyOf(a, &a.CheckpointParity), ok, "saves=%d parity=%v", rep.Serve.CheckpointSaves, rep.Serve.CheckpointParity)
	}
	if la := a.Lifecycle; la != nil {
		block := keyOf(a, &a.Lifecycle)
		if lr := rep.Lifecycle; lr == nil {
			add(block, false, "no lifecycle ran")
		} else {
			bounds(block+".", la)
			if la.Breaker != "" {
				add(block+"."+keyOf(la, &la.Breaker), lr.Breaker == la.Breaker, "breaker=%s want=%s", lr.Breaker, la.Breaker)
			}
		}
	}
	for _, ca := range a.Chaos {
		var fired uint64
		for _, pr := range rep.Chaos {
			if pr.Point == ca.Point {
				fired = pr.Fired
			}
		}
		add(keyOf(a, &a.Chaos)+"."+ca.Point, fired >= ca.MinFired, "fired=%d want>=%d", fired, ca.MinFired)
	}
	for _, ma := range a.Metrics {
		check("metric."+ma.Name, ma.Name, ma.Min, ma.Max)
	}
	return out
}

// keyOf returns the dsl tag of the field of the struct *block that field
// points to.
func keyOf(block, field any) string {
	v := reflect.ValueOf(block).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Addr().Interface() == field {
			return v.Type().Field(i).Tag.Get("dsl")
		}
	}
	panic("scenario: keyOf: not a field of the block")
}

// number prints a metric value: whole numbers bare, others to three
// decimals.
func number(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
