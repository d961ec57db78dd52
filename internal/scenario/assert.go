package scenario

import "fmt"

// evaluate checks every declared assertion against the run report and
// returns the verdicts in a stable order.
func evaluate(spec *Spec, rep *Report) []AssertionResult {
	var out []AssertionResult
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, AssertionResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	a := &spec.Assert
	s := rep.Eval

	if a.ZeroDrops {
		ok := rep.Serve.Malformed == 0 && rep.Serve.ShardDropped == 0
		add("zero_drops", ok, "malformed=%d shard_dropped=%d", rep.Serve.Malformed, rep.Serve.ShardDropped)
	}
	if a.MinWarnings != nil {
		add("min_warnings", s.Warnings >= *a.MinWarnings, "warnings=%d want>=%d", s.Warnings, *a.MinWarnings)
	}
	if a.MaxWarnings != nil {
		add("max_warnings", s.Warnings <= *a.MaxWarnings, "warnings=%d want<=%d", s.Warnings, *a.MaxWarnings)
	}
	if a.MaxFARPerDay != nil {
		add("max_far_per_day", s.FalseAlarmsPerDay <= *a.MaxFARPerDay,
			"far=%.3f/day want<=%.3f", s.FalseAlarmsPerDay, *a.MaxFARPerDay)
	}
	if a.MinPrecision != nil {
		add("min_precision", s.Precision >= *a.MinPrecision, "precision=%.3f want>=%.3f", s.Precision, *a.MinPrecision)
	}
	if a.MinRecall != nil {
		add("min_recall", s.Recall >= *a.MinRecall, "recall=%.3f want>=%.3f", s.Recall, *a.MinRecall)
	}
	if a.MinDetected != nil {
		add("min_detected", s.DetectedTickets >= *a.MinDetected,
			"detected=%d/%d want>=%d", s.DetectedTickets, s.Tickets, *a.MinDetected)
	}
	if a.MinEarlyTickets != nil {
		add("min_early_tickets", s.EarlyTickets >= *a.MinEarlyTickets,
			"early=%d want>=%d", s.EarlyTickets, *a.MinEarlyTickets)
	}
	if a.MinMeanLeadMinutes != nil {
		add("min_mean_lead_minutes", s.MeanLeadMinutes >= *a.MinMeanLeadMinutes,
			"mean_lead=%.1fmin want>=%.1f", s.MeanLeadMinutes, *a.MinMeanLeadMinutes)
	}
	if a.MinFalseAlarms != nil {
		add("min_false_alarms", s.FalseAlarms >= *a.MinFalseAlarms,
			"false_alarms=%d want>=%d", s.FalseAlarms, *a.MinFalseAlarms)
	}
	if a.MaxFalseAlarms != nil {
		add("max_false_alarms", s.FalseAlarms <= *a.MaxFalseAlarms,
			"false_alarms=%d want<=%d", s.FalseAlarms, *a.MaxFalseAlarms)
	}
	if a.CheckpointParity {
		ok := rep.Serve.CheckpointSaves > 0 && rep.Serve.CheckpointParity
		add("checkpoint_parity", ok, "saves=%d parity=%v", rep.Serve.CheckpointSaves, rep.Serve.CheckpointParity)
	}
	if la := a.Lifecycle; la != nil {
		lr := rep.Lifecycle
		if lr == nil {
			add("lifecycle", false, "no lifecycle ran")
		} else {
			if la.MinCycles != nil {
				add("lifecycle.min_cycles", lr.Cycles >= *la.MinCycles, "cycles=%d want>=%d", lr.Cycles, *la.MinCycles)
			}
			if la.MinPromotions != nil {
				add("lifecycle.min_promotions", lr.Promotions >= *la.MinPromotions,
					"promotions=%d want>=%d", lr.Promotions, *la.MinPromotions)
			}
			if la.Breaker != "" {
				add("lifecycle.breaker", lr.Breaker == la.Breaker, "breaker=%s want=%s", lr.Breaker, la.Breaker)
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
		add("chaos."+ca.Point, fired >= ca.MinFired, "fired=%d want>=%d", fired, ca.MinFired)
	}
	for _, ma := range a.Metrics {
		v, ok := metricValue(rep, ma.Name)
		if !ok {
			add("metric."+ma.Name, false, "metric unavailable")
			continue
		}
		pass := true
		detail := fmt.Sprintf("%s=%.3f", ma.Name, v)
		if ma.Min != nil {
			pass = pass && v >= *ma.Min
			detail += fmt.Sprintf(" want>=%.3f", *ma.Min)
		}
		if ma.Max != nil {
			pass = pass && v <= *ma.Max
			detail += fmt.Sprintf(" want<=%.3f", *ma.Max)
		}
		add("metric."+ma.Name, pass, "%s", detail)
	}
	return out
}

// metricValue resolves one MetricNames identifier against the report.
func metricValue(rep *Report, name string) (float64, bool) {
	s := rep.Eval
	switch name {
	case "sim_messages":
		return float64(rep.Sim.Messages), true
	case "sim_tickets":
		return float64(rep.Sim.Tickets), true
	case "serve_received":
		return float64(rep.Serve.Received), true
	case "serve_malformed":
		return float64(rep.Serve.Malformed), true
	case "serve_shard_dropped":
		return float64(rep.Serve.ShardDropped), true
	case "monitor_messages":
		return float64(rep.Serve.Messages), true
	case "monitor_anomalies":
		return float64(rep.Serve.Anomalies), true
	case "monitor_warnings":
		return float64(rep.Serve.Warnings), true
	case "monitor_shard_panics":
		return float64(rep.Serve.ShardPanics), true
	case "monitor_worker_restarts":
		return float64(rep.Serve.WorkerRestarts), true
	case "monitor_watchdog_kicks":
		return float64(rep.Serve.WatchdogKicks), true
	case "monitor_evicted_hosts":
		return float64(rep.Serve.EvictedHosts), true
	case "monitor_shed_messages":
		return float64(rep.Serve.ShedMessages), true
	case "checkpoint_saves":
		return float64(rep.Serve.CheckpointSaves), true
	case "lifecycle_cycles":
		if rep.Lifecycle == nil {
			return 0, false
		}
		return float64(rep.Lifecycle.Cycles), true
	case "lifecycle_generation":
		if rep.Lifecycle == nil {
			return 0, false
		}
		return float64(rep.Lifecycle.Generation), true
	}
	if s == nil {
		return 0, false
	}
	switch name {
	case "eval_warnings":
		return float64(s.Warnings), true
	case "eval_false_alarms":
		return float64(s.FalseAlarms), true
	case "eval_detected":
		return float64(s.DetectedTickets), true
	case "precision":
		return s.Precision, true
	case "recall":
		return s.Recall, true
	case "f_measure":
		return s.F, true
	case "far_per_day":
		return s.FalseAlarmsPerDay, true
	}
	return 0, false
}
