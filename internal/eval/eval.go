// Package eval maps detected anomalies to trouble tickets and computes the
// paper's evaluation quantities. The mapping semantics follow Figure 4:
// each ticket owns a predictive period (a window before its report time)
// and an infected period (report → repair finish); a warning inside either
// maps to the ticket (an early warning or an error respectively), and a
// warning mapping to no ticket is a false alarm. From the mapping come
// precision / recall / F-measure, the precision-recall curves of Figures
// 5-6, the monthly F-measure series of Figure 7, the per-root-cause
// lead-time detection rates of Figure 8, and the false-alarms-per-day
// operating number of §5.2.
package eval

import (
	"math"
	"sort"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/ticket"
)

// Config sets the mapping parameters.
type Config struct {
	// PredictivePeriod is the window before ticket report time in which
	// an anomaly counts as an early warning. The paper tried 1 hour to
	// 2 days and found performance converges at 1 day (§5.1).
	PredictivePeriod time.Duration
	// ClusterWindow and MinClusterSize configure warning clustering
	// (§5.1: report a warning on ≥2 anomalies within a minute).
	ClusterWindow  time.Duration
	MinClusterSize int
}

// DefaultConfig returns the paper's operating parameters.
func DefaultConfig() Config {
	return Config{
		PredictivePeriod: 24 * time.Hour,
		ClusterWindow:    detect.DefaultClusterWindow,
		MinClusterSize:   detect.DefaultMinClusterSize,
	}
}

// TicketHit records the warnings mapped to one ticket.
type TicketHit struct {
	// Ticket is the ticket.
	Ticket ticket.Ticket
	// EarliestOffset is the earliest mapped warning's time minus the
	// ticket report time (negative = early warning).
	EarliestOffset time.Duration
	// Warnings is the number of warnings mapped to the ticket.
	Warnings int
}

// Outcome is the result of mapping warnings onto tickets.
type Outcome struct {
	// Hits maps ticket ID → hit record for every detected ticket.
	Hits map[int]*TicketHit
	// Tickets is the recall-eligible ticket count. Maintenance tickets
	// are not eligible: maintenance is pre-scheduled and "predictable"
	// (§3.2), and Figure 8 evaluates only the other five categories.
	// Warnings inside maintenance windows still map (they are real log
	// activity, not false alarms).
	Tickets int
	// EligibleHits is the number of recall-eligible tickets detected.
	EligibleHits int
	// MappedWarnings and FalseAlarms partition the warning set; one
	// warning can map to several tickets but is counted once.
	MappedWarnings int
	FalseAlarms    int
	// MultiMapped counts warnings that mapped to two or more tickets —
	// the paper's Q4: whether one anomaly cluster can serve as a warning
	// signature for a group of near-term tickets ("this has never
	// happened, mostly because tickets are rare and well-separated").
	MultiMapped int
	// Span is the evaluated time range (for false alarms per day).
	Span time.Duration
}

// MapWarnings maps warnings onto tickets per the Figure 4 semantics.
// Tickets and warnings outside [from, to) are ignored; pass zero times to
// evaluate everything.
func MapWarnings(warnings []detect.Warning, tickets []ticket.Ticket, cfg Config, from, to time.Time) *Outcome {
	out := &Outcome{Hits: make(map[int]*TicketHit)}
	eligible := func(tk *ticket.Ticket) bool {
		return tk.Cause != ticket.Maintenance
	}
	var kept []ticket.Ticket
	for _, tk := range tickets {
		if !inRange(tk.Report, from, to) {
			continue
		}
		kept = append(kept, tk)
		if eligible(&tk) {
			out.Tickets++
		}
	}
	if !from.IsZero() && !to.IsZero() {
		out.Span = to.Sub(from)
	} else if len(warnings) > 1 {
		out.Span = warnings[len(warnings)-1].Time.Sub(warnings[0].Time)
	}

	// Index tickets per vPE, sorted by report time, for interval lookup.
	byVPE := make(map[string][]ticket.Ticket)
	for _, tk := range kept {
		byVPE[tk.VPE] = append(byVPE[tk.VPE], tk)
	}
	for _, ts := range byVPE {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Report.Before(ts[j].Report) })
	}

	for _, w := range warnings {
		if !inRange(w.Time, from, to) {
			continue
		}
		mapped := false
		mapCount := 0
		for i := range byVPE[w.VPE] {
			tk := &byVPE[w.VPE][i]
			winStart := tk.Report.Add(-cfg.PredictivePeriod)
			if w.Time.Before(winStart) || w.Time.After(tk.Repair) {
				continue
			}
			mapped = true
			mapCount++
			offset := w.Time.Sub(tk.Report)
			hit := out.Hits[tk.ID]
			if hit == nil {
				hit = &TicketHit{Ticket: *tk, EarliestOffset: offset}
				out.Hits[tk.ID] = hit
				if eligible(tk) {
					out.EligibleHits++
				}
			} else if offset < hit.EarliestOffset {
				hit.EarliestOffset = offset
			}
			hit.Warnings++
		}
		if mapped {
			out.MappedWarnings++
			if mapCount > 1 {
				out.MultiMapped++
			}
		} else {
			out.FalseAlarms++
		}
	}
	return out
}

func inRange(t, from, to time.Time) bool {
	if !from.IsZero() && t.Before(from) {
		return false
	}
	if !to.IsZero() && !t.Before(to) {
		return false
	}
	return true
}

// Metrics are the three standard anomaly-detection measures (§5.2) plus
// the false-alarm rate.
type Metrics struct {
	Precision, Recall, F float64
	// FalseAlarmsPerDay is false alarms normalized by the span.
	FalseAlarmsPerDay float64
}

// Metrics computes precision / recall / F-measure from the outcome.
// Precision is the fraction of warnings mapped to a ticket; recall the
// fraction of tickets with at least one mapped warning.
func (o *Outcome) Metrics() Metrics {
	var m Metrics
	totalWarnings := o.MappedWarnings + o.FalseAlarms
	if totalWarnings > 0 {
		m.Precision = float64(o.MappedWarnings) / float64(totalWarnings)
	}
	if o.Tickets > 0 {
		m.Recall = float64(o.EligibleHits) / float64(o.Tickets)
	}
	if m.Precision+m.Recall > 0 {
		m.F = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	if days := o.Span.Hours() / 24; days > 0 {
		m.FalseAlarmsPerDay = float64(o.FalseAlarms) / days
	}
	return m
}

// PRPoint is one operating point of a precision-recall curve.
type PRPoint struct {
	Threshold float64
	Metrics
}

// PRCurve sweeps thresholds over the scored events, producing the
// precision-recall curve of Figures 5 and 6. Each threshold converts
// scores → anomalies → clustered warnings → ticket mapping.
func PRCurve(events []detect.ScoredEvent, tickets []ticket.Ticket, thresholds []float64, cfg Config, from, to time.Time) []PRPoint {
	out := make([]PRPoint, 0, len(thresholds))
	for _, thr := range thresholds {
		anoms := detect.Threshold(events, thr)
		warns := detect.ClusterWarnings(anoms, cfg.ClusterWindow, cfg.MinClusterSize)
		o := MapWarnings(warns, tickets, cfg, from, to)
		out = append(out, PRPoint{Threshold: thr, Metrics: o.Metrics()})
	}
	return out
}

// BestF returns the curve point with the highest F-measure — the paper's
// operating-point selection rule (§5.2).
func BestF(curve []PRPoint) PRPoint {
	var best PRPoint
	for _, p := range curve {
		if p.F > best.F {
			best = p
		}
	}
	return best
}

// AUCPR returns the area under the precision-recall curve by trapezoidal
// integration over recall (points are sorted by recall internally).
func AUCPR(curve []PRPoint) float64 {
	if len(curve) < 2 {
		return 0
	}
	pts := make([]PRPoint, len(curve))
	copy(pts, curve)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Recall < pts[j].Recall })
	var auc float64
	for i := 1; i < len(pts); i++ {
		dr := pts[i].Recall - pts[i-1].Recall
		auc += dr * (pts[i].Precision + pts[i-1].Precision) / 2
	}
	return math.Abs(auc)
}

// LeadOffsets are the Figure 8 x-axis buckets: cumulative detection by
// "at least 15 min before", "at least 5 min before", "before report",
// "within 5 min after", "within 15 min after".
var LeadOffsets = [5]time.Duration{
	-15 * time.Minute,
	-5 * time.Minute,
	0,
	5 * time.Minute,
	15 * time.Minute,
}

// LeadBucketNames labels the five offsets as in Figure 8.
var LeadBucketNames = [5]string{"-15min", "-5min", "0min", "+5min", "+15min"}

// TypeDetection is one Figure 8 group: per-cause cumulative detection
// rates at the five lead offsets.
type TypeDetection struct {
	// Cause is the root cause; nil aggregate rows use AllCauses.
	Cause ticket.RootCause
	// All marks the aggregate row over every evaluated cause.
	All bool
	// Tickets is the ticket population size.
	Tickets int
	// Rates[i] is the fraction of tickets whose earliest mapped warning
	// offset is ≤ LeadOffsets[i].
	Rates [5]float64
}

// DetectionByType computes the Figure 8 data: for each non-maintenance
// root cause, the cumulative fraction of tickets detected by each lead
// offset. Maintenance is excluded as in the paper's figure.
func DetectionByType(o *Outcome, tickets []ticket.Ticket, from, to time.Time) []TypeDetection {
	causes := []ticket.RootCause{ticket.Cable, ticket.Circuit, ticket.Hardware, ticket.Software, ticket.Duplicate}
	var out []TypeDetection
	var aggregate TypeDetection
	aggregate.All = true
	var aggCounts [5]int
	for _, cause := range causes {
		td := TypeDetection{Cause: cause}
		var counts [5]int
		for _, tk := range tickets {
			if tk.Cause != cause || !inRange(tk.Report, from, to) {
				continue
			}
			td.Tickets++
			aggregate.Tickets++
			hit := o.Hits[tk.ID]
			if hit == nil {
				continue
			}
			for i, off := range LeadOffsets {
				if hit.EarliestOffset <= off {
					counts[i]++
					aggCounts[i]++
				}
			}
		}
		if td.Tickets > 0 {
			for i := range td.Rates {
				td.Rates[i] = float64(counts[i]) / float64(td.Tickets)
			}
		}
		out = append(out, td)
	}
	if aggregate.Tickets > 0 {
		for i := range aggregate.Rates {
			aggregate.Rates[i] = float64(aggCounts[i]) / float64(aggregate.Tickets)
		}
	}
	out = append(out, aggregate)
	return out
}
