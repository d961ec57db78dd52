// Package ticket models network trouble tickets — the approximate ground
// truth the paper evaluates against (§2, §3.2) — and the analytics behind
// its Figures 1 and 2: monthly root-cause breakdowns, inter-arrival
// distributions of non-duplicated tickets, and the per-vPE × time
// occurrence matrix.
package ticket

import (
	"fmt"
	"sort"
	"time"
)

// RootCause is a ticket's root-cause category (§2 of the paper).
type RootCause int

// The six root-cause categories of the paper's ticket feed.
const (
	// Maintenance covers expected or scheduled network actions.
	Maintenance RootCause = iota
	// Circuit means the connection between two devices is down.
	Circuit
	// Cable is a cable disconnection (environmental or human).
	Cable
	// Hardware is a failure of chassis cards or their components.
	Hardware
	// Software is a failure due to software issues.
	Software
	// Duplicate is a follow-up ticket for an unresolved original.
	Duplicate

	// NumCauses is the number of root-cause categories.
	NumCauses = int(Duplicate) + 1
)

// Causes lists all root causes in canonical order.
var Causes = [NumCauses]RootCause{Maintenance, Circuit, Cable, Hardware, Software, Duplicate}

// String returns the category name used in the paper's figures.
func (c RootCause) String() string {
	switch c {
	case Maintenance:
		return "Maintenance"
	case Circuit:
		return "Circuit"
	case Cable:
		return "Cable"
	case Hardware:
		return "Hardware"
	case Software:
		return "Software"
	case Duplicate:
		return "DUP"
	default:
		return fmt.Sprintf("RootCause(%d)", int(c))
	}
}

// Ticket is one trouble ticket. Report is the ticket report time — at or
// after the first symptom, delayed by the ticket-processing flow (§2) —
// and Repair the repair-finish time.
type Ticket struct {
	// ID is a unique ticket identifier.
	ID int
	// VPE names the affected router.
	VPE string
	// Cause is the root-cause category.
	Cause RootCause
	// Report is the ticket report time.
	Report time.Time
	// Repair is the repair-finish time; the [Report, Repair] span is the
	// paper's "infected period".
	Repair time.Time
	// DuplicateOf holds the original ticket's ID for Duplicate tickets,
	// -1 otherwise.
	DuplicateOf int
}

// Store is an immutable, report-time-ordered collection of tickets.
type Store struct {
	tickets []Ticket
}

// NewStore copies ts into a store sorted by report time.
func NewStore(ts []Ticket) *Store {
	cp := make([]Ticket, len(ts))
	copy(cp, ts)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Report.Before(cp[j].Report) })
	return &Store{tickets: cp}
}

// Between returns tickets with Report in [from, to).
func (s *Store) Between(from, to time.Time) []Ticket {
	var out []Ticket
	for _, t := range s.tickets {
		if !t.Report.Before(from) && t.Report.Before(to) {
			out = append(out, t)
		}
	}
	return out
}

// MonthlyBreakdown is one month's ticket mix (Figure 1a).
type MonthlyBreakdown struct {
	// Month is the first instant of the month.
	Month time.Time
	// Counts holds per-cause ticket counts.
	Counts [NumCauses]int
	// Total is the month's ticket count.
	Total int
}

// MonthlyByCause computes per-month root-cause counts over [from, to),
// reproducing the data behind Figure 1(a).
func (s *Store) MonthlyByCause(from, to time.Time) []MonthlyBreakdown {
	var out []MonthlyBreakdown
	for cur := startOfMonth(from); cur.Before(to); cur = cur.AddDate(0, 1, 0) {
		next := cur.AddDate(0, 1, 0)
		mb := MonthlyBreakdown{Month: cur}
		for _, t := range s.Between(cur, next) {
			mb.Counts[t.Cause]++
			mb.Total++
		}
		out = append(out, mb)
	}
	return out
}

// InterArrivals returns per-vPE inter-arrival gaps between consecutive
// non-duplicated tickets, the Figure 1(b) population.
func (s *Store) InterArrivals() []time.Duration {
	last := make(map[string]time.Time)
	var out []time.Duration
	for _, t := range s.tickets {
		if t.Cause == Duplicate {
			continue
		}
		if prev, ok := last[t.VPE]; ok {
			out = append(out, t.Report.Sub(prev))
		}
		last[t.VPE] = t.Report
	}
	return out
}

// CDF returns the empirical CDF of durations evaluated at the given
// points: fraction of samples ≤ each point.
func CDF(samples []time.Duration, at []time.Duration) []float64 {
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]float64, len(at))
	if len(sorted) == 0 {
		return out
	}
	for i, p := range at {
		idx := sort.Search(len(sorted), func(j int) bool { return sorted[j] > p })
		out[i] = float64(idx) / float64(len(sorted))
	}
	return out
}

// OccurrenceCell marks that a vPE had ≥1 non-maintenance ticket in a time
// bin — one point of the Figure 2 scatter.
type OccurrenceCell struct {
	// VPEIndex is the row, with vPEs sorted by ascending ticket volume.
	VPEIndex int
	// VPE is the router name.
	VPE string
	// Bin is the start of the time bin.
	Bin time.Time
}

// OccurrenceMatrix reproduces Figure 2: non-maintenance tickets binned by
// binWidth across [from, to), with vPE rows sorted by total ticket count.
// It also returns, per bin, how many distinct vPEs had tickets — the
// fleet-wide (core-router) incidents show up as bins touching many vPEs.
func (s *Store) OccurrenceMatrix(from, to time.Time, binWidth time.Duration) ([]OccurrenceCell, map[time.Time]int) {
	counts := make(map[string]int)
	for _, t := range s.tickets {
		if t.Cause != Maintenance {
			counts[t.VPE]++
		}
	}
	vpes := make([]string, 0, len(counts))
	for v := range counts {
		vpes = append(vpes, v)
	}
	sort.Slice(vpes, func(i, j int) bool {
		if counts[vpes[i]] != counts[vpes[j]] {
			return counts[vpes[i]] < counts[vpes[j]]
		}
		return vpes[i] < vpes[j]
	})
	index := make(map[string]int, len(vpes))
	for i, v := range vpes {
		index[v] = i
	}
	seen := make(map[string]map[time.Time]bool)
	perBin := make(map[time.Time]int)
	var cells []OccurrenceCell
	for _, t := range s.tickets {
		if t.Cause == Maintenance || t.Report.Before(from) || !t.Report.Before(to) {
			continue
		}
		bin := from.Add(t.Report.Sub(from).Truncate(binWidth))
		if seen[t.VPE] == nil {
			seen[t.VPE] = make(map[time.Time]bool)
		}
		if seen[t.VPE][bin] {
			continue
		}
		seen[t.VPE][bin] = true
		perBin[bin]++
		cells = append(cells, OccurrenceCell{VPEIndex: index[t.VPE], VPE: t.VPE, Bin: bin})
	}
	return cells, perBin
}

func startOfMonth(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, t.Location())
}
