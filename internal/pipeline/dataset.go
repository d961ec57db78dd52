// Package pipeline builds models from a deployment trace and runs the
// paper's end-to-end protocol over them. A model is built one way, in four
// steps each written once (train.go): the clean streams of a group of vPEs
// — ticket windows excluded, §4.2 (Dataset.CleanStreams) — the grouping of
// the fleet on its template histograms, §4.3 (ClusterFleet), one detector
// per group (TrainGroups), and the threshold to serve at (OperatingPoint).
// TrainModels and TrainBundle compose them into the bundle cmd/nfvtrain
// writes and every monitor serves; Run walks them forward month by month
// (§5.1) with incremental updates, drift detection and transfer-learning
// adaptation after system updates (§4.3), evaluated against trouble
// tickets (§5.2-5.3); the §5.2 sweeps re-run them on other data budgets.
// The three system variants of Figure 7 — baseline single model,
// per-cluster customization, and customization + adaptation — differ only
// in configuration.
package pipeline

import (
	"sort"
	"time"

	"nfvpredict/internal/cluster"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/sigtree"
	"nfvpredict/internal/ticket"
)

// Dataset is a trace transformed for analysis: per-vPE template event
// streams (via the signature tree), month boundaries, and ticket data.
type Dataset struct {
	// VPEs lists vPE names in stable order.
	VPEs []string
	// Start is the first month boundary; Months the horizon length.
	Start  time.Time
	Months int
	// Streams holds each vPE's full-horizon template events in time order.
	Streams map[string][]features.Event
	// Tickets holds all tickets sorted by report time.
	Tickets []ticket.Ticket
	// Tree is the signature tree grown over the whole trace.
	Tree *sigtree.Tree
}

// BuildDataset scans the trace once in time order, growing the signature
// tree (§4.2's template extraction) and emitting per-vPE event streams.
// pPE hosts (if present) are excluded: the paper's detector runs on vPE
// syslogs.
func BuildDataset(tr *nfvsim.Trace, start time.Time, months int) *Dataset {
	ds := &Dataset{
		VPEs:    append([]string(nil), tr.VPENames...),
		Start:   start,
		Months:  months,
		Streams: make(map[string][]features.Event),
		Tickets: append([]ticket.Ticket(nil), tr.Tickets...),
		Tree:    sigtree.New(),
	}
	sort.Strings(ds.VPEs)
	isVPE := make(map[string]bool, len(ds.VPEs))
	for _, v := range ds.VPEs {
		isVPE[v] = true
	}
	for i := range tr.Messages {
		m := &tr.Messages[i]
		if !isVPE[m.Host] {
			continue
		}
		tpl := ds.Tree.Learn(m.Text)
		ds.Streams[m.Host] = append(ds.Streams[m.Host], features.Event{Time: m.Time, Template: tpl.ID})
	}
	return ds
}

// BuildDatasetFromMessages is BuildDataset for a raw message slice (e.g.
// loaded from JSONL) with an explicit vPE list.
func BuildDatasetFromMessages(msgs []logfmt.Message, tickets []ticket.Ticket, vpes []string, start time.Time, months int) *Dataset {
	tr := &nfvsim.Trace{Messages: msgs, Tickets: tickets, VPENames: vpes}
	return BuildDataset(tr, start, months)
}

// MonthStart returns the first instant of month m (0-based).
func (ds *Dataset) MonthStart(m int) time.Time { return ds.Start.AddDate(0, m, 0) }

// sliceRange returns the events of vpe within [from, to).
func (ds *Dataset) sliceRange(vpe string, from, to time.Time) []features.Event {
	s := ds.Streams[vpe]
	lo := sort.Search(len(s), func(i int) bool { return !s[i].Time.Before(from) })
	hi := sort.Search(len(s), func(i int) bool { return !s[i].Time.Before(to) })
	return s[lo:hi]
}

// MonthEvents returns vpe's events during month m.
func (ds *Dataset) MonthEvents(vpe string, m int) []features.Event {
	return ds.sliceRange(vpe, ds.MonthStart(m), ds.MonthStart(m+1))
}

// RangeEvents returns vpe's events in [from, to).
func (ds *Dataset) RangeEvents(vpe string, from, to time.Time) []features.Event {
	return ds.sliceRange(vpe, from, to)
}

// CleanEvents returns vpe's events in [from, to) with the paper's training
// exclusion applied: anything within exclusion before a ticket's report
// through its repair finish is removed (§4.2: 3 days).
func (ds *Dataset) CleanEvents(vpe string, from, to time.Time, exclusion time.Duration) []features.Event {
	events := ds.sliceRange(vpe, from, to)
	if len(events) == 0 {
		return nil
	}
	// Collect exclusion intervals for this vPE overlapping [from, to).
	type span struct{ lo, hi time.Time }
	var spans []span
	for _, tk := range ds.Tickets {
		if tk.VPE != vpe {
			continue
		}
		lo := tk.Report.Add(-exclusion)
		hi := tk.Repair
		if hi.Before(from) || lo.After(to) {
			continue
		}
		spans = append(spans, span{lo, hi})
	}
	if len(spans) == 0 {
		return events
	}
	out := make([]features.Event, 0, len(events))
	for _, e := range events {
		excluded := false
		for _, sp := range spans {
			if !e.Time.Before(sp.lo) && !e.Time.After(sp.hi) {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, e)
		}
	}
	return out
}

// CleanStreams returns the clean streams (CleanEvents) of the given vPEs
// over [from, to), leaving out vPEs with none — the unit every trainer,
// update and adaptation learns from.
func (ds *Dataset) CleanStreams(vpes []string, from, to time.Time, exclusion time.Duration) [][]features.Event {
	var out [][]features.Event
	for _, v := range vpes {
		if ev := ds.CleanEvents(v, from, to, exclusion); len(ev) > 0 {
			out = append(out, ev)
		}
	}
	return out
}

// MonthHistogram returns vpe's template histogram for month m, the
// clustering and drift-detection feature (§3.3, §4.3).
func (ds *Dataset) MonthHistogram(vpe string, m int) cluster.Histogram {
	h := cluster.Histogram{}
	for _, e := range ds.MonthEvents(vpe, m) {
		h.Add(e.Template)
	}
	return h
}

// RangeHistogram returns vpe's template histogram over [from, to).
func (ds *Dataset) RangeHistogram(vpe string, from, to time.Time) cluster.Histogram {
	h := cluster.Histogram{}
	for _, e := range ds.sliceRange(vpe, from, to) {
		h.Add(e.Template)
	}
	return h
}
