package eval

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/ticket"
)

func TestSummary(t *testing.T) {
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	tickets := []ticket.Ticket{
		{ID: 0, VPE: "vpe00", Cause: ticket.Circuit, Report: base.Add(10 * time.Hour), Repair: base.Add(12 * time.Hour), DuplicateOf: -1},
		{ID: 1, VPE: "vpe01", Cause: ticket.Hardware, Report: base.Add(40 * time.Hour), Repair: base.Add(50 * time.Hour), DuplicateOf: -1},
		{ID: 2, VPE: "vpe02", Cause: ticket.Software, Report: base.Add(80 * time.Hour), Repair: base.Add(81 * time.Hour), DuplicateOf: -1},
	}
	warnings := []detect.Warning{
		// 20 min before ticket 0's report: an early warning.
		{VPE: "vpe00", Time: base.Add(10*time.Hour - 20*time.Minute), Size: 3},
		// Inside ticket 1's infected period: detected, not early.
		{VPE: "vpe01", Time: base.Add(42 * time.Hour), Size: 2},
		// Maps to nothing: false alarm.
		{VPE: "vpe03", Time: base.Add(60 * time.Hour), Size: 2},
	}
	out := MapWarnings(warnings, tickets, DefaultConfig(), base, base.Add(96*time.Hour))
	s := out.Summary()

	if s.Tickets != 3 || s.DetectedTickets != 2 {
		t.Fatalf("tickets %d detected %d, want 3/2", s.Tickets, s.DetectedTickets)
	}
	if s.Warnings != 3 || s.MappedWarnings != 2 || s.FalseAlarms != 1 {
		t.Fatalf("warnings %d mapped %d false %d, want 3/2/1", s.Warnings, s.MappedWarnings, s.FalseAlarms)
	}
	if s.EarlyTickets != 1 {
		t.Fatalf("early tickets %d, want 1", s.EarlyTickets)
	}
	if math.Abs(s.MeanLeadMinutes-20) > 0.01 {
		t.Fatalf("mean lead %.2f min, want 20", s.MeanLeadMinutes)
	}
	if len(s.Leads) != 2 {
		t.Fatalf("leads %d, want 2", len(s.Leads))
	}
	if s.Leads[0].TicketID != 0 || s.Leads[1].TicketID != 1 {
		t.Fatalf("leads not sorted by report: %+v", s.Leads)
	}
	if s.Leads[0].LeadMinutes < 19.9 || s.Leads[0].LeadMinutes > 20.1 {
		t.Fatalf("lead minutes %.2f, want ~20", s.Leads[0].LeadMinutes)
	}
	m := out.Metrics()
	if s.Precision != m.Precision || s.Recall != m.Recall || s.F != m.F || s.FalseAlarmsPerDay != m.FalseAlarmsPerDay {
		t.Fatalf("summary metrics diverge from Metrics(): %+v vs %+v", s, m)
	}

	// The summary must round-trip through JSON (the -json report path).
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Summary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.DetectedTickets != s.DetectedTickets || len(back.Leads) != len(s.Leads) {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

// TestSummaryMeanLeadIsOrderFixed: MeanLeadMinutes is the in-order sum
// over Leads, so it cannot move with Hits' map iteration order. Leads of
// ~1e8 and ~1e-3 minutes make the rounding of each addition depend on
// what was summed before it.
func TestSummaryMeanLeadIsOrderFixed(t *testing.T) {
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	o := &Outcome{Hits: map[int]*TicketHit{}, Tickets: 96}
	for id := 0; id < 96; id++ {
		lead := time.Duration(60_000_007 + 13*id) // ≈60 ms ≈ 1e-3 min
		if id%3 == 0 {
			lead = time.Duration(1e8+id) * time.Minute
		}
		o.Hits[id] = &TicketHit{
			Ticket:         ticket.Ticket{ID: id, Report: base.Add(time.Duration(id) * time.Hour)},
			EarliestOffset: -lead,
			Warnings:       1,
		}
	}
	first := o.Summary()
	var sum float64
	for _, l := range first.Leads {
		sum += l.LeadMinutes
	}
	want := sum / float64(len(first.Leads))
	for call := 0; call < 50; call++ {
		s := o.Summary()
		if s.EarlyTickets != 96 {
			t.Fatalf("early tickets %d, want 96", s.EarlyTickets)
		}
		if math.Float64bits(s.MeanLeadMinutes) != math.Float64bits(want) {
			t.Fatalf("call %d: mean lead %v, want the in-order sum's %v", call, s.MeanLeadMinutes, want)
		}
	}
}
