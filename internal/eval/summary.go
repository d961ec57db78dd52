package eval

import (
	"sort"
	"time"
)

// TicketLead is one detected ticket's lead-time record: how far ahead of
// the report the earliest mapped warning arrived. Positive LeadMinutes
// means the warning preceded the report (a true early warning); negative
// means the first mapped warning came during the infected period.
type TicketLead struct {
	TicketID    int       `json:"ticket_id"`
	VPE         string    `json:"vpe"`
	Cause       string    `json:"cause"`
	Report      time.Time `json:"report"`
	LeadMinutes float64   `json:"lead_minutes"`
	Warnings    int       `json:"warnings"`
}

// Summary is the JSON-serializable evaluation summary: the warning/FAR
// operating numbers plus per-ticket lead times. It is the single shape
// both the scenario harness's assertions and cmd/figures consume, so the
// two never re-derive (and never disagree on) the same quantities.
type Summary struct {
	// Tickets is the recall-eligible ticket population;
	// DetectedTickets how many of them had at least one mapped warning.
	Tickets         int `json:"tickets"`
	DetectedTickets int `json:"detected_tickets"`
	// Warnings = MappedWarnings + FalseAlarms (each warning counted once).
	Warnings       int `json:"warnings"`
	MappedWarnings int `json:"mapped_warnings"`
	FalseAlarms    int `json:"false_alarms"`
	MultiMapped    int `json:"multi_mapped"`
	// The §5.2 operating measures.
	Precision         float64 `json:"precision"`
	Recall            float64 `json:"recall"`
	F                 float64 `json:"f_measure"`
	FalseAlarmsPerDay float64 `json:"false_alarms_per_day"`
	SpanHours         float64 `json:"span_hours"`
	// EarlyTickets counts detected tickets whose earliest warning
	// preceded the report; MeanLeadMinutes averages their leads.
	EarlyTickets    int     `json:"early_tickets"`
	EarlyRate       float64 `json:"early_rate"`
	MeanLeadMinutes float64 `json:"mean_lead_minutes"`
	// Leads lists every detected ticket (eligible or not), sorted by
	// report time then ID for deterministic output.
	Leads []TicketLead `json:"leads"`
}

// Summary condenses the outcome into its JSON form.
func (o *Outcome) Summary() Summary {
	m := o.Metrics()
	s := Summary{
		Tickets:           o.Tickets,
		DetectedTickets:   o.EligibleHits,
		Warnings:          o.MappedWarnings + o.FalseAlarms,
		MappedWarnings:    o.MappedWarnings,
		FalseAlarms:       o.FalseAlarms,
		MultiMapped:       o.MultiMapped,
		Precision:         m.Precision,
		Recall:            m.Recall,
		F:                 m.F,
		FalseAlarmsPerDay: m.FalseAlarmsPerDay,
		SpanHours:         o.Span.Hours(),
	}
	for _, hit := range o.Hits {
		s.Leads = append(s.Leads, TicketLead{
			TicketID:    hit.Ticket.ID,
			VPE:         hit.Ticket.VPE,
			Cause:       hit.Ticket.Cause.String(),
			Report:      hit.Ticket.Report,
			LeadMinutes: -hit.EarliestOffset.Minutes(), // positive = early
			Warnings:    hit.Warnings,
		})
	}
	sort.Slice(s.Leads, func(i, j int) bool {
		if !s.Leads[i].Report.Equal(s.Leads[j].Report) {
			return s.Leads[i].Report.Before(s.Leads[j].Report)
		}
		return s.Leads[i].TicketID < s.Leads[j].TicketID
	})
	// Summed in Leads order, not map order: float addition is not
	// associative, and the mean must not move from run to run.
	for _, l := range s.Leads {
		if l.LeadMinutes > 0 {
			s.EarlyTickets++
			s.MeanLeadMinutes += l.LeadMinutes
		}
	}
	if s.EarlyTickets > 0 {
		s.MeanLeadMinutes /= float64(s.EarlyTickets)
	}
	if s.Tickets > 0 {
		s.EarlyRate = float64(s.EarlyTickets) / float64(s.Tickets)
	}
	return s
}
