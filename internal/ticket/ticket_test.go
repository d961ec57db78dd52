package ticket

import (
	"testing"
	"time"
)

var t0 = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

func mk(id int, vpe string, cause RootCause, offset, dur time.Duration) Ticket {
	return Ticket{
		ID:          id,
		VPE:         vpe,
		Cause:       cause,
		Report:      t0.Add(offset),
		Repair:      t0.Add(offset + dur),
		DuplicateOf: -1,
	}
}

func TestRootCauseString(t *testing.T) {
	want := map[RootCause]string{
		Maintenance: "Maintenance", Circuit: "Circuit", Cable: "Cable",
		Hardware: "Hardware", Software: "Software", Duplicate: "DUP",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String()=%q want %q", c, c.String(), s)
		}
	}
	if RootCause(99).String() != "RootCause(99)" {
		t.Fatal("unknown cause formatting")
	}
}

func TestStoreSortsByReport(t *testing.T) {
	s := NewStore([]Ticket{
		mk(2, "a", Circuit, 10*time.Hour, time.Hour),
		mk(1, "a", Cable, 1*time.Hour, time.Hour),
	})
	all := s.tickets
	if len(all) != 2 || all[0].ID != 1 || all[1].ID != 2 {
		t.Fatalf("not sorted: %+v", all)
	}
}

func TestStoreImmutableToInput(t *testing.T) {
	in := []Ticket{mk(1, "a", Circuit, time.Hour, time.Hour)}
	s := NewStore(in)
	in[0].VPE = "mutated"
	if s.tickets[0].VPE != "a" {
		t.Fatal("store aliased caller slice")
	}
}

func TestBetween(t *testing.T) {
	s := NewStore([]Ticket{
		mk(1, "a", Circuit, 1*time.Hour, time.Hour),
		mk(2, "b", Circuit, 2*time.Hour, time.Hour),
		mk(3, "a", Software, 30*time.Hour, time.Hour),
	})
	got := s.Between(t0, t0.Add(24*time.Hour))
	if len(got) != 2 {
		t.Fatalf("Between: %+v", got)
	}
	// Boundary: from inclusive, to exclusive.
	got = s.Between(t0.Add(time.Hour), t0.Add(2*time.Hour))
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Between boundaries: %+v", got)
	}
}

func TestMonthlyByCause(t *testing.T) {
	s := NewStore([]Ticket{
		mk(1, "a", Circuit, 24*time.Hour, time.Hour),     // Oct 2016
		mk(2, "a", Maintenance, 24*time.Hour, time.Hour), // Oct 2016
		mk(3, "a", Software, 32*24*time.Hour, time.Hour), // Nov 2016
	})
	months := s.MonthlyByCause(t0, t0.AddDate(0, 2, 0))
	if len(months) != 2 {
		t.Fatalf("months: %d", len(months))
	}
	if months[0].Counts[Circuit] != 1 || months[0].Counts[Maintenance] != 1 || months[0].Total != 2 {
		t.Fatalf("month 0: %+v", months[0])
	}
	if months[1].Counts[Software] != 1 || months[1].Total != 1 {
		t.Fatalf("month 1: %+v", months[1])
	}
}

func TestInterArrivalsExcludesDuplicatesAndCrossVPE(t *testing.T) {
	s := NewStore([]Ticket{
		mk(1, "a", Circuit, 0, time.Hour),
		mk(2, "b", Circuit, 30*time.Minute, time.Hour), // different vPE: no gap
		mk(3, "a", Duplicate, 1*time.Hour, time.Hour),  // excluded
		mk(4, "a", Software, 10*time.Hour, time.Hour),  // gap 10h vs ticket 1
	})
	gaps := s.InterArrivals()
	if len(gaps) != 1 || gaps[0] != 10*time.Hour {
		t.Fatalf("gaps: %v", gaps)
	}
}

func TestCDF(t *testing.T) {
	samples := []time.Duration{1 * time.Hour, 2 * time.Hour, 3 * time.Hour, 4 * time.Hour}
	at := []time.Duration{30 * time.Minute, 2 * time.Hour, 10 * time.Hour}
	cdf := CDF(samples, at)
	if cdf[0] != 0 || cdf[1] != 0.5 || cdf[2] != 1 {
		t.Fatalf("CDF: %v", cdf)
	}
	if got := CDF(nil, at); got[0] != 0 || got[2] != 0 {
		t.Fatalf("empty CDF: %v", got)
	}
}

func TestOccurrenceMatrix(t *testing.T) {
	day := 24 * time.Hour
	s := NewStore([]Ticket{
		mk(1, "busy", Circuit, 0, time.Hour),
		mk(2, "busy", Software, 2*day, time.Hour),
		mk(3, "busy", Circuit, 2*day+time.Hour, time.Hour), // same bin as #2
		mk(4, "quiet", Circuit, 2*day+2*time.Hour, time.Hour),
		mk(5, "quiet", Maintenance, 5*day, time.Hour), // excluded
	})
	cells, perBin := s.OccurrenceMatrix(t0, t0.Add(30*day), day)
	if len(cells) != 3 { // busy@0, busy@2d (dedup), quiet@2d
		t.Fatalf("cells: %+v", cells)
	}
	// busy has 3 non-maintenance tickets, quiet has 1 → quiet index 0.
	for _, c := range cells {
		if c.VPE == "quiet" && c.VPEIndex != 0 {
			t.Fatalf("quiet should sort first: %+v", c)
		}
		if c.VPE == "busy" && c.VPEIndex != 1 {
			t.Fatalf("busy should sort last: %+v", c)
		}
	}
	if perBin[t0.Add(2*day)] != 2 {
		t.Fatalf("perBin: %v", perBin)
	}
}
