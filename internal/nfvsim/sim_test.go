package nfvsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/sigtree"
	"nfvpredict/internal/ticket"
)

func genTest(t *testing.T, mutate func(*Config)) *Trace {
	t.Helper()
	cfg := TestConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumVPEs = 0 },
		func(c *Config) { c.Months = 0 },
		func(c *Config) { c.BaseRatePerHour = 0 },
		func(c *Config) { c.RoleCount = 0 },
		func(c *Config) { c.Start = time.Time{} },
		func(c *Config) { c.MeanFaultGapHours = -1 },
		func(c *Config) { c.UpdateMonth = 99 },
		func(c *Config) { c.UpdateFraction = 1.5 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config should validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTest(t, nil)
	b := genTest(t, nil)
	if len(a.Messages) != len(b.Messages) || len(a.Tickets) != len(b.Tickets) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a.Messages), len(a.Tickets), len(b.Messages), len(b.Tickets))
	}
	for i := range a.Messages {
		if a.Messages[i] != b.Messages[i] {
			t.Fatalf("message %d differs", i)
		}
	}
	for i := range a.Tickets {
		if a.Tickets[i] != b.Tickets[i] {
			t.Fatalf("ticket %d differs: %+v vs %+v", i, a.Tickets[i], b.Tickets[i])
		}
	}
	// Repeated Generate on the same deployment must also be identical.
	cfg := TestConfig()
	d, _ := New(cfg)
	t1, _ := d.Generate()
	t2, _ := d.Generate()
	if len(t1.Messages) != len(t2.Messages) {
		t.Fatal("Generate is not repeatable on one deployment")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := genTest(t, nil)
	b := genTest(t, func(c *Config) { c.Seed = 99 })
	if len(a.Messages) == len(b.Messages) && len(a.Tickets) == len(b.Tickets) {
		same := true
		for i := range a.Messages {
			if a.Messages[i] != b.Messages[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestMessagesSortedAndInHorizon(t *testing.T) {
	tr := genTest(t, nil)
	cfg := TestConfig()
	if len(tr.Messages) == 0 {
		t.Fatal("no messages generated")
	}
	for i := 1; i < len(tr.Messages); i++ {
		if tr.Messages[i].Time.Before(tr.Messages[i-1].Time) {
			t.Fatalf("messages not sorted at %d", i)
		}
	}
	// Normal traffic is bounded by the horizon; episode traffic may spill
	// past End by at most the longest infected period (48h hardware).
	slack := 48 * time.Hour
	for _, m := range tr.Messages {
		if m.Time.Before(cfg.Start.Add(-time.Hour)) || m.Time.After(cfg.End().Add(slack)) {
			t.Fatalf("message far outside horizon: %v", m.Time)
		}
	}
}

func TestFleetComposition(t *testing.T) {
	tr := genTest(t, nil)
	if len(tr.VPENames) != 6 {
		t.Fatalf("VPENames: %v", tr.VPENames)
	}
	hosts := map[string]bool{}
	for _, m := range tr.Messages {
		hosts[m.Host] = true
	}
	for _, name := range tr.VPENames {
		if !hosts[name] {
			t.Errorf("vPE %s emitted no messages", name)
		}
		if _, ok := tr.RoleOf[name]; !ok {
			t.Errorf("vPE %s has no role", name)
		}
	}
}

func TestTicketsSortedWithResolvedDuplicates(t *testing.T) {
	tr := genTest(t, nil)
	if len(tr.Tickets) == 0 {
		t.Fatal("no tickets generated")
	}
	byID := map[int]ticket.Ticket{}
	for i, tk := range tr.Tickets {
		if i > 0 && tk.Report.Before(tr.Tickets[i-1].Report) {
			t.Fatal("tickets not sorted")
		}
		if tk.ID != i {
			t.Fatalf("ticket IDs not dense: %d at %d", tk.ID, i)
		}
		byID[tk.ID] = tk
	}
	var dups int
	for _, tk := range tr.Tickets {
		if tk.Cause == ticket.Duplicate {
			dups++
			orig, ok := byID[tk.DuplicateOf]
			if !ok {
				t.Fatalf("duplicate %d references missing ticket %d", tk.ID, tk.DuplicateOf)
			}
			if orig.Cause == ticket.Duplicate {
				t.Fatalf("duplicate %d references another duplicate", tk.ID)
			}
			if orig.VPE != tk.VPE {
				t.Fatalf("duplicate %d on %s references ticket on %s", tk.ID, tk.VPE, orig.VPE)
			}
			if tk.Report.Before(orig.Report) {
				t.Fatalf("duplicate %d reported before original", tk.ID)
			}
		} else if tk.DuplicateOf != -1 {
			t.Fatalf("non-duplicate %d has DuplicateOf=%d", tk.ID, tk.DuplicateOf)
		}
		if !tk.Repair.After(tk.Report) {
			t.Fatalf("ticket %d has non-positive duration", tk.ID)
		}
	}
	if dups == 0 {
		t.Fatal("expected some duplicate tickets")
	}
}

// The ticket mix must be maintenance-dominated with DUP and Circuit the
// next contributors (Figure 1a).
func TestTicketMixShape(t *testing.T) {
	tr := genTest(t, func(c *Config) {
		c.NumVPEs = 12
		c.Months = 6
		// Production-like rates: maintenance dominance is a property of
		// the default calibration, not of the fault-heavy test config.
		c.MeanFaultGapHours = DefaultConfig().MeanFaultGapHours
		c.MaintenanceEvery = DefaultConfig().MaintenanceEvery
	})
	var counts [ticket.NumCauses]int
	for _, tk := range tr.Tickets {
		counts[tk.Cause]++
	}
	if counts[ticket.Maintenance] <= counts[ticket.Circuit] || counts[ticket.Maintenance] <= counts[ticket.Duplicate] {
		t.Fatalf("maintenance should dominate: %v", counts)
	}
	for _, c := range []ticket.RootCause{ticket.Circuit, ticket.Cable, ticket.Hardware, ticket.Software, ticket.Duplicate} {
		if counts[c] == 0 {
			t.Errorf("no %v tickets generated", c)
		}
	}
	if counts[ticket.Circuit] <= counts[ticket.Hardware] {
		t.Errorf("circuit should outnumber hardware: %v", counts)
	}
}

// Inter-arrival of non-duplicated tickets must be heavy-tailed in the
// direction of Figure 1(b).
func TestInterArrivalHeavyTail(t *testing.T) {
	tr := genTest(t, func(c *Config) { c.NumVPEs = 16; c.Months = 12; c.Seed = 3 })
	gaps := ticket.NewStore(tr.Tickets).InterArrivals()
	if len(gaps) < 50 {
		t.Fatalf("too few gaps for shape check: %d", len(gaps))
	}
	var under40m, over10h int
	for _, g := range gaps {
		if g < 40*time.Minute {
			under40m++
		}
		if g > 10*time.Hour {
			over10h++
		}
	}
	if frac := float64(under40m) / float64(len(gaps)); frac > 0.1 {
		t.Errorf("%.0f%% of gaps under 40 min; paper says none", frac*100)
	}
	if frac := float64(over10h) / float64(len(gaps)); frac < 0.5 {
		t.Errorf("only %.0f%% of gaps over 10h; paper says ~80%%", frac*100)
	}
}

func TestOmenPrecedesTicketPerCalibration(t *testing.T) {
	// With a large fleet, the fraction of Circuit tickets preceded by an
	// omen burst should approximate pOmen=0.74.
	tr := genTest(t, func(c *Config) { c.NumVPEs = 24; c.Months = 12; c.MeanFaultGapHours = 150; c.UpdateMonth = -1 })
	byVPE := make(map[string][]logfmt.Message)
	for _, m := range tr.Messages {
		byVPE[m.Host] = append(byVPE[m.Host], m)
	}
	isOmen := func(text string) bool {
		return containsAny(text, []string{"BGP_UNUSABLE_ASPATH", "crc errors increasing", "hold-down timer armed"})
	}
	var circuits, withOmen int
	for _, tk := range tr.Tickets {
		if tk.Cause != ticket.Circuit {
			continue
		}
		circuits++
		found := false
		for _, m := range byVPE[tk.VPE] {
			if m.Time.After(tk.Report.Add(-45*time.Minute)) && m.Time.Before(tk.Report) && isOmen(m.Text) {
				found = true
				break
			}
		}
		if found {
			withOmen++
		}
	}
	if circuits < 30 {
		t.Fatalf("too few circuit tickets: %d", circuits)
	}
	frac := float64(withOmen) / float64(circuits)
	if frac < 0.60 || frac > 0.88 {
		t.Errorf("circuit omen fraction %.2f, want ≈0.74", frac)
	}
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// Updated vPEs must change their template distribution at the update
// (month-over-month cosine drop, §3.3). Checked at the family-name level
// using the signature tree.
func TestUpdateShiftsDistribution(t *testing.T) {
	tr := genTest(t, func(c *Config) {
		c.NumVPEs = 4
		c.Months = 4
		c.UpdateMonth = 2
		c.UpdateFraction = 1.0
		c.MeanFaultGapHours = 1e7 // suppress faults: isolate the update effect
		c.CoreIncidentsPerMonth = 0
		c.MaintenanceEvery = 1e6 * time.Hour
	})
	if len(tr.UpdateTimes) != 4 {
		t.Fatalf("expected all vPEs updated, got %d", len(tr.UpdateTimes))
	}
	cfg := TestConfig()
	tree := sigtree.New()
	// Template histograms for month 1 (pre) and month 3 (post).
	preStart, preEnd := cfg.Start.AddDate(0, 1, 0), cfg.Start.AddDate(0, 2, 0)
	postStart, postEnd := cfg.Start.AddDate(0, 3, 0), cfg.Start.AddDate(0, 4, 0)
	pre := map[int]float64{}
	post := map[int]float64{}
	for _, m := range tr.Messages {
		tpl := tree.Learn(m.Text)
		switch {
		case !m.Time.Before(preStart) && m.Time.Before(preEnd):
			pre[tpl.ID]++
		case !m.Time.Before(postStart) && m.Time.Before(postEnd):
			post[tpl.ID]++
		}
	}
	sim := histCosine(pre, post)
	if sim > 0.6 {
		t.Errorf("pre/post update cosine %.2f, want a clear drop (<0.6)", sim)
	}
}

func histCosine(a, b map[int]float64) float64 {
	var dot, na, nb float64
	for k, v := range a {
		na += v * v
		if w, ok := b[k]; ok {
			dot += v * w
		}
	}
	for _, w := range b {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// pPEs must out-log vPEs by roughly the configured multiplier: the paper
// reports vPE syslogs are ~77% smaller (§2).
func TestPPEVolumeMultiplier(t *testing.T) {
	tr := genTest(t, func(c *Config) {
		c.NumVPEs = 4
		c.NumPPEs = 4
		c.Months = 2
		c.MeanFaultGapHours = 1e7
		c.CoreIncidentsPerMonth = 0
		c.MaintenanceEvery = 1e6 * time.Hour
		c.UpdateMonth = -1
	})
	var vpeCount, ppeCount int
	physSeen := false
	for _, m := range tr.Messages {
		if m.Host[0] == 'v' {
			vpeCount++
		} else {
			ppeCount++
			if containsAny(m.Text, []string{"fan tray", "temperature sensor", "power supply", "optics monitor", "fabric plane", "linecard"}) {
				physSeen = true
			}
		}
	}
	if !physSeen {
		t.Fatal("pPEs emitted no physical-layer messages")
	}
	ratio := float64(ppeCount) / float64(vpeCount)
	if ratio < 2.5 || ratio > 7 {
		t.Errorf("pPE/vPE volume ratio %.2f, want ≈4.3", ratio)
	}
	reduction := 1 - float64(vpeCount)/float64(ppeCount)
	if reduction < 0.6 || reduction > 0.9 {
		t.Errorf("vPE volume reduction %.2f, want ≈0.77", reduction)
	}
}

func TestCoreIncidentsHitManyVPEs(t *testing.T) {
	tr := genTest(t, func(c *Config) {
		c.NumVPEs = 20
		c.Months = 6
		c.CoreIncidentsPerMonth = 0.5
		c.MeanFaultGapHours = 1e7
		c.MaintenanceEvery = 1e6 * time.Hour
		c.UpdateMonth = -1
		c.DupProb = 0
	})
	// All tickets now come from core incidents; they must cluster in time
	// across many vPEs.
	_, perBin := ticket.NewStore(tr.Tickets).OccurrenceMatrix(TestConfig().Start, TestConfig().Start.AddDate(0, 6, 0), time.Hour)
	maxVPEs := 0
	for _, n := range perBin {
		if n > maxVPEs {
			maxVPEs = n
		}
	}
	if maxVPEs < 8 {
		t.Errorf("core incidents should hit many vPEs in one bin, max %d", maxVPEs)
	}
}

func TestRolesProduceDistinctDistributions(t *testing.T) {
	// vPEs of different roles must have less similar template histograms
	// than vPEs of the same role.
	cfg := TestConfig()
	cfg.NumVPEs = 12
	cfg.Months = 2
	cfg.MeanFaultGapHours = 1e7
	cfg.CoreIncidentsPerMonth = 0
	cfg.MaintenanceEvery = 1e6 * time.Hour
	cfg.UpdateMonth = -1
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tree := sigtree.New()
	hist := map[string]map[int]float64{}
	for _, m := range tr.Messages {
		tpl := tree.Learn(m.Text)
		if hist[m.Host] == nil {
			hist[m.Host] = map[int]float64{}
		}
		hist[m.Host][tpl.ID]++
	}
	var sameRole, crossRole []float64
	names := tr.VPENames
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			sim := histCosine(hist[names[i]], hist[names[j]])
			if tr.RoleOf[names[i]] == tr.RoleOf[names[j]] {
				sameRole = append(sameRole, sim)
			} else {
				crossRole = append(crossRole, sim)
			}
		}
	}
	if len(sameRole) == 0 || len(crossRole) == 0 {
		t.Skip("role assignment degenerate for this seed")
	}
	if mean(sameRole) <= mean(crossRole)+0.05 {
		t.Errorf("same-role similarity %.3f not clearly above cross-role %.3f", mean(sameRole), mean(crossRole))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestDrawFaultGapShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 20000
	var under10h, over1000h int
	var sum float64
	for i := 0; i < n; i++ {
		g := drawFaultGap(r, 833)
		if g < 40*time.Minute {
			t.Fatalf("gap below 40 minutes: %v", g)
		}
		if g <= 10*time.Hour {
			under10h++
		}
		if g > 1000*time.Hour {
			over1000h++
		}
		sum += g.Hours()
	}
	// Mixture weights: 8% short, 60% mid, 32% heavy tail (>1000h).
	if f := float64(under10h) / float64(n); f < 0.05 || f > 0.12 {
		t.Errorf("fraction ≤10h = %.3f, want ≈0.08", f)
	}
	if f := float64(over1000h) / float64(n); f < 0.26 || f > 0.38 {
		t.Errorf("fraction >1000h = %.3f, want ≈0.32", f)
	}
	// The unscaled mixture mean is ~833h, so meanHours is honored.
	if m := sum / float64(n); m < 700 || m > 980 {
		t.Errorf("mean gap %.0fh, want ≈833h", m)
	}
}

func TestPoisson(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var sum int
	n := 5000
	for i := 0; i < n; i++ {
		sum += poisson(r, 3)
	}
	m := float64(sum) / float64(n)
	if m < 2.8 || m > 3.2 {
		t.Errorf("poisson mean %.2f, want ≈3", m)
	}
	if poisson(r, 0) != 0 || poisson(r, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestFamilyCatalogIntegrity(t *testing.T) {
	fams := Library()
	names := map[string]bool{}
	r := rand.New(rand.NewSource(1))
	for _, f := range fams {
		if names[f.Name] {
			t.Errorf("duplicate family name %q", f.Name)
		}
		names[f.Name] = true
		if f.Render == nil {
			t.Fatalf("family %q has no renderer", f.Name)
		}
		if f.Render(r) == "" {
			t.Errorf("family %q renders empty text", f.Name)
		}
	}
	for _, c := range []ticket.RootCause{ticket.Circuit, ticket.Cable, ticket.Hardware, ticket.Software} {
		if len(FamiliesByCause(fams, ClassOmen, c)) == 0 {
			t.Errorf("no omen families for %v", c)
		}
	}
	if len(FamiliesByClass(fams, ClassNormal)) < 20 {
		t.Error("need a rich normal catalog")
	}
	if len(FamiliesByClass(fams, ClassPostUpdate)) < 4 {
		t.Error("need post-update families")
	}
}

// Families must map to distinct signature-tree templates: the sigtree is
// how the pipeline recovers the simulator's family structure.
func TestFamiliesSeparableBySigtree(t *testing.T) {
	fams := Library()
	tree := sigtree.New()
	r := rand.New(rand.NewSource(7))
	famToTpl := map[string]int{}
	// Learn 30 instances of each family.
	for round := 0; round < 30; round++ {
		for _, f := range fams {
			tpl := tree.Learn(f.Render(r))
			if round == 29 {
				famToTpl[f.Name] = tpl.ID
			}
		}
	}
	// Distinct families must not all collapse together; allow a small
	// number of collisions but require ≥90% separation.
	used := map[int]int{}
	for _, id := range famToTpl {
		used[id]++
	}
	collisions := 0
	for _, n := range used {
		if n > 1 {
			collisions += n - 1
		}
	}
	if float64(collisions) > 0.1*float64(len(fams)) {
		t.Errorf("%d/%d families collide in the signature tree", collisions, len(fams))
	}
	// And each family must map stably to one template: two more renders
	// land on one existing template instead of founding a new one.
	for _, f := range fams {
		known := tree.Len()
		tpl1 := tree.Learn(f.Render(r))
		tpl2 := tree.Learn(f.Render(r))
		if tree.Len() != known || tpl1.ID != tpl2.ID {
			t.Errorf("family %q does not match stably", f.Name)
		}
	}
}

func BenchmarkGenerateSmallFleet(b *testing.B) {
	cfg := TestConfig()
	for i := 0; i < b.N; i++ {
		d, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// Glitch bursts must appear at roughly the configured rate, in clusters
// of 2-3 messages seconds apart, drawn from omen/rare families.
func TestGlitchGeneration(t *testing.T) {
	quiet := genTest(t, func(c *Config) {
		c.NumVPEs = 4
		c.Months = 2
		c.MeanFaultGapHours = 1e7
		c.CoreIncidentsPerMonth = 0
		c.MaintenanceEvery = 1e6 * time.Hour
		c.UpdateMonth = -1
		c.GlitchesPerDay = 0
	})
	noisy := genTest(t, func(c *Config) {
		c.NumVPEs = 4
		c.Months = 2
		c.MeanFaultGapHours = 1e7
		c.CoreIncidentsPerMonth = 0
		c.MaintenanceEvery = 1e6 * time.Hour
		c.UpdateMonth = -1
		c.GlitchesPerDay = 0.5
	})
	countOmenish := func(tr *Trace) int {
		n := 0
		for i := range tr.Messages {
			if containsAny(tr.Messages[i].Text, []string{
				"BGP_UNUSABLE_ASPATH", "crc errors increasing", "hold-down timer",
				"optical rx power", "sfp diagnostics", "parity error", "voltage rail",
				"chassis-control", "memory watermark", "scheduler slip",
			}) {
				n++
			}
		}
		return n
	}
	if countOmenish(quiet) != 0 {
		t.Fatalf("no-glitch trace contains %d omen-family messages", countOmenish(quiet))
	}
	got := countOmenish(noisy)
	// 4 vPEs × ~60 days × 0.5/day × ~2.5 msgs/burst ≈ 300.
	if got < 120 || got > 600 {
		t.Fatalf("glitch volume %d outside expected range", got)
	}
}
