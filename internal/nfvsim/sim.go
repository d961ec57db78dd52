package nfvsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/ticket"
)

// Config parameterizes a simulated deployment. The zero value is not
// usable; start from DefaultConfig or TestConfig.
type Config struct {
	// Seed drives all randomness; equal seeds give identical traces.
	Seed int64
	// NumVPEs is the virtualized PE fleet size (the paper's was 38).
	NumVPEs int
	// NumPPEs adds a physical-PE comparison fleet that emits additional
	// physical-layer logging (for the §2 volume comparison). pPEs produce
	// logs only, no tickets.
	NumPPEs int
	// Start is the first instant of the trace.
	Start time.Time
	// Months is the horizon length (the paper's was 18).
	Months int
	// BaseRatePerHour is the mean normal syslog rate per vPE.
	BaseRatePerHour float64
	// RoleCount is the number of vPE role archetypes; the paper's fleet
	// clustered into 4 groups (§4.3).
	RoleCount int
	// MeanFaultGapHours parameterizes the heavy-tailed inter-fault gap
	// mixture; see drawFaultGap. Smaller means more faults.
	MeanFaultGapHours float64
	// MaintenanceEvery is the mean gap between maintenance windows.
	// Windows are rare but each produces several tickets, so maintenance
	// dominates ticket counts (Figure 1a) while per-vPE non-duplicated
	// inter-arrival keeps its heavy >1000 h tail (Figure 1b).
	MaintenanceEvery time.Duration
	// DupProb is the probability a fault ticket spawns duplicate tickets.
	DupProb float64
	// CoreIncidentsPerMonth is the rate of fleet-wide core-router
	// incidents that hit many vPEs in the same interval (Figure 2).
	CoreIncidentsPerMonth float64
	// UpdateMonth is the 0-based month index when the system update
	// starts rolling out; -1 disables the update.
	UpdateMonth int
	// UpdateFraction is the fraction of vPEs that receive the update.
	UpdateFraction float64
	// PPERateMultiplier scales pPE log volume relative to a vPE; 4.3
	// reproduces "vPE syslogs have 77% less volume than pPE syslogs".
	PPERateMultiplier float64
	// GlitchesPerDay is the per-vPE rate of benign anomaly bursts —
	// transient flaps and sensor excursions that look exactly like fault
	// omens but lead to no ticket. They are what keeps the operating
	// point's precision below 1 (the paper lands at P≈0.80 with 0.6
	// false alarms/day, §5.2).
	GlitchesPerDay float64
	// Injections appends scenario-driven events (timed fault episodes,
	// ticket storms, benign bursts) on top of the background schedule.
	// Each injection renders from its own seeded RNG, so the base trace
	// is byte-identical with or without it — the scenario harness's
	// reproducibility contract.
	Injections []Injection
}

// DefaultConfig mirrors the paper's deployment scale: 38 vPEs over 18
// months starting October 2016, with the system update rolling out around
// month 14 (late 2017).
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		NumVPEs:               38,
		NumPPEs:               0,
		Start:                 time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC),
		Months:                18,
		BaseRatePerHour:       1.5,
		RoleCount:             4,
		MeanFaultGapHours:     1400,
		MaintenanceEvery:      60 * 24 * time.Hour,
		DupProb:               0.3,
		CoreIncidentsPerMonth: 0.12,
		UpdateMonth:           14,
		UpdateFraction:        0.8,
		PPERateMultiplier:     4.3,
		GlitchesPerDay:        0.08,
	}
}

// TestConfig is a small, fast configuration for unit tests: a handful of
// vPEs over a few months with elevated fault rates so every code path is
// exercised cheaply.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.NumVPEs = 6
	cfg.Months = 4
	cfg.BaseRatePerHour = 1.2
	cfg.MeanFaultGapHours = 250
	cfg.MaintenanceEvery = 35 * 24 * time.Hour
	cfg.UpdateMonth = 2
	return cfg
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.NumVPEs <= 0:
		return fmt.Errorf("nfvsim: NumVPEs must be positive, got %d", c.NumVPEs)
	case c.Months <= 0:
		return fmt.Errorf("nfvsim: Months must be positive, got %d", c.Months)
	case c.BaseRatePerHour <= 0:
		return fmt.Errorf("nfvsim: BaseRatePerHour must be positive, got %v", c.BaseRatePerHour)
	case c.RoleCount <= 0:
		return fmt.Errorf("nfvsim: RoleCount must be positive, got %d", c.RoleCount)
	case c.Start.IsZero():
		return fmt.Errorf("nfvsim: Start must be set")
	case c.MeanFaultGapHours <= 0:
		return fmt.Errorf("nfvsim: MeanFaultGapHours must be positive, got %v", c.MeanFaultGapHours)
	case c.UpdateMonth >= c.Months:
		return fmt.Errorf("nfvsim: UpdateMonth %d outside horizon of %d months", c.UpdateMonth, c.Months)
	case c.UpdateFraction < 0 || c.UpdateFraction > 1:
		return fmt.Errorf("nfvsim: UpdateFraction must be in [0,1], got %v", c.UpdateFraction)
	}
	return c.validateInjections()
}

// End returns the first instant after the trace horizon.
func (c *Config) End() time.Time { return c.Start.AddDate(0, c.Months, 0) }

// Trace is a generated deployment history.
type Trace struct {
	// Messages holds every syslog message, vPEs and pPEs interleaved,
	// sorted by time.
	Messages []logfmt.Message
	// Tickets holds every trouble ticket, sorted by report time.
	Tickets []ticket.Ticket
	// VPENames lists the vPE hostnames ("vpe00"…).
	VPENames []string
	// PPENames lists the pPE hostnames ("ppe00"…), if any.
	PPENames []string
	// UpdateTimes maps each updated vPE to the instant its system update
	// took effect (used by tests and the oracle-adaptation ablation; the
	// pipeline itself detects updates from distribution shift).
	UpdateTimes map[string]time.Time
	// RoleOf maps each vPE to its role archetype index — the ground
	// truth the clustering stage should rediscover.
	RoleOf map[string]int
}

// Deployment is a configured simulator.
type Deployment struct {
	cfg   Config
	fams  []Family
	roles []*role
	vpes  []*vpeState
	ppes  []*vpeState
}

// vpeState is the per-router simulation state.
type vpeState struct {
	name       string
	roleIdx    int
	rng        *rand.Rand
	rateMult   float64 // volume multiplier
	faultMult  float64 // ticket-volume multiplier (skews Figure 2)
	physical   bool
	updated    bool
	updateTime time.Time
	// privRole, when non-nil, overrides the shared archetype: outlier
	// vPEs with unusual server roles/configurations whose syslog barely
	// resembles the fleet aggregate (Figure 3's "5 vPEs below 0.5").
	privRole *role
}

// New builds a deployment from cfg.
func New(cfg Config) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{cfg: cfg, fams: Library()}
	d.roles = buildRoles(d.fams, cfg.RoleCount, cfg.Seed)
	root := rand.New(rand.NewSource(cfg.Seed))

	// Role populations are skewed (40/30/20/10-ish) so the aggregate
	// syslog distribution is dominated by the big roles, giving the
	// Figure 3 cosine-similarity spread.
	for i := 0; i < cfg.NumVPEs; i++ {
		v := &vpeState{
			name:      fmt.Sprintf("vpe%02d", i),
			roleIdx:   pickRole(root, cfg.RoleCount),
			rng:       rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i))),
			rateMult:  0.75 + root.Float64()*0.6,
			faultMult: lognormalish(root, 0.75),
		}
		// ~1 in 8 vPEs is an outlier with a private role: its syslog
		// distribution sits far from the fleet aggregate (Figure 3's
		// handful of vPEs below 0.5 cosine similarity).
		if root.Float64() < 0.125 {
			v.privRole = buildPrivateRole(d.fams, cfg.Seed+7777*int64(i+1))
			v.roleIdx = -1
		}
		d.vpes = append(d.vpes, v)
	}
	// Update rollout: a contiguous two-week window inside UpdateMonth.
	if cfg.UpdateMonth >= 0 {
		updStart := cfg.Start.AddDate(0, cfg.UpdateMonth, 0)
		for _, v := range d.vpes {
			if root.Float64() < cfg.UpdateFraction {
				v.updated = true
				v.updateTime = updStart.Add(time.Duration(root.Float64() * float64(14*24*time.Hour)))
			}
		}
	}
	for i := 0; i < cfg.NumPPEs; i++ {
		p := &vpeState{
			name:     fmt.Sprintf("ppe%02d", i),
			roleIdx:  pickRole(root, cfg.RoleCount),
			rng:      rand.New(rand.NewSource(cfg.Seed + 5000 + int64(i))),
			rateMult: (0.75 + root.Float64()*0.6) * cfg.PPERateMultiplier,
			physical: true,
		}
		d.ppes = append(d.ppes, p)
	}
	return d, nil
}

// pickRole assigns roles with a skewed population: role 0 is the most
// common archetype, the last role the rarest.
func pickRole(r *rand.Rand, roleCount int) int {
	u := r.Float64()
	acc := 0.0
	for i := 0; i < roleCount; i++ {
		share := roleShare(i, roleCount)
		acc += share
		if u < acc {
			return i
		}
	}
	return roleCount - 1
}

func roleShare(i, n int) float64 {
	// Mild decay (1/sqrt) normalized over n roles: the biggest archetype
	// holds ~36% of a 4-role fleet, so the fleet aggregate is a blend no
	// single role dominates — which keeps most vPEs' cosine similarity
	// to the aggregate below the paper's 0.8 line (Figure 3).
	var total float64
	for j := 0; j < n; j++ {
		total += 1 / math.Sqrt(float64(j+1))
	}
	return (1 / math.Sqrt(float64(i+1))) / total
}

// lognormalish returns exp(N(0, sigma)), a skewed positive multiplier.
func lognormalish(r *rand.Rand, sigma float64) float64 {
	x := r.NormFloat64() * sigma
	if x > 2.5 {
		x = 2.5
	}
	if x < -1.5 {
		x = -1.5
	}
	return math.Exp(x)
}

// Generate produces the full trace. It is deterministic: calling it again
// on the same deployment (or on a fresh deployment with the same Config)
// yields an identical trace.
func (d *Deployment) Generate() (*Trace, error) {
	// Re-seed per-router RNGs so repeated Generate calls are identical.
	for i, v := range d.vpes {
		v.rng = rand.New(rand.NewSource(d.cfg.Seed + 1000 + int64(i)))
	}
	for i, p := range d.ppes {
		p.rng = rand.New(rand.NewSource(d.cfg.Seed + 5000 + int64(i)))
	}
	tr := &Trace{
		UpdateTimes: make(map[string]time.Time),
		RoleOf:      make(map[string]int),
	}
	var allTickets []episodeTicket
	for _, v := range d.vpes {
		tr.VPENames = append(tr.VPENames, v.name)
		tr.RoleOf[v.name] = v.roleIdx
		if v.updated {
			tr.UpdateTimes[v.name] = v.updateTime
		}
	}
	for _, p := range d.ppes {
		tr.PPENames = append(tr.PPENames, p.name)
	}

	// 1. Schedule fault episodes and maintenance per vPE.
	episodes := d.scheduleEpisodes()

	// 2. Fleet-wide core incidents, then scenario-driven injections
	// (rendered from private RNGs; see Injection).
	episodes = append(episodes, d.scheduleCoreIncidents()...)
	episodes = append(episodes, d.scheduleInjections()...)

	// 3. Render episode syslog + tickets.
	var msgs []logfmt.Message
	for i := range episodes {
		ep := &episodes[i]
		msgs = append(msgs, d.renderEpisode(ep)...)
		allTickets = append(allTickets, ep.tickets...)
	}

	// 4. Normal traffic plus benign glitch bursts per router.
	for _, v := range d.vpes {
		msgs = append(msgs, d.generateNormal(v)...)
		msgs = append(msgs, d.generateGlitches(v)...)
	}
	for _, p := range d.ppes {
		msgs = append(msgs, d.generateNormal(p)...)
	}

	// 5. Sort and finalize.
	sort.Slice(msgs, func(i, j int) bool {
		if !msgs[i].Time.Equal(msgs[j].Time) {
			return msgs[i].Time.Before(msgs[j].Time)
		}
		if msgs[i].Host != msgs[j].Host {
			return msgs[i].Host < msgs[j].Host
		}
		return msgs[i].Text < msgs[j].Text
	})
	tr.Messages = msgs

	sort.Slice(allTickets, func(i, j int) bool { return allTickets[i].t.Report.Before(allTickets[j].t.Report) })
	idByKey := make(map[int]int) // episode-local key → final ticket ID
	for i := range allTickets {
		et := &allTickets[i]
		et.t.ID = i
		if et.key >= 0 {
			idByKey[et.key] = i
		}
	}
	for i := range allTickets {
		et := &allTickets[i]
		if et.dupOfKey >= 0 {
			et.t.DuplicateOf = idByKey[et.dupOfKey]
		} else {
			et.t.DuplicateOf = -1
		}
		tr.Tickets = append(tr.Tickets, et.t)
	}
	return tr, nil
}
