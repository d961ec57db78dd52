package nfvsim

import (
	"math"
	"math/rand"
	"time"

	"nfvpredict/internal/logfmt"
)

// role is a vPE archetype: a weighted family subset plus a motif catalog.
// Motifs are short fixed sequences of families (a poll cycle, a login
// audit trail, a telemetry sweep) that give normal syslog the sequential
// structure the LSTM exploits (§4.2: "vPE syslogs display sequential
// patterns").
type role struct {
	idx int
	// pre and post are the motif catalogs before and after the system
	// update; non-updated vPEs use pre for the whole trace.
	pre, post *motifSet
}

// motifSet is a weighted catalog of motifs over family indices.
type motifSet struct {
	motifs  [][]int   // sequences of family indices
	weights []float64 // normalized selection probabilities
}

// pick selects a motif index by weight.
func (ms *motifSet) pick(r *rand.Rand) []int {
	u := r.Float64()
	acc := 0.0
	for i, w := range ms.weights {
		acc += w
		if u < acc {
			return ms.motifs[i]
		}
	}
	return ms.motifs[len(ms.motifs)-1]
}

// buildRoles constructs roleCount archetypes over the family library.
// Each role shares a common core of families with every other role but
// weights role-specific families heavily, producing the partial-overlap
// structure behind Figure 3 (only ~1/3 of vPEs closely match the fleet
// aggregate) while keeping K-means able to recover the archetypes.
func buildRoles(fams []Family, roleCount int, seed int64) []*role {
	normal := FamiliesByClass(fams, ClassNormal)
	rare := FamiliesByClass(fams, ClassRare)
	postUpd := FamiliesByClass(fams, ClassPostUpdate)

	roles := make([]*role, roleCount)
	for ri := 0; ri < roleCount; ri++ {
		rng := rand.New(rand.NewSource(seed + 77*int64(ri+1)))
		// Core families shared by all roles: the first third of the
		// normal catalog. Role-specific: a deterministic, role-dependent
		// slice of the remainder.
		core := normal[:len(normal)/3]
		rest := normal[len(normal)/3:]
		span := len(rest) / roleCount
		if span < 2 {
			span = 2
		}
		lo := (ri * span) % len(rest)
		var specific []int
		for k := 0; k < span+3 && k < len(rest); k++ {
			specific = append(specific, rest[(lo+k)%len(rest)])
		}
		roleRare := []int{rare[ri%len(rare)], rare[(ri+1)%len(rare)]}

		pre := buildMotifs(rng, core, specific, roleRare)
		addAmbiguousStems(pre, rng, core, specific)

		// Post-update catalog: the software update rewrites both the
		// role-specific families and half the shared core chatter (its
		// daemons emit v2 formats), collapsing the month-over-month
		// cosine similarity as in §3.3.
		rng2 := rand.New(rand.NewSource(seed + 991*int64(ri+1)))
		replaced := make([]int, len(specific))
		copy(replaced, specific)
		for k := 0; k < len(replaced) && k < len(postUpd); k++ {
			if k%2 == 0 || k < 3 {
				replaced[k] = postUpd[(ri+k)%len(postUpd)]
			}
		}
		coreV2 := make([]int, len(core))
		copy(coreV2, core)
		for k := 0; k < len(coreV2); k += 2 {
			coreV2[k] = postUpd[(ri+k+3)%len(postUpd)]
		}
		post := buildMotifs(rng2, coreV2, replaced, roleRare)
		addAmbiguousStems(post, rng2, coreV2, replaced)

		roles[ri] = &role{idx: ri, pre: pre, post: post}
	}
	return roles
}

// buildMotifs assembles a motif catalog: frequent motifs over core and
// specific families with Zipf-like weights, plus two rare "minority
// pattern" motifs (§4.2) built around the role's rare families.
func buildMotifs(rng *rand.Rand, core, specific, rare []int) *motifSet {
	const frequentMotifs = 12
	ms := &motifSet{}
	pool := append(append([]int{}, core...), specific...)
	for i := 0; i < frequentMotifs; i++ {
		length := 2 + rng.Intn(4)
		motif := make([]int, length)
		for j := range motif {
			// Bias toward role-specific families for diversity.
			if rng.Float64() < 0.68 && len(specific) > 0 {
				motif[j] = specific[rng.Intn(len(specific))]
			} else {
				motif[j] = pool[rng.Intn(len(pool))]
			}
		}
		ms.motifs = append(ms.motifs, motif)
	}
	// Minority motifs: rare family followed by a couple of common ones.
	for _, rf := range rare {
		motif := []int{rf, core[rng.Intn(len(core))]}
		ms.motifs = append(ms.motifs, motif)
	}
	// Zipf-ish weights for frequent motifs; tiny fixed mass for minority.
	const minorityMass = 0.02
	var z float64
	for i := 0; i < frequentMotifs; i++ {
		z += 1 / float64(i+1)
	}
	for i := 0; i < frequentMotifs; i++ {
		ms.weights = append(ms.weights, (1-minorityMass)*(1/float64(i+1))/z)
	}
	for range rare {
		ms.weights = append(ms.weights, minorityMass/float64(len(rare)))
	}
	return ms
}

// addAmbiguousStems prepends high-weight motifs that share the same
// two-template stem across ALL roles but complete with role-specific
// templates. A single fleet-wide model faces irreducible ambiguity at the
// stem (it cannot know which role's continuation follows), while a
// per-cluster model is sharp — this is what makes the paper's
// customization gain (Figure 7: "vPE cust" above "Baseline") show up in
// the simulation rather than being absorbed by model capacity.
func addAmbiguousStems(ms *motifSet, rng *rand.Rand, core, specific []int) {
	if len(core) < 4 || len(specific) == 0 {
		return
	}
	stems := [][2]int{{core[0], core[1]}, {core[2], core[3]}, {core[1], core[2]}}
	const stemMass = 0.25 // sizable share: stems are everyday traffic
	// Scale existing weights down to make room.
	for i := range ms.weights {
		ms.weights[i] *= 1 - stemMass
	}
	for si, stem := range stems {
		motif := []int{stem[0], stem[1]}
		compLen := 1 + rng.Intn(2)
		for k := 0; k < compLen; k++ {
			motif = append(motif, specific[rng.Intn(len(specific))])
		}
		ms.motifs = append(ms.motifs, motif)
		ms.weights = append(ms.weights, stemMass/float64(len(stems)))
		_ = si
	}
}

// buildPrivateRole constructs an outlier archetype: heavy weight on an
// unusual slice of the normal catalog with its own motif structure, and a
// post-update variant like every other role.
func buildPrivateRole(fams []Family, seed int64) *role {
	normal := FamiliesByClass(fams, ClassNormal)
	rare := FamiliesByClass(fams, ClassRare)
	postUpd := FamiliesByClass(fams, ClassPostUpdate)
	rng := rand.New(rand.NewSource(seed))
	// The outlier's "specific" pool is a random half of the catalog,
	// including families the shared roles barely use; no shared core, so
	// its aggregate similarity stays low.
	var specific []int
	for _, f := range normal {
		if rng.Float64() < 0.4 {
			specific = append(specific, f)
		}
	}
	if len(specific) < 4 {
		specific = normal[:4]
	}
	tiny := specific[:2]
	roleRare := []int{rare[rng.Intn(len(rare))]}
	pre := buildMotifs(rng, tiny, specific, roleRare)
	replaced := make([]int, len(specific))
	copy(replaced, specific)
	for k := 0; k < len(replaced) && k < len(postUpd); k++ {
		replaced[k] = postUpd[(k*3)%len(postUpd)]
	}
	post := buildMotifs(rng, tiny, replaced, roleRare)
	return &role{idx: -1, pre: pre, post: post}
}

// catalogAt returns the motif catalog in force for v at time t.
func (d *Deployment) catalogAt(v *vpeState, t time.Time) *motifSet {
	r := v.privRole
	if r == nil {
		r = d.roles[v.roleIdx%len(d.roles)]
	}
	if v.updated && !t.Before(v.updateTime) {
		return r.post
	}
	return r.pre
}

// diurnal returns a smooth day-shaped rate multiplier in [0.7, 1.3]:
// routers log more during business hours.
func diurnal(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	// Peak at 14:00, trough at 02:00.
	return 1 + 0.3*sin2pi((h-8)/24)
}

func sin2pi(x float64) float64 { return math.Sin(2 * math.Pi * x) }

// generateNormal produces v's normal (non-episode) syslog across the
// horizon: motif after motif, short intra-motif gaps, exponential
// inter-motif gaps tuned to the configured base rate, diurnally modulated.
// pPEs additionally interleave physical-layer families, multiplying their
// volume (§2's vPE-vs-pPE comparison).
func (d *Deployment) generateNormal(v *vpeState) []logfmt.Message {
	cfg := &d.cfg
	end := cfg.End()
	physFams := FamiliesByClass(d.fams, ClassPhysical)

	rate := cfg.BaseRatePerHour * v.rateMult // messages per hour
	meanPerMotif := 3.5
	physShare := 0.0
	if v.physical {
		// A pPE's extra volume is physical-layer chatter: with rate
		// multiplied by PPERateMultiplier, the non-physical share stays
		// comparable to a vPE's.
		physShare = 1 - 1/cfg.PPERateMultiplier
	}
	motifsPerHour := rate * (1 - physShare) / meanPerMotif
	if motifsPerHour <= 0 {
		return nil
	}
	meanMotifGap := time.Duration(float64(time.Hour) / motifsPerHour)

	var msgs []logfmt.Message
	t := cfg.Start.Add(time.Duration(v.rng.Float64() * float64(meanMotifGap)))
	nextPhys := cfg.Start
	if v.physical {
		physRate := rate * physShare
		nextPhys = cfg.Start.Add(expDur(v.rng, time.Duration(float64(time.Hour)/physRate)))
	}
	for t.Before(end) {
		// Interleave physical-layer singletons up to the current time.
		if v.physical {
			physRate := rate * physShare
			for nextPhys.Before(t) {
				fi := physFams[v.rng.Intn(len(physFams))]
				msgs = append(msgs, d.render(v, fi, nextPhys))
				nextPhys = nextPhys.Add(expDur(v.rng, time.Duration(float64(time.Hour)/physRate)))
			}
		}
		motif := d.catalogAt(v, t).pick(v.rng)
		mt := t
		for _, fi := range motif {
			if !mt.Before(end) {
				break
			}
			msgs = append(msgs, d.render(v, fi, mt))
			mt = mt.Add(time.Duration(1+v.rng.Intn(20)) * time.Second)
		}
		gap := expDur(v.rng, meanMotifGap)
		t = t.Add(time.Duration(float64(gap) / diurnal(t)))
	}
	return msgs
}

// render instantiates one message of family fi at time t from the vPE's
// own RNG stream.
func (d *Deployment) render(v *vpeState, fi int, t time.Time) logfmt.Message {
	return d.renderWith(v, v.rng, fi, t)
}

// renderWith is render with an explicit RNG: injected episodes pass their
// private stream so text rendering never advances the vPE's.
func (d *Deployment) renderWith(v *vpeState, r *rand.Rand, fi int, t time.Time) logfmt.Message {
	f := &d.fams[fi]
	return logfmt.Message{
		Time:     t,
		Host:     v.name,
		Facility: f.Facility,
		Severity: f.Severity,
		Tag:      f.Tag,
		Text:     f.Render(r),
	}
}

// expDur draws an exponential duration with the given mean.
func expDur(r *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(r.ExpFloat64() * float64(mean))
}
