package resilience

import "sync"

// Mode is a runtime degradation mode. The monitor's duties rank: emitting
// warnings (scoring) outranks improving the model (learning/adaptation),
// so under pressure the system sheds learning first and scoring only when
// scoring itself is the thing failing.
type Mode int32

const (
	// ModeNormal: full service — scoring, template learning, adaptation.
	ModeNormal Mode = iota
	// ModeShedLearning: keep scoring (warnings still flow), pause the
	// adaptation machinery (spooling, drift checks, candidate training).
	// Entered under overload — when shard queues back up, background
	// training is the load worth shedding — or when durable I/O keeps
	// faulting (an adaptation the process cannot persist is wasted work).
	ModeShedLearning
	// ModeShedScoring: keep learning templates (the signature tree stays
	// warm for the recovery), stop pushing messages through the scoring
	// path. Entered when scoring itself faults repeatedly (a poisoned
	// model panicking batch after batch); warnings can no longer be
	// emitted, so readiness must go red while this mode holds.
	ModeShedScoring
)

// String renders the mode for status surfaces.
func (m Mode) String() string {
	switch m {
	case ModeShedLearning:
		return "shed-learning"
	case ModeShedScoring:
		return "shed-scoring"
	default:
		return "normal"
	}
}

// Sample is one periodic observation of the pressure signals.
type Sample struct {
	// QueueFrac is the worst shard queue's fill fraction [0,1].
	QueueFrac float64
	// ScoringFaults is the cumulative scoring-fault count (shard panics);
	// the controller reacts to its per-evaluation delta.
	ScoringFaults uint64
	// IOFaults is the cumulative durable-I/O failure count (checkpoint +
	// spool write failures); per-evaluation delta, like ScoringFaults.
	IOFaults uint64
	// SLOFastBurn reports that at least one SLO's fast window is burning
	// above its threshold — the budget-spend early-warning the obs layer
	// evaluates; the controller sheds learning on it (scoring is the duty
	// the SLOs protect).
	SLOFastBurn bool
}

// The controller's thresholds.
const (
	// shedLearningAt is the queue fill fraction that sheds learning.
	shedLearningAt = 0.75
	// recoverAt is the queue fill fraction at or below which an
	// evaluation counts as clean — hysteresis against flapping.
	recoverAt = 0.25
	// scoringFaultBurst is the per-evaluation scoring-fault delta that
	// sheds scoring.
	scoringFaultBurst = 3
	// ioFaultBurst is the per-evaluation I/O-fault delta that sheds
	// learning.
	ioFaultBurst = 3
	// recoverEvals is how many consecutive clean evaluations step the
	// mode back one level.
	recoverEvals = 3
)

// Degrader turns periodic pressure samples into a degradation mode with
// hysteresis: escalation is immediate (one bad sample), recovery is
// stepwise (recoverEvals consecutive clean samples walk the mode back one
// level at a time), so a flapping signal cannot oscillate the system
// between modes every tick.
type Degrader struct {
	// OnChange, when set, observes each transition.
	OnChange func(from, to Mode, reason string)

	mu         sync.Mutex
	mode       Mode
	clean      int
	primed     bool
	lastScoreF uint64
	lastIOF    uint64
	lastReason string
}

// NewDegrader builds a controller starting in ModeNormal.
func NewDegrader(onChange func(from, to Mode, reason string)) *Degrader {
	return &Degrader{OnChange: onChange}
}

// Mode returns the current mode.
func (d *Degrader) Mode() Mode {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mode
}

// Reason returns what caused the last transition ("" at startup).
func (d *Degrader) Reason() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastReason
}

// Eval folds one sample in and returns the (possibly new) mode. Call it on
// a fixed cadence; the fault-burst thresholds are per-call deltas.
func (d *Degrader) Eval(s Sample) Mode {
	d.mu.Lock()
	defer d.mu.Unlock()
	var scoreDelta, ioDelta uint64
	if d.primed {
		// Counters are cumulative and monotone; a restart-reset shows as a
		// smaller value and reads as a zero delta.
		if s.ScoringFaults > d.lastScoreF {
			scoreDelta = s.ScoringFaults - d.lastScoreF
		}
		if s.IOFaults > d.lastIOF {
			ioDelta = s.IOFaults - d.lastIOF
		}
	}
	d.primed = true
	d.lastScoreF, d.lastIOF = s.ScoringFaults, s.IOFaults

	// The pressure this sample calls for, independent of history.
	want, reason := ModeNormal, ""
	switch {
	case scoreDelta >= scoringFaultBurst:
		want = ModeShedScoring
		reason = "scoring faults bursting"
	case s.QueueFrac >= shedLearningAt:
		want = ModeShedLearning
		reason = "shard queues backed up"
	case ioDelta >= ioFaultBurst:
		want = ModeShedLearning
		reason = "durable I/O faulting"
	case s.SLOFastBurn:
		want = ModeShedLearning
		reason = "SLO fast window burning"
	}

	switch {
	case want > d.mode:
		d.transition(want, reason)
	case want == d.mode:
		d.clean = 0
	default:
		// Recovery: only samples that are clean for the *current* mode's
		// trigger count, and the queue must actually have drained.
		if s.QueueFrac <= recoverAt && scoreDelta == 0 && ioDelta == 0 && !s.SLOFastBurn {
			d.clean++
			if d.clean >= recoverEvals {
				d.transition(d.mode-1, "recovered")
			}
		} else {
			d.clean = 0
		}
	}
	return d.mode
}

// transition applies a mode change. Caller holds d.mu.
func (d *Degrader) transition(to Mode, reason string) {
	from := d.mode
	d.mode = to
	d.clean = 0
	d.lastReason = reason
	if d.OnChange != nil && from != to {
		d.OnChange(from, to, reason)
	}
}
