package pipeline

import (
	"fmt"
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/eval"
)

// ExperimentRow is one configuration's outcome in a §5.2 micro-benchmark.
type ExperimentRow struct {
	// Label names the configuration, e.g. "per-vPE 3mo" or "adapt 1wk".
	Label string
	// TrainEvents is how many events the configuration trained on — the
	// data-collection cost the paper's reductions are about.
	TrainEvents int
	// ReadyMonth is the first month index the configuration could serve
	// (0 when irrelevant): a scratch retrain needing three months of
	// fresh data is ready three months later than a one-week adaptation,
	// which is the §5.2 recovery-latency claim.
	ReadyMonth int
	// Best is the best-F operating point on the evaluation month.
	Best eval.PRPoint
}

// evalGroups scores [from, to) with the given detectors and returns the
// best-F operating point.
func evalGroups(ds *Dataset, cfg Config, groups [][]string, dets []detect.Detector, from, to time.Time) eval.PRPoint {
	assign := map[string]int{}
	for gi, members := range groups {
		for _, v := range members {
			assign[v] = gi
		}
	}
	best, _ := OperatingPoint(ds, cfg, scoreRange(ds, dets, assign, from, to, cfg.Parallelism), from, to)
	return best
}

// TrainingDataSweep reproduces the §5.2 clustering claim ("reduce the
// amount of initial training data from 3 months to 1 month"): per-vPE
// models trained on 1–3 months of their own data versus per-cluster
// models trained on 1 month of pooled data, all evaluated on evalMonth.
// evalMonth must leave room for 3 training months before it.
func TrainingDataSweep(ds *Dataset, cfg Config, evalMonth int) ([]ExperimentRow, error) {
	if evalMonth < 3 || evalMonth >= ds.Months {
		return nil, fmt.Errorf("pipeline: evalMonth %d needs 3 prior months inside the horizon", evalMonth)
	}
	evalFrom, evalTo := ds.MonthStart(evalMonth), ds.MonthStart(evalMonth+1)

	// Per-vPE grouping: every vPE trains alone (full customization, full
	// data-collection cost).
	solo := make([][]string, len(ds.VPEs))
	for i, v := range ds.VPEs {
		solo[i] = []string{v}
	}
	var rows []ExperimentRow
	for months := 1; months <= 3; months++ {
		from := ds.MonthStart(evalMonth - months)
		dets, n, err := TrainGroups(ds, cfg, solo, from, evalFrom)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExperimentRow{
			Label:       fmt.Sprintf("per-vPE %dmo", months),
			TrainEvents: n,
			Best:        evalGroups(ds, cfg, solo, dets, evalFrom, evalTo),
		})
	}

	// Clustered grouping on the histograms of the single training month.
	cl, groups, err := ClusterFleet(ds, cfg, ds.MonthStart(evalMonth-1), evalFrom)
	if err != nil {
		return nil, err
	}
	dets, n, err := TrainGroups(ds, cfg, groups, ds.MonthStart(evalMonth-1), evalFrom)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ExperimentRow{
		Label:       fmt.Sprintf("clustered(K=%d) 1mo", cl.K),
		TrainEvents: n,
		Best:        evalGroups(ds, cfg, groups, dets, evalFrom, evalTo),
	})
	return rows, nil
}

// AdaptRecoverySweep reproduces the §5.2 transfer-learning claim ("reduce
// the recover time from software updates from 3 months down to 1 week"):
// after the system update in updateMonth U, it compares
//
//   - keeping the obsolete teacher (no recovery),
//   - transfer-learning adaptation on 1 week of post-update data,
//   - retraining from scratch on 1 week, 1 month, and 2 months of
//     post-update data,
//
// each evaluated on the first month it could actually serve: the
// one-week arms on month U+1, the 1-month retrain on U+2, the 2-month
// retrain on U+3. The comparison is therefore about recovery LATENCY —
// a scratch retrain eventually matches the adapted student, but only
// after months of data collection the adaptation does not need. The
// dataset must extend at least 4 months past updateMonth.
func AdaptRecoverySweep(ds *Dataset, cfg Config, updateMonth int) ([]ExperimentRow, error) {
	if updateMonth < 1 || updateMonth+4 > ds.Months {
		return nil, fmt.Errorf("pipeline: updateMonth %d needs 4 following months inside the horizon", updateMonth)
	}

	// Cluster on pre-update data and train the teacher on the months
	// before the update.
	_, groups, err := ClusterFleet(ds, cfg, ds.MonthStart(0), ds.MonthStart(1))
	if err != nil {
		return nil, err
	}
	teacherFrom := ds.MonthStart(0)
	teacherTo := ds.MonthStart(updateMonth)
	var rows []ExperimentRow

	// Post-update windows. The rollout spans the first half of
	// updateMonth, so its last week is fully post-update.
	weekFrom := ds.MonthStart(updateMonth + 1).Add(-7 * 24 * time.Hour)
	weekTo := ds.MonthStart(updateMonth + 1)

	evalAt := func(month int) (time.Time, time.Time) {
		return ds.MonthStart(month), ds.MonthStart(month + 1)
	}

	// (a) Obsolete teacher, no recovery: serving month U+1.
	teacher, _, err := TrainGroups(ds, cfg, groups, teacherFrom, teacherTo)
	if err != nil {
		return nil, err
	}
	eFrom, eTo := evalAt(updateMonth + 1)
	rows = append(rows, ExperimentRow{
		Label:      "teacher (no recovery)",
		ReadyMonth: updateMonth + 1,
		Best:       evalGroups(ds, cfg, groups, teacher, eFrom, eTo),
	})

	// (b) Transfer-learning adaptation on one week of fresh data.
	adapted, _, err := TrainGroups(ds, cfg, groups, teacherFrom, teacherTo)
	if err != nil {
		return nil, err
	}
	var adaptEvents int
	for gi, members := range groups {
		streams := ds.CleanStreams(members, weekFrom, weekTo, cfg.TrainExclusion)
		if len(streams) == 0 {
			continue
		}
		adaptEvents += countEvents(streams)
		if err := adapted[gi].Adapt(streams); err != nil {
			return nil, err
		}
	}
	eFrom, eTo = evalAt(updateMonth + 1)
	rows = append(rows, ExperimentRow{
		Label:       "transfer adapt 1wk",
		TrainEvents: adaptEvents,
		ReadyMonth:  updateMonth + 1,
		Best:        evalGroups(ds, cfg, groups, adapted, eFrom, eTo),
	})

	// (c) Retrain from scratch on increasing post-update budgets, each
	// evaluated on the first month after its data window closes.
	budgets := []struct {
		label      string
		from, to   time.Time
		readyMonth int
	}{
		{"retrain 1wk", weekFrom, weekTo, updateMonth + 1},
		{"retrain 1mo", ds.MonthStart(updateMonth + 1), ds.MonthStart(updateMonth + 2), updateMonth + 2},
		{"retrain 2mo", ds.MonthStart(updateMonth + 1), ds.MonthStart(updateMonth + 3), updateMonth + 3},
	}
	for _, b := range budgets {
		dets, n, err := TrainGroups(ds, cfg, groups, b.from, b.to)
		if err != nil {
			return nil, err
		}
		eFrom, eTo := evalAt(b.readyMonth)
		rows = append(rows, ExperimentRow{
			Label:       b.label,
			TrainEvents: n,
			ReadyMonth:  b.readyMonth,
			Best:        evalGroups(ds, cfg, groups, dets, eFrom, eTo),
		})
	}
	return rows, nil
}

// PredictiveWindowSweep reproduces Figure 5: PRCs for predictive periods
// of 1 hour, 1 day, and 2 days over an already scored event set. The
// paper finds performance converges at 1 day.
func PredictiveWindowSweep(ds *Dataset, res *Result, cfg Config, windows []time.Duration) map[time.Duration][]eval.PRPoint {
	out := make(map[time.Duration][]eval.PRPoint, len(windows))
	evalFrom, evalTo := ds.MonthStart(1), ds.MonthStart(ds.Months)
	thrs := detect.ThresholdSweep(res.Events, cfg.SweepPoints)
	for _, w := range windows {
		ecfg := cfg.Eval
		ecfg.PredictivePeriod = w
		out[w] = eval.PRCurve(res.Events, ds.Tickets, thrs, ecfg, evalFrom, evalTo)
	}
	return out
}
