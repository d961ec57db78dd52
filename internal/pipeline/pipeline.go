package pipeline

import (
	"fmt"
	"sync"
	"time"

	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/eval"
	"nfvpredict/internal/obs"
)

// Variant selects one of the Figure 7 system configurations.
type Variant int

// The three variants compared in Figure 7.
const (
	// Baseline trains a single model over all vPEs (K=1), with monthly
	// incremental updates but no fast adaptation.
	Baseline Variant = iota
	// Customized clusters vPEs and trains one model per cluster (§4.3).
	Customized
	// CustomizedAdaptive adds drift detection and transfer-learning
	// adaptation after system updates (§4.3).
	CustomizedAdaptive
)

// String names the variant as in Figure 7's legend.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "Baseline"
	case Customized:
		return "vPE cust"
	case CustomizedAdaptive:
		return "vPE cust + adapt"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Method selects the detector family (Figure 6).
type Method string

// The three methods of Figure 6.
const (
	MethodLSTM        Method = "lstm"
	MethodAutoencoder Method = "autoencoder"
	MethodOCSVM       Method = "ocsvm"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Variant picks the Figure 7 system configuration.
	Variant Variant
	// Method picks the detector family.
	Method Method
	// LSTM, AE, OCSVM configure the respective detectors; only the one
	// matching Method is used.
	LSTM  detect.LSTMConfig
	AE    detect.AEConfig
	OCSVM detect.OCSVMConfig
	// Eval sets the anomaly→ticket mapping parameters.
	Eval eval.Config
	// TrainExclusion is the §4.2 training-data exclusion around tickets.
	TrainExclusion time.Duration
	// KMin/KMax bound the modularity-based cluster-count search.
	KMin, KMax int
	// ClusterDim is the dense histogram dimension for K-means.
	ClusterDim int
	// DriftThreshold is the per-vPE month-over-month cosine below which
	// a vPE counts as drifted (§3.3: normal months stay above 0.8;
	// system updates drop below ~0.4; rollout staggering inside a month
	// dilutes the drop, so the default sits between the two regimes).
	DriftThreshold float64
	// DriftFraction is the fraction of a cluster's vPEs that must drift
	// in one month to trigger transfer-learning adaptation.
	DriftFraction float64
	// AdaptWindow is how much fresh data adaptation uses (§4.3: 1 week).
	AdaptWindow time.Duration
	// RetrainLagMonths is the non-adaptive fallback: after drift is
	// detected, a full from-scratch retrain happens once this many
	// months of fresh data have accumulated (§4.3: "rebuilding a
	// reasonable training dataset takes a long time, e.g. 3 months").
	RetrainLagMonths int
	// SweepPoints is the PRC threshold-sweep resolution.
	SweepPoints int
	// Parallelism bounds concurrent per-vPE scoring; ≤0 = serial.
	Parallelism int
	// Metrics, when set, makes the run observable: per-cluster LSTM
	// detectors report epochs/loss/throughput under a cluster<i>_ prefix,
	// and the walk-forward loop counts trainings, updates, adaptations,
	// and retrains. Nil (the default) keeps the run entirely
	// uninstrumented.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper-faithful configuration for the
// customization+adaptation LSTM system.
func DefaultConfig() Config {
	return Config{
		Variant:          CustomizedAdaptive,
		Method:           MethodLSTM,
		LSTM:             detect.DefaultLSTMConfig(),
		AE:               detect.DefaultAEConfig(),
		OCSVM:            detect.DefaultOCSVMConfig(),
		Eval:             eval.DefaultConfig(),
		TrainExclusion:   72 * time.Hour,
		KMin:             1,
		KMax:             8,
		ClusterDim:       128,
		DriftThreshold:   0.7,
		DriftFraction:    0.3,
		AdaptWindow:      7 * 24 * time.Hour,
		RetrainLagMonths: 3,
		SweepPoints:      40,
		Parallelism:      8,
	}
}

// MonthMetrics is one month's evaluation in the walk-forward protocol.
type MonthMetrics struct {
	// Month is the test month start.
	Month time.Time
	// Index is the 0-based month index.
	Index int
	// Best is the month's best-F operating point.
	Best eval.PRPoint
	// Warnings and FalseAlarms are counts at the month's best threshold.
	Warnings, FalseAlarms int
	// Adapted records whether transfer-learning adaptation ran before
	// this month's model was used.
	Adapted bool
}

// Result is a full pipeline run outcome.
type Result struct {
	// Clusters is the vPE grouping used (K=1 for Baseline).
	Clusters *cluster.Result
	// Events holds every scored event from the test months (1..Months-1).
	Events []detect.ScoredEvent
	// Monthly holds the Figure 7 series.
	Monthly []MonthMetrics
	// Curve is the PRC over the full test period (Figures 5-6).
	Curve []eval.PRPoint
	// Best is the overall best-F operating point (§5.2's P=0.80/R=0.81).
	Best eval.PRPoint
	// Outcome is the full mapping at the best threshold (Figure 8 input).
	Outcome *eval.Outcome
}

// newDetector builds a fresh detector for one cluster, with a
// cluster-specific seed so models are independent.
func (c *Config) newDetector(clusterIdx int) (detect.Detector, error) {
	switch c.Method {
	case MethodLSTM, "":
		cfg := c.LSTM
		cfg.Seed += int64(clusterIdx) * 101
		if cfg.Parallelism <= 0 {
			// Inherit the pipeline's worker budget for the
			// over-sampling loop's loss evaluation.
			cfg.Parallelism = c.Parallelism
		}
		d := detect.NewLSTMDetector(cfg)
		if c.Metrics != nil {
			d.SetMetrics(c.Metrics, fmt.Sprintf("cluster%d_", clusterIdx))
		}
		return d, nil
	case MethodAutoencoder:
		cfg := c.AE
		cfg.Seed += int64(clusterIdx) * 101
		return detect.NewAEDetector(cfg), nil
	case MethodOCSVM:
		cfg := c.OCSVM
		cfg.Seed += int64(clusterIdx) * 101
		return detect.NewOCSVMDetector(cfg), nil
	default:
		return nil, fmt.Errorf("pipeline: unknown method %q", c.Method)
	}
}

// Run executes the walk-forward protocol: train on month 0, then for each
// month m ≥ 1 score month m with the models trained through month m−1,
// update (or adapt) with month m, and continue (§5.1 "Training and
// Testing").
func Run(ds *Dataset, cfg Config) (*Result, error) {
	if ds.Months < 2 {
		return nil, fmt.Errorf("pipeline: need at least 2 months, got %d", ds.Months)
	}
	res := &Result{}

	// Walk-forward phase counters; all handles are nil (no-op) when
	// cfg.Metrics is nil.
	updates := cfg.Metrics.Counter("pipeline_updates_total", "Per-cluster monthly incremental updates completed.")
	adapts := cfg.Metrics.Counter("pipeline_adaptations_total", "Transfer-learning adaptations run after drift detection.")
	retrains := cfg.Metrics.Counter("pipeline_retrains_total", "Full from-scratch retrains (non-adaptive drift fallback).")
	monthGauge := cfg.Metrics.Gauge("pipeline_month", "Walk-forward month currently being scored.")
	trainSeconds := cfg.trainSeconds()

	// --- Clustering on month-0 histograms (§4.3), initial training ------
	cl, members, err := ClusterFleet(ds, cfg, ds.MonthStart(0), ds.MonthStart(1))
	if err != nil {
		return nil, err
	}
	res.Clusters = cl
	dets, _, err := TrainGroups(ds, cfg, members, ds.MonthStart(0), ds.MonthStart(1))
	if err != nil {
		return nil, err
	}

	// --- Walk forward ---------------------------------------------------
	adaptedPrev := make([]bool, res.Clusters.K)
	retrainAt := make([]int, res.Clusters.K) // month of scheduled full retrain (0 = none)
	for m := 1; m < ds.Months; m++ {
		monthFrom, monthTo := ds.MonthStart(m), ds.MonthStart(m+1)
		monthGauge.SetInt(m)
		adaptsThisMonth := make([]int, res.Clusters.K)

		// Score month m in ~3.5-day segments. The adaptive variant checks
		// for drift after each segment over a trailing one-week histogram
		// and, on detection, immediately runs transfer-learning recovery
		// on up to AdaptWindow of the freshest data — the paper's "one
		// week of new training data is sufficient to quickly bootstrap
		// the model after software update" (§4.3). Scoring the following
		// segments with the student bounds the false-alarm storm to
		// under a week, as in the paper's Figure 7 recovery.
		const segment = 84 * time.Hour
		var monthEvents []detect.ScoredEvent
		for wFrom := monthFrom; wFrom.Before(monthTo); {
			wTo := wFrom.Add(segment)
			if monthTo.Sub(wTo) < segment/2 {
				wTo = monthTo // absorb the short month tail
			}
			monthEvents = append(monthEvents, scoreRange(ds, dets, res.Clusters.Assign, wFrom, wTo, cfg.Parallelism)...)
			if cfg.Variant == CustomizedAdaptive {
				histFrom := wTo.Add(-cfg.AdaptWindow)
				if histFrom.Before(monthFrom) {
					histFrom = monthFrom
				}
				err := forEachCluster(res.Clusters.K, cfg.Parallelism, func(ci int) error {
					// Rollouts stagger across a cluster, so allow
					// repeated adaptation within the month when drift
					// persists for late-updated members.
					if adaptsThisMonth[ci] >= 2 || len(members[ci]) == 0 {
						return nil
					}
					if !clusterDriftedWeek(ds, members[ci], histFrom, wTo, m-1, cfg.DriftThreshold, cfg.DriftFraction) {
						return nil
					}
					streams := ds.CleanStreams(members[ci], wTo.Add(-cfg.AdaptWindow), wTo, cfg.TrainExclusion)
					if len(streams) == 0 {
						return nil
					}
					if err := dets[ci].Adapt(streams); err != nil {
						return fmt.Errorf("pipeline: adapt cluster %d month %d: %w", ci, m, err)
					}
					adapts.Inc()
					adaptsThisMonth[ci]++
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
			wFrom = wTo
		}
		res.Events = append(res.Events, monthEvents...)

		// Month metrics at the month's best threshold (Figure 7 series).
		best, _ := OperatingPoint(ds, cfg, monthEvents, monthFrom, monthTo)
		anoms := detect.Threshold(monthEvents, best.Threshold)
		warns := detect.ClusterWarnings(anoms, cfg.Eval.ClusterWindow, cfg.Eval.MinClusterSize)
		o := eval.MapWarnings(warns, ds.Tickets, cfg.Eval, monthFrom, monthTo)
		mm := MonthMetrics{
			Month:       monthFrom,
			Index:       m,
			Best:        best,
			Warnings:    len(warns),
			FalseAlarms: o.FalseAlarms,
		}
		for ci := range adaptedPrev {
			if adaptedPrev[ci] || adaptsThisMonth[ci] > 0 {
				mm.Adapted = true
			}
		}
		res.Monthly = append(res.Monthly, mm)
		for ci := range adaptedPrev {
			adaptedPrev[ci] = adaptsThisMonth[ci] > 0
		}

		// Prepare models for month m+1: the monthly incremental update
		// (§4.3 online learning). Clusters that adapted mid-month skip
		// it — their student already absorbed the freshest regime, and a
		// full-month pass would mix pre-update data back in. Without
		// adaptation, drift instead schedules the paper's naive fallback:
		// a full retrain once RetrainLagMonths of fresh data exist.
		if m == ds.Months-1 {
			break
		}
		err := forEachCluster(res.Clusters.K, cfg.Parallelism, func(ci int) error {
			if adaptsThisMonth[ci] > 0 || len(members[ci]) == 0 {
				return nil
			}
			if cfg.Variant != CustomizedAdaptive && cfg.RetrainLagMonths > 0 {
				if retrainAt[ci] == 0 && clusterDriftedWeek(ds, members[ci], monthFrom, monthTo, m-1, cfg.DriftThreshold, cfg.DriftFraction) {
					retrainAt[ci] = m + cfg.RetrainLagMonths
				}
				if retrainAt[ci] == m {
					retrainAt[ci] = 0
					lo := m - cfg.RetrainLagMonths + 1
					if lo < 0 {
						lo = 0
					}
					if streams := ds.CleanStreams(members[ci], ds.MonthStart(lo), monthTo, cfg.TrainExclusion); len(streams) > 0 {
						start := trainSeconds.Start()
						if err := dets[ci].Train(streams); err != nil {
							return fmt.Errorf("pipeline: retrain cluster %d month %d: %w", ci, m, err)
						}
						trainSeconds.ObserveDuration(start)
						retrains.Inc()
						return nil
					}
				}
			}
			streams := ds.CleanStreams(members[ci], monthFrom, monthTo, cfg.TrainExclusion)
			if len(streams) == 0 {
				return nil
			}
			if err := dets[ci].Update(streams); err != nil {
				return fmt.Errorf("pipeline: update cluster %d month %d: %w", ci, m, err)
			}
			updates.Inc()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// --- Full-period PRC and operating point (Figures 5, 6, 8) ---------
	evalFrom, evalTo := ds.MonthStart(1), ds.MonthStart(ds.Months)
	res.Best, res.Curve = OperatingPoint(ds, cfg, res.Events, evalFrom, evalTo)
	anoms := detect.Threshold(res.Events, res.Best.Threshold)
	warns := detect.ClusterWarnings(anoms, cfg.Eval.ClusterWindow, cfg.Eval.MinClusterSize)
	res.Outcome = eval.MapWarnings(warns, ds.Tickets, cfg.Eval, evalFrom, evalTo)
	return res, nil
}

// forEachCluster runs fn(ci) for ci in [0, k), fanning out across at most
// parallelism goroutines. Cluster detectors are mutually independent, so
// concurrent training produces exactly the sequential results; fn must
// only touch per-cluster state (indexed writes). The first error by
// cluster index is returned, making error selection deterministic too.
func forEachCluster(k, parallelism int, fn func(ci int) error) error {
	if parallelism > k {
		parallelism = k
	}
	if parallelism <= 1 || k <= 1 {
		for ci := 0; ci < k; ci++ {
			if err := fn(ci); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := w; ci < k; ci += parallelism {
				errs[ci] = fn(ci)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scoreRange scores every vPE's [from, to) stream with its cluster's
// model, fanning out across vPEs. An untrained detector scores nothing.
func scoreRange[D detect.Detector](ds *Dataset, dets []D, assign map[string]int, from, to time.Time, parallelism int) []detect.ScoredEvent {
	type job struct {
		vpe string
		det D
	}
	var jobs []job
	for _, v := range ds.VPEs {
		if ci := assign[v]; ci >= 0 && ci < len(dets) {
			jobs = append(jobs, job{vpe: v, det: dets[ci]})
		}
	}
	results := make([][]detect.ScoredEvent, len(jobs))
	if parallelism <= 1 {
		for i, j := range jobs {
			results[i] = j.det.Score(j.vpe, ds.RangeEvents(j.vpe, from, to))
		}
	} else {
		sem := make(chan struct{}, parallelism)
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i] = j.det.Score(j.vpe, ds.RangeEvents(j.vpe, from, to))
			}(i, j)
		}
		wg.Wait()
	}
	var out []detect.ScoredEvent
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// clusterDriftedWeek reports whether enough of a cluster's vPEs changed
// their syslog distribution in the week [wFrom, wTo) relative to their
// baseline month to declare the cluster's model obsolete (§3.3: the
// month-over-month cosine drops from >0.8 to <0.4 on a system update).
// Drift is judged per vPE because update rollouts stagger across the
// fleet and a cluster-aggregate histogram dilutes the signal.
func clusterDriftedWeek(ds *Dataset, vpes []string, wFrom, wTo time.Time, baselineMonth int, threshold, fraction float64) bool {
	if len(vpes) == 0 {
		return false
	}
	drifted := 0
	for _, v := range vpes {
		base := ds.MonthHistogram(v, baselineMonth)
		cur := ds.RangeHistogram(v, wFrom, wTo)
		if base.Total() == 0 || cur.Total() < 20 {
			continue // too little data for a stable histogram
		}
		if cluster.Cosine(base, cur) < threshold {
			drifted++
		}
	}
	return float64(drifted) >= fraction*float64(len(vpes))
}
