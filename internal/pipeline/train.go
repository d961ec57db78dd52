package pipeline

import (
	"fmt"
	"sync/atomic"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/eval"
	"nfvpredict/internal/features"
	"nfvpredict/internal/obs"
)

// ClusterFleet groups the vPEs by their template histograms over
// [from, to) (§4.3): the modularity-best K in [cfg.KMin, cfg.KMax] — so a
// fixed K is KMin == KMax — and a single group for the Baseline variant.
// The second result lists each cluster's members.
func ClusterFleet(ds *Dataset, cfg Config, from, to time.Time) (*cluster.Result, [][]string, error) {
	hists := make(map[string]cluster.Histogram, len(ds.VPEs))
	for _, v := range ds.VPEs {
		hists[v] = ds.RangeHistogram(v, from, to)
	}
	kMin, kMax := cfg.KMin, cfg.KMax
	if cfg.Variant == Baseline {
		kMin, kMax = 1, 1
	}
	cl, err := cluster.SelectK(hists, kMin, kMax, cfg.ClusterDim, cfg.LSTM.Seed)
	if err != nil {
		return nil, nil, err
	}
	groups := make([][]string, cl.K)
	for ci := range groups {
		groups[ci] = cl.Members(ci)
	}
	return cl, groups, nil
}

// trainSeconds times every from-scratch training (initial and retrain).
func (c *Config) trainSeconds() *obs.Histogram {
	return c.Metrics.Histogram("pipeline_train_seconds",
		"Wall time of per-cluster training phases (train/retrain).", obs.ExpBuckets(0.01, 4, 10))
}

// TrainGroups is the one training loop: a fresh detector per group (its
// own seed, cfg.Metrics attached — Config.newDetector) trained on the
// group's clean streams of [from, to). Detectors share nothing and the
// dataset is immutable, so groups train side by side, up to
// cfg.Parallelism at once, with the results of the sequential order. The
// second result is the number of events trained on.
//
// A group with no clean data in the range keeps its untrained detector,
// never nil: it scores nothing, and a later Update or Adapt gives it its
// first training. A caller that ships what it trains cannot serve such a
// detector and refuses the group before training starts (TrainModels).
func TrainGroups(ds *Dataset, cfg Config, groups [][]string, from, to time.Time) ([]detect.Detector, int, error) {
	trainings := cfg.Metrics.Counter("pipeline_trainings_total", "Per-cluster trainings from scratch completed.")
	trainSeconds := cfg.trainSeconds()
	dets := make([]detect.Detector, len(groups))
	var events atomic.Int64
	err := forEachCluster(len(groups), cfg.Parallelism, func(gi int) error {
		d, err := cfg.newDetector(gi)
		if err != nil {
			return err
		}
		dets[gi] = d
		streams := ds.CleanStreams(groups[gi], from, to, cfg.TrainExclusion)
		if len(streams) == 0 {
			return nil
		}
		events.Add(int64(countEvents(streams)))
		start := trainSeconds.Start()
		if err := d.Train(streams); err != nil {
			return fmt.Errorf("pipeline: training cluster %d: %w", gi, err)
		}
		trainSeconds.ObserveDuration(start)
		trainings.Inc()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return dets, int(events.Load()), nil
}

func countEvents(streams [][]features.Event) int {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	return n
}

// OperatingPoint places the anomaly threshold for events scored over
// [from, to): with tickets to judge against, the best-F point of the PR
// curve over a quantile sweep of the scores (§5.2; the curve is the second
// result); without, the 0.999 score quantile.
func OperatingPoint(ds *Dataset, cfg Config, events []detect.ScoredEvent, from, to time.Time) (eval.PRPoint, []eval.PRPoint) {
	if len(ds.Tickets) == 0 {
		return eval.PRPoint{Threshold: detect.ScoreQuantile(events, 0.999)}, nil
	}
	thrs := detect.ThresholdSweep(events, cfg.SweepPoints)
	curve := eval.PRCurve(events, ds.Tickets, thrs, cfg.Eval, from, to)
	return eval.BestF(curve), curve
}

// TrainModels clusters the fleet on its month-0 histograms and trains one
// LSTM per cluster on the clean data of the first months months: a bundle
// a monitor can serve once it has a threshold (the caller's, or
// TrainBundle's). Every cluster must have clean data to learn from; one
// that has none fails the call before anything is trained.
func TrainModels(ds *Dataset, cfg Config, months int) (*bundle.Bundle, error) {
	from, to := ds.MonthStart(0), ds.MonthStart(months)
	cl, groups, err := ClusterFleet(ds, cfg, from, ds.MonthStart(1))
	if err != nil {
		return nil, err
	}
	for ci, members := range groups {
		if len(ds.CleanStreams(members, from, to, cfg.TrainExclusion)) == 0 {
			return nil, fmt.Errorf("pipeline: cluster %d %v has no clean training data in the first %d month(s)", ci, members, months)
		}
	}
	dets, _, err := TrainGroups(ds, cfg, groups, from, to)
	if err != nil {
		return nil, err
	}
	b := &bundle.Bundle{Tree: ds.Tree, Assign: cl.Assign}
	for _, d := range dets {
		ld, ok := d.(*detect.LSTMDetector)
		if !ok {
			return nil, fmt.Errorf("pipeline: a bundle holds LSTM detectors, not %s", d.Name())
		}
		b.Detectors = append(b.Detectors, ld)
	}
	return b, nil
}

// TrainBundle is the whole recipe, and all of cmd/nfvtrain: TrainModels,
// then each cluster's training-time template distribution — what the
// online lifecycle measures live drift against (§3.3's cosine signal),
// instead of a baseline taken from the first traffic it happens to see —
// and the operating point of the models over their own training range.
func TrainBundle(ds *Dataset, cfg Config, months int) (*bundle.Bundle, error) {
	b, err := TrainModels(ds, cfg, months)
	if err != nil {
		return nil, err
	}
	from, to := ds.MonthStart(0), ds.MonthStart(months)
	cl := cluster.Result{K: len(b.Detectors), Assign: b.Assign}
	for ci := range b.Detectors {
		hist := make(map[int]float64)
		for _, s := range ds.CleanStreams(cl.Members(ci), from, to, cfg.TrainExclusion) {
			for _, e := range s {
				hist[e.Template]++
			}
		}
		b.TrainHist = append(b.TrainHist, hist)
	}
	best, _ := OperatingPoint(ds, cfg, scoreRange(ds, b.Detectors, b.Assign, from, to, cfg.Parallelism), from, to)
	b.Threshold = best.Threshold
	return b, nil
}
