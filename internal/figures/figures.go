// Package figures regenerates every figure and in-text result of the
// paper's evaluation from the simulated deployment, printing the same
// rows/series the paper plots. It is shared by cmd/figures and the root
// benchmark harness (bench_test.go), so `go test -bench` and the CLI
// produce identical tables. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured values.
package figures

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"nfvpredict/internal/cluster"
	"nfvpredict/internal/eval"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/ticket"
)

// StatsSimConfig is the fleet used for the measurement-study figures
// (1a, 1b, 2, 3, update shift, vPE-vs-pPE volume): the paper's full scale.
func StatsSimConfig() nfvsim.Config {
	cfg := nfvsim.DefaultConfig()
	cfg.NumPPEs = 8
	return cfg
}

// ModelSimConfig is the fleet used for the model figures (5-8 and the
// §5.2 reductions): smaller than the paper's deployment so the pure-Go
// LSTM walk-forward completes in benchmark time, but long enough to hold
// several pre-update months, the update, and the recovery.
func ModelSimConfig() nfvsim.Config {
	cfg := nfvsim.DefaultConfig()
	cfg.NumVPEs = 10
	cfg.NumPPEs = 0
	cfg.Months = 12
	cfg.BaseRatePerHour = 1.2
	cfg.MeanFaultGapHours = 250
	cfg.UpdateMonth = 9
	return cfg
}

// ReductionSimConfig is the fleet for the §5.2 training-overhead
// experiments: the update sits early enough to leave three months of
// post-update data for the scratch-retrain arms.
func ReductionSimConfig() nfvsim.Config {
	cfg := ModelSimConfig()
	cfg.Months = 9
	cfg.UpdateMonth = 4
	// The recovery experiment isolates the update effect: the whole
	// fleet updates, as in the §5.2 micro-benchmark framing.
	cfg.UpdateFraction = 1.0
	return cfg
}

// ModelPipelineConfig sizes the pipeline for the model figures.
func ModelPipelineConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.LSTM.Hidden = []int{24, 24}
	cfg.LSTM.MaxVocab = 96
	cfg.LSTM.Epochs = 2
	cfg.LSTM.MaxWindowsPerEpoch = 2500
	cfg.KMax = 6
	return cfg
}

// Fig1a prints the monthly root-cause mix (Figure 1a) and returns the
// per-month breakdowns.
func Fig1a(w io.Writer, tr *nfvsim.Trace, start time.Time, months int) []ticket.MonthlyBreakdown {
	st := ticket.NewStore(tr.Tickets)
	rows := st.MonthlyByCause(start, start.AddDate(0, months, 0))
	fmt.Fprintf(w, "# Figure 1(a): percent of ticket types over time (monthly)\n")
	fmt.Fprintf(w, "%-8s %6s", "month", "total")
	for _, c := range ticket.Causes {
		fmt.Fprintf(w, " %12s", c)
	}
	fmt.Fprintln(w)
	for _, mb := range rows {
		fmt.Fprintf(w, "%-8s %6d", mb.Month.Format("2006-01"), mb.Total)
		for _, c := range ticket.Causes {
			pct := 0.0
			if mb.Total > 0 {
				pct = 100 * float64(mb.Counts[c]) / float64(mb.Total)
			}
			fmt.Fprintf(w, " %11.1f%%", pct)
		}
		fmt.Fprintln(w)
	}
	return rows
}

// Fig1b prints the inter-arrival CDF of non-duplicated tickets (Figure
// 1b) and returns (CDF values, the paper's three checkpoints).
func Fig1b(w io.Writer, tr *nfvsim.Trace) (cdf []float64, checkpoints [3]float64) {
	st := ticket.NewStore(tr.Tickets)
	gaps := st.InterArrivals()
	grid := []time.Duration{
		40 * time.Minute, time.Hour, 3 * time.Hour, 10 * time.Hour,
		30 * time.Hour, 100 * time.Hour, 300 * time.Hour, 1000 * time.Hour,
		3000 * time.Hour, 10000 * time.Hour,
	}
	cdf = ticket.CDF(gaps, grid)
	fmt.Fprintf(w, "# Figure 1(b): CDF of non-duplicated ticket inter-arrival time (n=%d)\n", len(gaps))
	fmt.Fprintf(w, "%-12s %8s\n", "hours", "CDF")
	for i, g := range grid {
		fmt.Fprintf(w, "%-12.1f %8.3f\n", g.Hours(), cdf[i])
	}
	// Paper checkpoints: none under 40 min, 80% beyond 10 h, 25% beyond
	// 1000 h.
	checkpoints[0] = cdf[0]     // ≤ 40 min
	checkpoints[1] = 1 - cdf[3] // > 10 h
	checkpoints[2] = 1 - cdf[7] // > 1000 h
	fmt.Fprintf(w, "under 40min: %.3f (paper ~0)   over 10h: %.3f (paper ~0.80)   over 1000h: %.3f (paper ~0.25)\n",
		checkpoints[0], checkpoints[1], checkpoints[2])
	return cdf, checkpoints
}

// Fig2 prints the ticket-occurrence scatter summary (Figure 2): per-vPE
// volumes (skew) and the most fleet-wide time bins (core incidents).
func Fig2(w io.Writer, tr *nfvsim.Trace, start time.Time, months int) (cells int, maxBinVPEs int) {
	st := ticket.NewStore(tr.Tickets)
	cellsList, perBin := st.OccurrenceMatrix(start, start.AddDate(0, months, 0), 24*time.Hour)
	perVPE := map[string]int{}
	for _, c := range cellsList {
		perVPE[c.VPE]++
	}
	type vc struct {
		v string
		n int
	}
	var vols []vc
	for v, n := range perVPE {
		vols = append(vols, vc{v, n})
	}
	sort.Slice(vols, func(i, j int) bool { return vols[i].n > vols[j].n })
	fmt.Fprintf(w, "# Figure 2: non-maintenance tickets across time and vPEs\n")
	fmt.Fprintf(w, "occupied (vPE, day) cells: %d\n", len(cellsList))
	fmt.Fprintf(w, "busiest vPEs (ticket-days): ")
	for i, v := range vols {
		if i >= 5 {
			break
		}
		fmt.Fprintf(w, "%s=%d ", v.v, v.n)
	}
	fmt.Fprintln(w)
	for _, n := range perBin {
		if n > maxBinVPEs {
			maxBinVPEs = n
		}
	}
	fmt.Fprintf(w, "max vPEs sharing one day bin (core-router incidents): %d of %d\n", maxBinVPEs, len(tr.VPENames))
	return len(cellsList), maxBinVPEs
}

// Fig3 prints the cosine-similarity quantiles of each vPE's monthly
// template distribution versus the fleet aggregate (Figure 3), sorted by
// median similarity, and returns the per-vPE medians.
func Fig3(w io.Writer, ds *pipeline.Dataset) map[string]float64 {
	// Per-vPE, per-month similarity to the aggregate of that month.
	monthly := make(map[string][]float64)
	for m := 0; m < ds.Months; m++ {
		hists := make(map[string]cluster.Histogram, len(ds.VPEs))
		for _, v := range ds.VPEs {
			hists[v] = ds.MonthHistogram(v, m)
		}
		sims := cluster.SimilarityToAggregate(hists)
		for v, s := range sims {
			monthly[v] = append(monthly[v], s)
		}
	}
	type row struct {
		v string
		q [5]float64
	}
	rows := make([]row, 0, len(monthly))
	medians := make(map[string]float64, len(monthly))
	for v, sims := range monthly {
		q := cluster.Quantiles(sims)
		rows = append(rows, row{v, q})
		medians[v] = q[2]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].q[2] < rows[j].q[2] })
	fmt.Fprintf(w, "# Figure 3: cosine similarity of syslog distribution, vPE vs aggregate\n")
	fmt.Fprintf(w, "%-8s %6s %6s %6s %6s %6s\n", "vPE", "min", "p25", "p50", "p75", "max")
	var above08, below05 int
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6.2f %6.2f %6.2f %6.2f %6.2f\n", r.v, r.q[0], r.q[1], r.q[2], r.q[3], r.q[4])
		if r.q[2] > 0.8 {
			above08++
		}
		if r.q[2] < 0.5 {
			below05++
		}
	}
	fmt.Fprintf(w, "vPEs with median similarity >0.8: %d/%d (paper ~1/3)   <0.5: %d (paper: 5)\n",
		above08, len(rows), below05)
	return medians
}

// UpdateShift prints the month-over-month cosine series around the system
// update (§3.3) for updated vPEs and returns (pre-update min, pure
// pre-vs-post value) averaged over updated vPEs. The pure comparison uses
// the months just before and just after the rollout month, because the
// rollout month itself is a pre/post mixture that dilutes the drop.
func UpdateShift(w io.Writer, ds *pipeline.Dataset, tr *nfvsim.Trace, updateMonth int) (preMin, pureShift float64) {
	fmt.Fprintf(w, "# §3.3: month-over-month cosine similarity around the system update\n")
	preMin = 1
	var atSum, pureSum float64
	var atN, pureN int
	for _, v := range ds.VPEs {
		if _, updated := tr.UpdateTimes[v]; !updated {
			continue
		}
		for m := 1; m < ds.Months; m++ {
			sim := cluster.Cosine(ds.MonthHistogram(v, m-1), ds.MonthHistogram(v, m))
			if m <= updateMonth-1 && sim < preMin {
				preMin = sim
			}
			if m == updateMonth || m == updateMonth+1 {
				atSum += sim
				atN++
			}
		}
		if updateMonth >= 1 && updateMonth+1 < ds.Months {
			pureSum += cluster.Cosine(ds.MonthHistogram(v, updateMonth-1), ds.MonthHistogram(v, updateMonth+1))
			pureN++
		}
	}
	atUpdate := 0.0
	if atN > 0 {
		atUpdate = atSum / float64(atN)
	}
	if pureN > 0 {
		pureShift = pureSum / float64(pureN)
	}
	fmt.Fprintf(w, "pre-update month-over-month cosine (min across updated vPEs): %.2f (paper: always >0.8)\n", preMin)
	fmt.Fprintf(w, "around-update month-over-month cosine (mean, mixed months): %.2f\n", atUpdate)
	fmt.Fprintf(w, "pure pre-vs-post cosine (month %d vs %d, mean): %.2f (paper: drops <0.4)\n", updateMonth-1, updateMonth+1, pureShift)
	return preMin, pureShift
}

// Volume prints the vPE-vs-pPE log-volume comparison (§2) and returns the
// vPE volume reduction fraction.
func Volume(w io.Writer, tr *nfvsim.Trace) float64 {
	var vpe, ppe int
	for i := range tr.Messages {
		h := tr.Messages[i].Host
		if len(h) > 0 && h[0] == 'p' {
			ppe++
		} else {
			vpe++
		}
	}
	perVPE := float64(vpe) / float64(max(1, len(tr.VPENames)))
	perPPE := float64(ppe) / float64(max(1, len(tr.PPENames)))
	reduction := 0.0
	if perPPE > 0 {
		reduction = 1 - perVPE/perPPE
	}
	fmt.Fprintf(w, "# §2: vPE vs pPE syslog volume\n")
	fmt.Fprintf(w, "messages per vPE: %.0f   per pPE: %.0f   vPE reduction: %.0f%% (paper: 77%%)\n",
		perVPE, perPPE, 100*reduction)
	return reduction
}

// Summary runs the operating-point pipeline once and emits the
// evaluator's JSON summary (warnings, FAR, per-ticket lead times) — the
// same eval.Summary shape the scenario harness asserts against, so
// figures output and scenario reports can never disagree on a number.
func Summary(w io.Writer, ds *pipeline.Dataset, cfg pipeline.Config) (*eval.Summary, error) {
	res, err := pipeline.Run(ds, cfg)
	if err != nil {
		return nil, err
	}
	s := res.Outcome.Summary()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Fig5 runs the full LSTM system once and prints PRCs for 1 h / 1 day /
// 2 day predictive windows (Figure 5), returning best-F per window.
func Fig5(w io.Writer, ds *pipeline.Dataset, cfg pipeline.Config) (map[time.Duration]eval.PRPoint, error) {
	res, err := pipeline.Run(ds, cfg)
	if err != nil {
		return nil, err
	}
	windows := []time.Duration{time.Hour, 24 * time.Hour, 48 * time.Hour}
	curves := pipeline.PredictiveWindowSweep(ds, res, cfg, windows)
	fmt.Fprintf(w, "# Figure 5: PRC for different predictive windows\n")
	best := make(map[time.Duration]eval.PRPoint, len(windows))
	for _, win := range windows {
		curve := curves[win]
		b := eval.BestF(curve)
		best[win] = b
		fmt.Fprintf(w, "window %-5s best: P=%.2f R=%.2f F=%.2f fa/day=%.2f\n",
			win, b.Precision, b.Recall, b.F, b.FalseAlarmsPerDay)
		for _, p := range curve {
			fmt.Fprintf(w, "  thr=%8.3f  P=%.3f R=%.3f F=%.3f\n", p.Threshold, p.Precision, p.Recall, p.F)
		}
	}
	fmt.Fprintf(w, "paper: converges at 1 day; operating point P=0.80 R=0.81, 0.6 false alarms/day\n")
	return best, nil
}

// Fig6 runs the three methods with identical customization+adaptation and
// prints their PRCs (Figure 6), returning best-F per method.
func Fig6(w io.Writer, ds *pipeline.Dataset, cfg pipeline.Config) (map[pipeline.Method]eval.PRPoint, error) {
	fmt.Fprintf(w, "# Figure 6: anomaly detection performance of different approaches\n")
	out := make(map[pipeline.Method]eval.PRPoint, 3)
	for _, m := range []pipeline.Method{pipeline.MethodLSTM, pipeline.MethodAutoencoder, pipeline.MethodOCSVM} {
		c := cfg
		c.Method = m
		res, err := pipeline.Run(ds, c)
		if err != nil {
			return nil, fmt.Errorf("figures: %s run: %w", m, err)
		}
		out[m] = res.Best
		fmt.Fprintf(w, "%-12s best: P=%.2f R=%.2f F=%.2f AUC-PR=%.2f\n",
			m, res.Best.Precision, res.Best.Recall, res.Best.F, eval.AUCPR(res.Curve))
		for _, p := range res.Curve {
			fmt.Fprintf(w, "  thr=%8.3f  P=%.3f R=%.3f\n", p.Threshold, p.Precision, p.Recall)
		}
	}
	fmt.Fprintf(w, "paper: LSTM (P≈0.82) > Autoencoder (P≈0.77) >> one-class SVM\n")
	return out, nil
}

// Fig7 runs the three system variants and prints the monthly F-measure
// series (Figure 7), returning the per-variant series.
func Fig7(w io.Writer, ds *pipeline.Dataset, cfg pipeline.Config) (map[pipeline.Variant][]pipeline.MonthMetrics, error) {
	fmt.Fprintf(w, "# Figure 7: effectiveness of customization and adaptation (monthly F)\n")
	out := make(map[pipeline.Variant][]pipeline.MonthMetrics, 3)
	variants := []pipeline.Variant{pipeline.Baseline, pipeline.Customized, pipeline.CustomizedAdaptive}
	for _, v := range variants {
		c := cfg
		c.Variant = v
		res, err := pipeline.Run(ds, c)
		if err != nil {
			return nil, fmt.Errorf("figures: variant %v run: %w", v, err)
		}
		out[v] = res.Monthly
	}
	fmt.Fprintf(w, "%-8s", "month")
	for _, v := range variants {
		fmt.Fprintf(w, " %18s", v)
	}
	fmt.Fprintln(w)
	for i := range out[pipeline.Baseline] {
		fmt.Fprintf(w, "%-8s", out[pipeline.Baseline][i].Month.Format("2006-01"))
		for _, v := range variants {
			mm := out[v][i]
			marker := " "
			if mm.Adapted {
				marker = "*"
			}
			fmt.Fprintf(w, "            F=%.2f%s", mm.Best.F, marker)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(* = transfer-learning adaptation active; paper: cust+adapt recovers within ~1 week of the update)\n")
	return out, nil
}

// Fig8 runs the full system and prints the per-root-cause lead-time
// detection rates (Figure 8), returning the table.
func Fig8(w io.Writer, ds *pipeline.Dataset, cfg pipeline.Config) ([]eval.TypeDetection, error) {
	res, err := pipeline.Run(ds, cfg)
	if err != nil {
		return nil, err
	}
	tds := eval.DetectionByType(res.Outcome, ds.Tickets, ds.MonthStart(1), ds.MonthStart(ds.Months))
	fmt.Fprintf(w, "# Figure 8: anomaly detection for different types of tickets\n")
	fmt.Fprintf(w, "%-10s %8s", "type", "tickets")
	for _, name := range eval.LeadBucketNames {
		fmt.Fprintf(w, " %7s", name)
	}
	fmt.Fprintln(w)
	for _, td := range tds {
		label := td.Cause.String()
		if td.All {
			label = "ALL"
		}
		fmt.Fprintf(w, "%-10s %8d", label, td.Tickets)
		for _, r := range td.Rates {
			fmt.Fprintf(w, " %7.2f", r)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "paper @0min: Circuit 0.74 > Software 0.55 > Cable 0.40 > Hardware 0.28; ALL @+15min ~0.80\n")
	return tds, nil
}

// Reduction prints the §5.2 training-data reductions (clustering and
// transfer learning) and returns both row sets.
func Reduction(w io.Writer, ds *pipeline.Dataset, cfg pipeline.Config, evalMonth, updateMonth int) (clusterRows, adaptRows []pipeline.ExperimentRow, err error) {
	clusterRows, err = pipeline.TrainingDataSweep(ds, cfg, evalMonth)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "# §5.2: reducing training overhead — clustering (3 months → 1 month)\n")
	for _, r := range clusterRows {
		fmt.Fprintf(w, "%-22s trainEvents=%-7d F=%.2f P=%.2f R=%.2f\n",
			r.Label, r.TrainEvents, r.Best.F, r.Best.Precision, r.Best.Recall)
	}
	adaptRows, err = pipeline.AdaptRecoverySweep(ds, cfg, updateMonth)
	if err != nil {
		return clusterRows, nil, err
	}
	fmt.Fprintf(w, "# §5.2: reducing training overhead — transfer learning (3 months → 1 week)\n")
	for _, r := range adaptRows {
		fmt.Fprintf(w, "%-22s trainEvents=%-7d F=%.2f P=%.2f R=%.2f\n",
			r.Label, r.TrainEvents, r.Best.F, r.Best.Precision, r.Best.Recall)
	}
	return clusterRows, adaptRows, nil
}
