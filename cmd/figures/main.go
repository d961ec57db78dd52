// Command figures regenerates the paper's evaluation figures from the
// simulated deployment and prints the data series as text tables.
//
// Usage:
//
//	figures -fig all                 # every figure (slow: trains models)
//	figures -fig 1a|1b|2|3|update|volume     # measurement-study figures
//	figures -fig 5|6|7|8|reduction           # model figures
//	figures -fig summary                     # eval.Summary as JSON
//	figures -fig report                      # the System.Report of one walk-forward run
//	figures -fig stats               # all measurement-study figures
//	figures -seed 7 -months 10 -vpes 12      # override the model fleet
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nfvpredict"
	"nfvpredict/internal/figures"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/pipeline"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1a,1b,2,3,update,volume,5,6,7,8,reduction,summary,report,stats,all")
	seed := flag.Int64("seed", 1, "simulation seed")
	months := flag.Int("months", 0, "override model-fleet horizon months")
	vpes := flag.Int("vpes", 0, "override model-fleet size")
	flag.Parse()

	if err := run(*fig, *seed, *months, *vpes); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(fig string, seed int64, months, vpes int) error {
	out := os.Stdout
	wantStats := map[string]bool{"1a": true, "1b": true, "2": true, "3": true, "update": true, "volume": true, "stats": true, "all": true}
	wantModel := map[string]bool{"5": true, "6": true, "7": true, "8": true, "reduction": true, "summary": true, "report": true, "all": true}

	if wantStats[fig] {
		cfg := figures.StatsSimConfig()
		cfg.Seed = seed
		fmt.Fprintf(out, "== measurement-study fleet: %d vPEs + %d pPEs, %d months (seed %d) ==\n",
			cfg.NumVPEs, cfg.NumPPEs, cfg.Months, cfg.Seed)
		start := time.Now()
		d, err := nfvsim.New(cfg)
		if err != nil {
			return err
		}
		tr, err := d.Generate()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "generated %d messages, %d tickets in %v\n\n", len(tr.Messages), len(tr.Tickets), time.Since(start).Round(time.Millisecond))
		switch fig {
		case "1a":
			figures.Fig1a(out, tr, cfg.Start, cfg.Months)
		case "1b":
			figures.Fig1b(out, tr)
		case "2":
			figures.Fig2(out, tr, cfg.Start, cfg.Months)
		case "volume":
			figures.Volume(out, tr)
		case "3", "update", "stats", "all":
			ds := pipeline.BuildDataset(tr, cfg.Start, cfg.Months)
			if fig == "3" {
				figures.Fig3(out, ds)
			} else if fig == "update" {
				figures.UpdateShift(out, ds, tr, cfg.UpdateMonth)
			} else {
				figures.Fig1a(out, tr, cfg.Start, cfg.Months)
				fmt.Fprintln(out)
				figures.Fig1b(out, tr)
				fmt.Fprintln(out)
				figures.Fig2(out, tr, cfg.Start, cfg.Months)
				fmt.Fprintln(out)
				figures.Fig3(out, ds)
				fmt.Fprintln(out)
				figures.UpdateShift(out, ds, tr, cfg.UpdateMonth)
				fmt.Fprintln(out)
				figures.Volume(out, tr)
			}
		default:
			return fmt.Errorf("unknown figure %q", fig)
		}
		fmt.Fprintln(out)
	}

	if wantModel[fig] {
		simCfg := figures.ModelSimConfig()
		simCfg.Seed = seed
		if months > 0 {
			simCfg.Months = months
			simCfg.UpdateMonth = months * 2 / 3
		}
		if vpes > 0 {
			simCfg.NumVPEs = vpes
		}
		pcfg := figures.ModelPipelineConfig()
		fmt.Fprintf(out, "== model fleet: %d vPEs, %d months, update month %d (seed %d) ==\n",
			simCfg.NumVPEs, simCfg.Months, simCfg.UpdateMonth, simCfg.Seed)
		start := time.Now()
		d, err := nfvsim.New(simCfg)
		if err != nil {
			return err
		}
		tr, err := d.Generate()
		if err != nil {
			return err
		}
		ds := pipeline.BuildDataset(tr, simCfg.Start, simCfg.Months)
		fmt.Fprintf(out, "dataset ready: %d messages, %d tickets, %d templates (%v)\n\n",
			len(tr.Messages), len(tr.Tickets), ds.Tree.Len(), time.Since(start).Round(time.Millisecond))
		runFig := func(name string) error {
			t0 := time.Now()
			var err error
			switch name {
			case "5":
				_, err = figures.Fig5(out, ds, pcfg)
			case "6":
				_, err = figures.Fig6(out, ds, pcfg)
			case "7":
				_, err = figures.Fig7(out, ds, pcfg)
			case "8":
				_, err = figures.Fig8(out, ds, pcfg)
			case "summary":
				_, err = figures.Summary(out, ds, pcfg)
			case "report":
				var res *pipeline.Result
				if res, err = pipeline.Run(ds, pcfg); err == nil {
					fmt.Fprint(out, (&nfvpredict.System{Dataset: ds, Config: pcfg, Result: res}).Report())
				}
			case "reduction":
				rCfg := figures.ReductionSimConfig()
				rCfg.Seed = simCfg.Seed
				rd, rerr := nfvsim.New(rCfg)
				if rerr != nil {
					return rerr
				}
				rtr, rerr := rd.Generate()
				if rerr != nil {
					return rerr
				}
				rds := pipeline.BuildDataset(rtr, rCfg.Start, rCfg.Months)
				_, _, err = figures.Reduction(out, rds, pcfg, rCfg.UpdateMonth-1, rCfg.UpdateMonth)
			}
			fmt.Fprintf(out, "(%s took %v)\n\n", name, time.Since(t0).Round(time.Millisecond))
			return err
		}
		if fig == "all" {
			for _, name := range []string{"5", "6", "7", "8", "reduction"} {
				if err := runFig(name); err != nil {
					return err
				}
			}
		} else if err := runFig(fig); err != nil {
			return err
		}
	}

	if !wantStats[fig] && !wantModel[fig] {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
