// Command bench is the wire-to-warning benchmark behind BENCHMARK.json: it
// trains as cmd/nfvtrain does, wires the server and monitor as
// cmd/nfvmonitor does by default, and drives RFC 6587 frames from one
// goroutine over one loopback TCP connection. See README.md.
//
// Usage (from this directory; run.sh wraps the build for the driver):
//
//	go run . [-workload W|all] [-seed N] [-seconds S] [-trace 0|1] [-out F] [-quick]
//	go run . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// report is what -out writes and -compare reads.
type report struct {
	Env     envInfo  `json:"env"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Quick   bool     `json:"quick,omitempty"`
	Results []result `json:"results"`
}

// runWorkload runs one workload's untraced phases, traced phases, or both
// (trace < 0), and folds the oracle's findings into Correct.
func runWorkload(w *workload, sc scale, seed int64, seconds float64, trace int, quick bool, outDir string) (*runner, error) {
	r := &runner{w: w, sc: sc, seed: seed, seconds: seconds, quick: quick, outDir: outDir}
	r.res.Workload, r.res.Seed = w.name, seed
	if trace != 1 {
		if err := r.endToEnd(); err != nil {
			return r, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if trace != 0 {
		if err := r.layers(); err != nil {
			return r, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	r.res.Correct = len(r.res.Errors) == 0 && r.res.FramesFailed == 0
	return r, nil
}

func printMetrics(title string, defs []metricDef, m map[string]metric) {
	if m == nil {
		return
	}
	fmt.Printf("  %s\n", title)
	for _, d := range defs {
		fmt.Printf("    %-34s %16.4f %s\n", d.Name, m[d.Name].Value, m[d.Name].Unit)
	}
}

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "nfvsim seed; the only thing the seed reaches")
	seconds := flag.Float64("seconds", 10, "measuring time per run, split between the throughput and round-trip phases")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics and the traced replay only; unset: both")
	out := flag.String("out", "", "write the full report as JSON to this file")
	quick := flag.Bool("quick", false, "smoke-test scale: 6 vPEs, hidden 8, one pass")
	compare := flag.Bool("compare", false, "compare two -out reports: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			os.Exit(2)
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var selected []*workload
	if *workloadName == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}

	rep := report{Env: readEnv(), Seed: *seed, Seconds: *seconds, Quick: *quick}
	fmt.Printf("env: GOMAXPROCS=%d nproc=%d %s commit=%s cpu=%q\n",
		rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.GoVersion, rep.Env.Commit, rep.Env.CPUModel)
	failed := false
	for _, w := range selected {
		t0 := time.Now()
		r, err := runWorkload(w, sc, *seed, *seconds, *trace, *quick, "out")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res := r.res
		rep.Results = append(rep.Results, res)
		fmt.Printf("%s seed=%d frames_sent=%d frames_failed=%d correct=%v wall=%.1fs\n",
			w.name, *seed, res.FramesSent, res.FramesFailed, res.Correct, time.Since(t0).Seconds())
		printMetrics("end to end", endToEnd, res.EndToEnd)
		printMetrics("per layer", perLayer, res.PerLayer)
		if res.SpanFile != "" {
			fmt.Printf("  spans written to %s\n", res.SpanFile)
		}
		for _, msg := range res.Warnings {
			fmt.Printf("  warning: %s\n", msg)
		}
		for _, msg := range res.Errors {
			fmt.Printf("  ERROR: %s\n", msg)
		}
		failed = failed || !res.Correct
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	// The driver's contract: with one workload and -trace given, the last
	// line of standard output is the run as one JSON object.
	if len(selected) == 1 && *trace >= 0 {
		res := rep.Results[0]
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct":   res.Correct,
			"attempted": res.FramesSent,
			"failed":    res.FramesFailed,
			"metrics":   metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

// compareReports applies each end-to-end metric's bound and direction to
// every workload both reports hold and prints one row per pair. It returns
// false on a breach or when B failed a larger share of its frames.
func compareReports(w *os.File, pathA, pathB string) (bool, error) {
	load := func(path string) (map[string]result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m := make(map[string]result, len(rep.Results))
		for _, r := range rep.Results {
			m[r.Workload] = r
		}
		return m, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("the reports share no workload")
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "worse%", "bound%", "verdict")
	for _, name := range names {
		ra, rb := a[name], b[name]
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if !(worse <= d.Bound) { // also catches NaN from a missing metric
				verdict, ok = "BREACH", false
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %8.2f %7.1f  %s\n", name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		fa := float64(ra.FramesFailed) / float64(ra.FramesSent)
		fb := float64(rb.FramesFailed) / float64(rb.FramesSent)
		verdict := "ok"
		if !(fb <= fa) || !rb.Correct {
			verdict, ok = "BREACH", false
		}
		fmt.Fprintf(w, "%-14s %-20s %14.6f %14.6f %8s %7s  %s\n", name, "frames_failed/sent", fa, fb, "", "", verdict)
	}
	return ok, nil
}
