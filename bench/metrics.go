package main

import (
	"math"
	"os"
	"runtime"
	"strings"

	"nfvpredict/internal/obs"
)

// metricDef is one catalogue entry; BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesCatalogue holds that).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what an operator of the monitor sees. Every workload reports
// every one, and none can read 0.
var endToEnd = []metricDef{
	{"throughput_ceiling_msgs_s", "msgs/s", "higher", 0.25},
	{"verdict_rtt_floor_us", "us", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger: one module per prefix. A metric a workload does
// not exercise reads 0 there (lifecycle.* off update_adapt, monitor.shed
// off shed_ingest).
var perLayer = []metricDef{
	{Name: "logfmt.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest_server.null_sink_msgs_s", Unit: "msgs/s", Better: "higher"},
	{Name: "sigtree.prepare_ns", Unit: "ns", Better: "lower"},
	{Name: "sigtree.learn_ns", Unit: "ns", Better: "lower"},
	{Name: "sigtree.templates", Unit: "count", Better: "lower"},
	{Name: "sigtree.new_templates", Unit: "count", Better: "lower"},
	{Name: "sigtree.syms", Unit: "count", Better: "lower"},
	{Name: "nn.step_ns", Unit: "ns", Better: "lower"},
	{Name: "detect.push_ns", Unit: "ns", Better: "lower"},
	{Name: "detect.pushbatch_ns_per_lane", Unit: "ns", Better: "lower"},
	{Name: "detect.lanes_per_batch", Unit: "count", Better: "higher"},
	{Name: "monitor.handle_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.enqueue_msgs_s", Unit: "msgs/s", Better: "higher"},
	{Name: "monitor.verdict_rest_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.anomalies", Unit: "count", Better: "lower"},
	{Name: "monitor.warnings", Unit: "count", Better: "lower"},
	{Name: "monitor.shed", Unit: "count", Better: "lower"},
	{Name: "monitor.evicted_hosts", Unit: "count", Better: "lower"},
	{Name: "monitor.state_bytes_per_host", Unit: "count", Better: "lower"},
	{Name: "budget.sum_ns", Unit: "ns", Better: "lower"},
	{Name: "budget.coverage", Unit: "ratio", Better: "higher"},
	{Name: "wire.throughput_msgs_s", Unit: "msgs/s", Better: "higher"},
	{Name: "wire.cpu_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_p999_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_samples", Unit: "count", Better: "higher"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "lifecycle.cycle_s", Unit: "s", Better: "lower"},
	{Name: "lifecycle.promotions", Unit: "count", Better: "higher"},
	{Name: "lifecycle.spool_windows", Unit: "count", Better: "higher"},
	{Name: "lifecycle.serve_msgs_s", Unit: "msgs/s", Better: "higher"},
	{Name: "checkpoint.save_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.restore_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "count", Better: "lower"},
	{Name: "setup.sim_s", Unit: "s", Better: "lower"},
	{Name: "setup.dataset_s", Unit: "s", Better: "lower"},
	{Name: "setup.cluster_s", Unit: "s", Better: "lower"},
	{Name: "setup.train_s", Unit: "s", Better: "lower"},
	{Name: "setup.train_tokens_s", Unit: "1/s", Better: "higher"},
	{Name: "setup.encode_s", Unit: "s", Better: "lower"},
	{Name: "setup.cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "eval.warn_f1", Unit: "ratio", Better: "higher"},
	{Name: "eval.far_per_day", Unit: "1/day", Better: "lower"},
	{Name: "env.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "env.nproc", Unit: "count", Better: "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a catalogue, so a name the catalogue
// lacks, or one left unset, is caught before anything is printed.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (ms *metricSet) set(name string, v float64) {
	for _, d := range ms.defs {
		if d.Name == name {
			ms.vals[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// out returns every catalogue metric with its unit. A metric never set
// reads 0; a non-finite one is reported as an error by name.
func (ms *metricSet) out() (map[string]metric, []string) {
	m := make(map[string]metric, len(ms.defs))
	var bad []string
	for _, d := range ms.defs {
		v := ms.vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, d.Name)
			v = 0
		}
		m[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return m, bad
}

// envInfo is recorded with every report so numbers from different boxes
// are not compared by accident.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envInfo {
	e := envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   "unknown",
	}
	if rev := obs.GetBuildInfo().VCSRevision; rev != "" {
		e.Commit = rev
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					e.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return e
}
