// Command nfvtrain trains a deployable model bundle — signature tree,
// per-cluster LSTM detectors, cluster assignment, and a recommended
// operating threshold — from a recorded trace (JSONL syslog + CSV tickets,
// as written by `nfvscen dump`). cmd/nfvmonitor serves the bundle against
// live syslog.
//
// Training is observable instead of silent: every per-cluster detector
// reports per-epoch loss, tokens/sec, and over-sampling-round counters
// into a metrics registry (prefixed cluster<i>_), and with -admin the
// registry is served live over HTTP (/metrics, /healthz, /debug/pprof) so
// a long training run can be watched and profiled from outside.
//
// Usage:
//
//	nfvtrain -trace trace.jsonl -tickets tickets.csv -out model.bundle \
//	         -start 2016-10-01 -months 2 -admin :9091
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/ticket"
)

func main() {
	tracePath := flag.String("trace", "trace.jsonl", "syslog trace (JSONL)")
	ticketsPath := flag.String("tickets", "tickets.csv", "tickets (CSV)")
	out := flag.String("out", "model.bundle", "output bundle path")
	startStr := flag.String("start", "", "trace start (YYYY-MM-DD; default: first message day)")
	months := flag.Int("months", 1, "months of data to train on")
	kMax := flag.Int("kmax", 8, "max clusters for modularity selection")
	admin := flag.String("admin", "", "admin HTTP listen address serving /metrics, /healthz, /debug/pprof during training (empty disables)")
	verbose := flag.Bool("v", false, "verbose (debug-level) logging")
	flag.Parse()

	if err := run(*tracePath, *ticketsPath, *out, *startStr, *months, *kMax, *admin, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "nfvtrain:", err)
		os.Exit(1)
	}
}

func run(tracePath, ticketsPath, out, startStr string, months, kMax int, admin string, verbose bool) error {
	level := obs.LevelInfo
	if verbose {
		level = obs.LevelDebug
	}
	log := obs.NewLogger(os.Stdout, level)
	reg := obs.NewRegistry()

	if admin != "" {
		ln, err := net.Listen("tcp", admin)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		srv := &http.Server{Handler: obs.NewAdminMux(obs.AdminConfig{Registry: reg})}
		go srv.Serve(ln)
		defer srv.Close()
		log.Info("admin surface up", "addr", ln.Addr(), "endpoints", "/metrics /healthz /debug/pprof")
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer tf.Close()
	msgs, err := logfmt.NewReader(tf).ReadAll()
	if err != nil {
		return err
	}
	if len(msgs) == 0 {
		return fmt.Errorf("no messages in %s", tracePath)
	}
	kf, err := os.Open(ticketsPath)
	if err != nil {
		return err
	}
	defer kf.Close()
	tickets, err := ticket.ReadCSV(kf)
	if err != nil {
		return err
	}

	start := msgs[0].Time.Truncate(24 * time.Hour)
	if startStr != "" {
		start, err = time.Parse("2006-01-02", startStr)
		if err != nil {
			return fmt.Errorf("parsing -start: %w", err)
		}
	}
	hosts := map[string]bool{}
	for i := range msgs {
		hosts[msgs[i].Host] = true
	}
	var vpes []string
	for h := range hosts {
		vpes = append(vpes, h)
	}
	log.Info("loaded trace", "messages", len(msgs), "hosts", len(vpes), "tickets", len(tickets))

	ds := pipeline.BuildDatasetFromMessages(msgs, tickets, vpes, start, months)
	cfg := pipeline.DefaultConfig()
	cfg.KMax = kMax
	cfg.Metrics = reg
	b, err := pipeline.TrainBundle(ds, cfg, months)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	for ci := range b.Detectors {
		log.Info("trained cluster", "cluster", ci,
			"epochs", snap.Counters[fmt.Sprintf("cluster%d_lstm_epochs_total", ci)],
			"loss", snap.Gauges[fmt.Sprintf("cluster%d_lstm_epoch_loss", ci)],
			"tokens_per_sec", snap.Gauges[fmt.Sprintf("cluster%d_lstm_tokens_per_sec", ci)],
			"oversample_rounds", snap.Counters[fmt.Sprintf("cluster%d_lstm_oversample_rounds_total", ci)])
	}
	log.Info("trained bundle", "vpes", len(ds.VPEs), "k", len(b.Detectors), "threshold", b.Threshold)

	// Atomic save: a crash mid-write must never leave a truncated bundle
	// where a monitor's hot-reload would pick it up.
	if err := b.SaveFile(out); err != nil {
		return err
	}
	log.Info("wrote bundle", "path", out)
	return nil
}
