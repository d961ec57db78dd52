// Command nfvscen runs declarative full-stack failure scenarios: YAML
// documents describing a simulated vPE fleet, a timed event timeline
// (fault episodes, anomaly bursts, chaos fault-point arming, adaptation
// triggers, checkpoint parity probes, degradation excursions), and
// assertions on the run's outcome. Each run drives the real serving
// stack: nfvsim trace → syslog over TCP → ingest.Server → sharded
// Monitor (→ lifecycle) → eval against the ticket store.
//
// The same fleet files feed the offline tools: dump writes a scenario's
// trace and tickets to disk (nfvtrain's input), and replay sends a trace
// to a live syslog endpoint such as nfvmonitor.
//
// Usage:
//
//	nfvscen validate scenarios/              # lint every scenario file
//	nfvscen run scenarios/                   # run all, human-readable
//	nfvscen run -json scenarios/outage.yaml  # machine-readable report
//	nfvscen dump scenarios/fleet/paper.yaml  # the paper-scale trace.jsonl + tickets.csv
//	nfvscen replay -rate 2000 trace.jsonl    # replay against 127.0.0.1:5514
//
// Exit status: 0 all passed, 1 validation error or failed assertion,
// 2 usage error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/scenario"
	"nfvpredict/internal/ticket"
)

// command is one subcommand. setup registers its flags on fs and returns
// its body, which runs on the positional arguments left after parsing;
// usage calls setup too, so the help text lists every flag.
type command struct {
	name, args, doc string
	setup           func(fs *flag.FlagSet) func(args []string) error
}

var commands = []command{
	{"validate", "<path>...", "lint scenario files (exit 1 on any error)", validateCmd},
	{"run", "[flags] <path>...", "run scenarios end-to-end", runCmd},
	{"dump", "[flags] <scenario.yaml>", "write a scenario's trace (JSONL) and tickets (CSV)", dumpCmd},
	{"replay", "[flags] <trace.jsonl | scenario.yaml>", "send a trace to a syslog endpoint (a .yaml/.yml source is generated)", replayCmd},
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch name := os.Args[1]; name {
	case "-h", "--help", "help":
		usage(os.Stdout)
	default:
		for _, c := range commands {
			if c.name != name {
				continue
			}
			fs := flag.NewFlagSet(name, flag.ExitOnError)
			body := c.setup(fs)
			fs.Parse(os.Args[2:])
			if err := body(fs.Args()); err != nil {
				fmt.Fprintln(os.Stderr, "nfvscen:", err)
				os.Exit(1)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "nfvscen: unknown command %q\n\n", name)
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage:")
	for _, c := range commands {
		fmt.Fprintf(w, "\nnfvscen %s %s\n  %s\n", c.name, c.args, c.doc)
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(w)
		c.setup(fs)
		fs.PrintDefaults()
	}
	fmt.Fprint(w, "\nA path may be a file or a directory (expanded to *.yaml / *.yml).\n")
}

// expand resolves files and directories into a sorted scenario file list.
func expand(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if isScenario(e.Name()) {
				files = append(files, filepath.Join(p, e.Name()))
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario files found")
	}
	sort.Strings(files)
	return files, nil
}

func isScenario(path string) bool {
	ext := filepath.Ext(path)
	return ext == ".yaml" || ext == ".yml"
}

func validateCmd(fs *flag.FlagSet) func([]string) error {
	return func(paths []string) error {
		if len(paths) == 0 {
			return fmt.Errorf("validate: no paths given")
		}
		files, err := expand(paths)
		if err != nil {
			return err
		}
		bad := 0
		for _, f := range files {
			if _, err := scenario.LoadFile(f); err != nil {
				bad++
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Printf("%s: ok\n", f)
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d scenario file(s) invalid", bad, len(files))
		}
		return nil
	}
}

func runCmd(fs *flag.FlagSet) func([]string) error {
	jsonOut := fs.Bool("json", false, "emit the report array as JSON on stdout")
	verbose := fs.Bool("v", false, "log phases and timeline events")
	return func(paths []string) error {
		if len(paths) == 0 {
			return fmt.Errorf("run: no paths given")
		}
		files, err := expand(paths)
		if err != nil {
			return err
		}
		var opts scenario.Options
		if *verbose {
			opts.Log = log.New(os.Stderr, "", log.LstdFlags)
		}
		var reports []*scenario.Report
		failed := 0
		for _, f := range files {
			spec, err := scenario.LoadFile(f)
			if err != nil {
				return err
			}
			rep, err := scenario.Run(spec, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			reports = append(reports, rep)
			if !rep.Passed {
				failed++
			}
			if !*jsonOut {
				printReport(rep)
			}
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reports); err != nil {
				return err
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d scenario(s) failed", failed, len(reports))
		}
		if !*jsonOut {
			fmt.Printf("all %d scenario(s) passed\n", len(reports))
		}
		return nil
	}
}

func printReport(rep *scenario.Report) {
	var phases []string
	var total int64
	for _, p := range rep.Phases {
		phases = append(phases, fmt.Sprintf("%s %dms", p.Name, p.Millis))
		total += p.Millis
	}
	status := "PASS"
	if !rep.Passed {
		status = "FAIL"
	}
	fmt.Printf("%s: %s (%dms: %s)\n", rep.Scenario, status, total, strings.Join(phases, ", "))
	fmt.Printf("  sim: %d messages, %d tickets, %d injected events\n",
		rep.Sim.Messages, rep.Sim.Tickets, rep.Sim.Injections)
	fmt.Printf("  serve: %d received, %d warnings, %d anomalies, shards=%d\n",
		rep.Serve.Received, rep.Serve.Warnings, rep.Serve.Anomalies, rep.Serve.Shards)
	if rep.Eval != nil {
		fmt.Printf("  eval: %d/%d tickets detected, %d false alarms (%.2f/day), %d early\n",
			rep.Eval.DetectedTickets, rep.Eval.Tickets, rep.Eval.FalseAlarms,
			rep.Eval.FalseAlarmsPerDay, rep.Eval.EarlyTickets)
	}
	if rep.Lifecycle != nil {
		fmt.Printf("  lifecycle: %d cycles, %d promotions, breaker %s\n",
			rep.Lifecycle.Cycles, rep.Lifecycle.Promotions, rep.Lifecycle.Breaker)
	}
	for _, ev := range rep.Events {
		fmt.Printf("  event %-10s at %-8s %s\n", ev.Kind, ev.At, ev.Detail)
	}
	for _, a := range rep.Assertions {
		mark := "ok"
		if !a.OK {
			mark = "FAIL"
		}
		fmt.Printf("  assert %-28s %-4s %s\n", a.Name, mark, a.Detail)
	}
}

// dumpCmd writes the scenario's generated trace (logfmt JSONL) and tickets
// (CSV): the files nfvtrain trains on and replay sends.
func dumpCmd(fs *flag.FlagSet) func([]string) error {
	tracePath := fs.String("trace", "trace.jsonl", "syslog output file (JSONL)")
	ticketsPath := fs.String("tickets", "tickets.csv", "tickets output file (CSV)")
	return func(args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("dump: want one scenario file, got %d", len(args))
		}
		spec, err := scenario.LoadFile(args[0])
		if err != nil {
			return err
		}
		start := time.Now()
		tr, err := spec.GenerateTrace()
		if err != nil {
			return err
		}
		fmt.Printf("generated %d messages, %d tickets in %v\n",
			len(tr.Messages), len(tr.Tickets), time.Since(start).Round(time.Millisecond))
		if err := writeFile(*tracePath, func(w io.Writer) error { return scenario.WriteTrace(w, tr) }); err != nil {
			return err
		}
		fmt.Printf("wrote syslog to %s\n", *tracePath)
		if err := writeFile(*ticketsPath, func(w io.Writer) error { return ticket.WriteCSV(w, tr.Tickets) }); err != nil {
			return err
		}
		fmt.Printf("wrote tickets to %s\n", *ticketsPath)
		return nil
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayCmd sends a trace to a live syslog endpoint over UDP or TCP (RFC
// 6587 octet counting). -rate paces by throughput; without it, UDP pauses
// briefly every 200 datagrams, since it has no backpressure. -loop replays
// the trace repeatedly, and each pass shifts the timestamps forward by the
// trace's span, so a monitor under soak sees one continuous, monotonic
// stream (lifecycle drift/adaptation soaks run off exactly this).
func replayCmd(fs *flag.FlagSet) func([]string) error {
	addr := fs.String("addr", "127.0.0.1:5514", "destination address")
	proto := fs.String("proto", "udp", "udp or tcp")
	rate := fs.Float64("rate", 0, "fixed pacing in messages per second; 0 = as fast as possible")
	limit := fs.Int("limit", 0, "max messages to send per pass (0 = all)")
	loop := fs.Int("loop", 1, "replay passes; timestamps shift forward each pass (0 = loop forever)")
	return func(args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("replay: want one trace or scenario file, got %d", len(args))
		}
		return replay(args[0], *addr, *proto, *rate, *limit, *loop)
	}
}

// loadMessages reads a JSONL trace, or generates the trace of a scenario
// file (fleet + injected timeline, same seed → same trace).
func loadMessages(src string) ([]logfmt.Message, error) {
	if isScenario(src) {
		spec, err := scenario.LoadFile(src)
		if err != nil {
			return nil, err
		}
		tr, err := spec.GenerateTrace()
		if err != nil {
			return nil, err
		}
		fmt.Printf("generated %d messages from scenario %q (seed %d)\n",
			len(tr.Messages), spec.Name, spec.Seed)
		return tr.Messages, nil
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return logfmt.NewReader(f).ReadAll()
}

func replay(src, addr, proto string, rate float64, limit, loop int) error {
	msgs, err := loadMessages(src)
	if err != nil {
		return err
	}
	if limit > 0 && len(msgs) > limit {
		msgs = msgs[:limit]
	}
	if len(msgs) == 0 {
		return fmt.Errorf("no messages in %s", src)
	}

	conn, err := net.Dial(proto, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)

	// Per-pass timestamp shift: the trace span plus the mean inter-message
	// gap, so the seam between passes looks like one more ordinary gap
	// rather than a discontinuity (or a repeat of the same instant).
	traceStart := msgs[0].Time
	span := msgs[len(msgs)-1].Time.Sub(traceStart)
	if len(msgs) > 1 {
		span += span / time.Duration(len(msgs)-1)
	} else {
		span += time.Second
	}

	start := time.Now()
	sent := 0
	for pass := 0; loop <= 0 || pass < loop; pass++ {
		shift := time.Duration(pass) * span
		for i := range msgs {
			m := msgs[i]
			m.Time = m.Time.Add(shift)
			if rate > 0 {
				due := start.Add(time.Duration(float64(sent) * float64(time.Second) / rate))
				if d := time.Until(due); d > 0 {
					w.Flush()
					time.Sleep(d)
				}
			} else if sent%200 == 0 && proto == "udp" {
				// UDP has no backpressure; pace full-speed bursts.
				w.Flush()
				time.Sleep(2 * time.Millisecond)
			}
			line := m.Format3164()
			if proto == "tcp" {
				// RFC 6587 octet counting.
				if _, err := fmt.Fprintf(w, "%d %s", len(line), line); err != nil {
					return err
				}
			} else {
				w.Flush() // one datagram per message
				if _, err := conn.Write([]byte(line)); err != nil {
					return err
				}
			}
			sent++
		}
		if loop != 1 {
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Printf("pass %d done: %d messages sent\n", pass+1, sent)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("replayed %d messages (%d passes, %s trace time per pass) in %v\n",
		sent, sent/len(msgs), msgs[len(msgs)-1].Time.Sub(traceStart).Round(time.Second),
		time.Since(start).Round(time.Millisecond))
	return nil
}
