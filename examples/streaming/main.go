// Streaming: the runtime deployment mode of the paper — a live monitor
// fed by a syslog ingestion server. This example trains a model bundle on
// one simulated month (pipeline.TrainModels, the trainer under cmd/nfvtrain),
// serves it with the stack nfvmonitor ships (serve.New takes the bundle)
// behind a UDP syslog listener on an ephemeral port, replays a later
// (update-free) month of the trace over real UDP packets, and prints the
// warning signatures the monitor raises.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"nfvpredict"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/serve"
)

func main() {
	// 1. Simulate a small fleet; month 0 is the training archive, month 1
	//    is the "live" traffic we will replay over the network.
	simCfg := nfvpredict.SmallSimConfig()
	simCfg.NumVPEs = 4
	simCfg.Months = 2
	simCfg.UpdateMonth = -1
	trace, err := nfvpredict.Simulate(simCfg)
	if err != nil {
		log.Fatal(err)
	}
	ds := pipeline.BuildDataset(trace, simCfg.Start, simCfg.Months)

	// 2. Train one fleet-wide detector on clean month-0 streams (§4.2:
	//    syslog near tickets is excluded from "normal" training data). The
	//    result is a bundle — tree, detector, host assignment — which is
	//    what a monitor serves; cmd/nfvtrain writes the same object to disk.
	cfg := pipeline.DefaultConfig()
	cfg.Variant = pipeline.Baseline
	cfg.LSTM.Hidden = []int{24}
	b, err := pipeline.TrainModels(ds, cfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	b.Threshold = 6
	fmt.Printf("detector trained on %d vPE streams (%d templates)\n", len(b.Assign), ds.Tree.Len())

	// 3. Start the serving stack behind a UDP syslog listener: datagrams
	//    are routed to their host's shard queue and scored by its worker.
	var warned atomic.Int64
	so := serve.DefaultOptions()
	so.Bundle = b
	so.UDPAddr, so.Year = "127.0.0.1:0", simCfg.Start.Year()
	so.OnWarning = func(w nfvpredict.Warning) {
		warned.Add(1)
		fmt.Printf("WARNING %s: %d anomalies clustering at %s\n", w.VPE, w.Size, w.Time.Format(time.RFC3339))
	}
	st, err := serve.New(so)
	if err != nil {
		log.Fatal(err)
	}
	st.Start(context.Background())
	defer st.Close()
	mon, srv := st.Monitor, st.Server
	fmt.Println("syslog server listening on", srv.UDPAddr())

	// 4. Replay month 1 of the trace as RFC 3164 datagrams.
	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	sent := 0
	for i := range trace.Messages {
		m := &trace.Messages[i]
		if m.Time.Before(ds.MonthStart(1)) {
			continue
		}
		if _, err := fmt.Fprint(conn, m.Format3164()); err != nil {
			log.Fatal(err)
		}
		sent++
		if sent%200 == 0 {
			time.Sleep(5 * time.Millisecond) // pace the burst: UDP has no backpressure
		}
	}

	// 5. Wait until the listener has counted every datagram (UDP may lose
	//    some, so for at most 10 s), then until the monitor has judged
	//    every message it accepted, and report.
	deadline := time.Now().Add(10 * time.Second)
	for st := srv.Stats(); st.Received+st.Malformed+st.ShardDropped < uint64(sent) && time.Now().Before(deadline); st = srv.Stats() {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mon.Settle(ctx); err != nil {
		log.Fatal(err)
	}
	msgs, anoms := mon.Counters()
	sst := srv.Stats()
	fmt.Printf("\nreplayed %d messages over UDP: ingested=%d dropped=%d malformed=%d\n",
		sent, msgs, sst.ShardDropped, sst.Malformed)
	fmt.Printf("anomalies flagged: %d, warning signatures: %d\n", anoms, warned.Load())
	fmt.Printf("tickets in the replayed month: %d\n",
		len(nfvpredict.NewTicketStore(trace.Tickets).Between(ds.MonthStart(1), ds.MonthStart(2))))
}
