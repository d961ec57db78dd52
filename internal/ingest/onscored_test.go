package ingest

import (
	"sync"
	"testing"
	"time"

	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
)

// scoredRec is one OnScored callback, recorded for assertions.
type scoredRec struct {
	host      string
	cluster   int
	ev        features.Event
	score     float64
	anomalous bool
	burst     bool
}

type scoredLog struct {
	mu   sync.Mutex
	recs []scoredRec
}

func (l *scoredLog) hook(host string, cluster int, ev features.Event, score float64, anomalous, burst bool) {
	l.mu.Lock()
	l.recs = append(l.recs, scoredRec{host, cluster, ev, score, anomalous, burst})
	l.mu.Unlock()
}

func (l *scoredLog) snapshot() []scoredRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]scoredRec(nil), l.recs...)
}

// TestOnScoredHook drives the synchronous path: every scored message
// reaches the hook with its cluster, normal messages arrive with
// anomalous=false, an isolated anomaly with burst=false, and a
// warning-sized burst flips burst=true from the event that completes it.
func TestOnScoredHook(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	var log scoredLog
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.ClusterOf = func(host string) int {
		if host == "vpe07" {
			return 1
		}
		return -1
	}
	mcfg.OnScored = log.hook
	mon := NewMonitor(mcfg, tree, det, nil)

	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
		"fpc 1 cpu utilization 30 percent memory 45 percent",
		"ntp clock synchronized to 10.9.9.9 stratum 2 offset 80 us",
	}
	mk := func(host, text string, at time.Time) logfmt.Message {
		return logfmt.Message{Time: at, Host: host, Tag: "rpd", Text: text}
	}
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		mon.HandleMessage(mk("vpe07", normal[i%len(normal)], at))
		at = at.Add(30 * time.Second)
	}
	recs := log.snapshot()
	if len(recs) != 40 {
		t.Fatalf("hook fired %d times for 40 messages", len(recs))
	}
	for i, r := range recs {
		if r.host != "vpe07" || r.cluster != 1 {
			t.Fatalf("rec %d identity: %+v", i, r)
		}
		if i > 0 && r.anomalous {
			t.Fatalf("normal warm traffic flagged anomalous: %+v", r)
		}
		if r.ev.Template < 0 || r.ev.Time.IsZero() {
			t.Fatalf("rec %d event not populated: %+v", i, r)
		}
	}

	// Isolated anomaly: anomalous=true, burst=false.
	mon.HandleMessage(mk("vpe07", "totally unexpected kernel catastrophe message here", at))
	at = at.Add(10 * time.Minute)
	recs = log.snapshot()
	last := recs[len(recs)-1]
	if !last.anomalous || last.burst {
		t.Fatalf("isolated anomaly: %+v", last)
	}

	// Burst: the ≥2-within-a-minute warning rule flips burst=true.
	for i := 0; i < 3; i++ {
		mon.HandleMessage(mk("vpe07", "invalid response from peer chassis-control session 42 retries 3", at))
		at = at.Add(15 * time.Second)
	}
	recs = log.snapshot()
	tail := recs[len(recs)-3:]
	if tail[0].burst {
		t.Fatalf("first anomaly of a cluster must not be a burst yet: %+v", tail[0])
	}
	if !tail[1].burst || !tail[2].burst {
		t.Fatalf("burst flag missing once the cluster reached warning size: %+v", tail)
	}

	// Unmapped hosts clamp to cluster 0.
	mon.HandleMessage(mk("vpe99", normal[0], at))
	recs = log.snapshot()
	if last = recs[len(recs)-1]; last.host != "vpe99" || last.cluster != 0 {
		t.Fatalf("unmapped host cluster: %+v", last)
	}
}

// TestOnScoredHookBatchedPath: the async Enqueue/Start route (full drains)
// reaches the same hook for every message.
func TestOnScoredHookBatchedPath(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	var log scoredLog
	mcfg := DefaultMonitorConfig()
	mcfg.Threshold = 4
	mcfg.Shards = 4
	mcfg.OnScored = log.hook
	mon := NewMonitor(mcfg, tree, det, nil)

	normal := []string{
		"bgp keepalive exchanged with peer 10.0.0.2 hold 90",
		"interface statistics poll completed for ge-0/0/2 in 9 ms",
	}
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	const hosts, per = 8, 25
	for i := 0; i < hosts*per; i++ {
		host := "vpe" + string(rune('a'+i%hosts))
		if !mon.Enqueue(logfmt.Message{Time: at, Host: host, Tag: "rpd", Text: normal[i%len(normal)]}) {
			t.Fatal("enqueue refused")
		}
		at = at.Add(time.Second)
	}
	mon.Start()
	mon.Stop()
	if got := len(log.snapshot()); got != hosts*per {
		t.Fatalf("hook fired %d times for %d queued messages", got, hosts*per)
	}
}
