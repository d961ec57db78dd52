package lifecycle

import (
	"testing"
	"time"

	"nfvpredict/internal/logfmt"
)

// TestLifecycleSoakSmoke is the CI soak: the full serving stack runs
// asynchronously — sharded monitor workers draining an enqueue stream,
// the lifecycle timer firing scheduled adaptation cycles — while traffic
// keeps flowing, and at least one candidate must train, pass the gate,
// and promote without a race (run under -race by make ci) or a deadlock.
func TestLifecycleSoakSmoke(t *testing.T) {
	sb, tree := testBundle(t)
	lcfg := testLifecycleConfig()
	lcfg.Interval = 20 * time.Millisecond
	lcfg.AdaptEveryCycles = 1 // every timer tick attempts an adaptation
	lm, mon := buildStack(t, lcfg, sb, tree)

	mon.Start()
	lm.Start()

	// Feed through the async enqueue path while cycles fire underneath.
	at := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for lm.Generation() == 0 && time.Now().Before(deadline) {
		for j := 0; j < 50; j++ {
			mon.Enqueue(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd", Text: normalTexts[i%len(normalTexts)]})
			at = at.Add(30 * time.Second)
			i++
		}
		time.Sleep(5 * time.Millisecond)
	}

	lm.Stop()
	mon.Stop()

	if lm.Generation() == 0 {
		t.Fatalf("no promotion within the soak deadline: status %+v", lm.Status())
	}
	if got := mon.Stats().ModelSwaps; got == 0 {
		t.Fatal("promotion reported but the monitor never swapped")
	}
	if msgs, _ := mon.Counters(); msgs == 0 {
		t.Fatal("monitor processed no messages")
	}
	// The stack still scores after shutdown-restart of the async machinery.
	mon.Start()
	mon.Enqueue(logfmt.Message{Time: at, Host: "vpe01", Tag: "rpd", Text: normalTexts[0]})
	mon.Stop()
}

// BenchmarkAdaptationCycle measures one full forced lifecycle cycle at
// unit scale: spool snapshot, candidate clone, incremental fine-tune on
// the spooled windows, shadow gate on the holdout, and promotion through
// the monitor's SwapModel path.
func BenchmarkAdaptationCycle(b *testing.B) {
	sb, tree := testBundle(b)
	lm, mon := buildStack(b, testLifecycleConfig(), sb, tree)
	feedNormal(mon, "vpe01", 200, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := lm.TriggerCycle(true)
		if !res.Promoted {
			b.Fatalf("cycle %d did not promote: %+v", i, res)
		}
	}
}
