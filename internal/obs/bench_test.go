package obs

import (
	"io"
	"testing"
	"time"
)

// The Registry benchmarks double as the `make ci` smoke run
// (-bench Registry -benchtime=1x): they prove the hot-path primitives stay
// allocation-free on both the live and the no-op (nil handle) paths. The
// hard assertion lives in TestHotPathAllocFree; these give the numbers.

func BenchmarkRegistryCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRegistryCounterIncNop(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRegistryHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "", DurationBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkRegistryHistogramObserveNop(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkRegistryHistogramTimed(b *testing.B) {
	h := NewRegistry().Histogram("h", "", DurationBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(h.Start())
	}
}

func BenchmarkRegistrySpanRingAdd(b *testing.B) {
	ring := NewSpanRing(768)
	sp := Span{Kind: KindDecision, Host: "vpe01", Score: 7, Anomalous: true, Time: time.Now(),
		Explain: &Explanation{Threshold: 6, Window: make([]TraceStep, 8)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Add(sp)
	}
}

func BenchmarkRegistryPrometheusExposition(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter("counter_"+string(rune('a'+i))+"_total", "help").Add(uint64(i))
		r.Histogram("hist_"+string(rune('a'+i)), "help", DurationBuckets()).Observe(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.WritePrometheus(io.Discard)
	}
}
