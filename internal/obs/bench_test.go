package obs

import (
	"io"
	"testing"
)

// BenchmarkCounterInc is the headline hot-path number: a counter increment
// must stay lock-free and well under 50ns/op (acceptance criterion; on
// modern hardware an uncontended atomic add is single-digit ns).
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterIncParallel measures the contended case (all ranks
// hitting one family child).
func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkCounterIncNil measures the observability-off cost: a nil handle
// must be a predicted branch, not a call into anything.
func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkGaugeAdd measures the CAS loop under no contention.
func BenchmarkGaugeAdd(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench_g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

// BenchmarkHistogramObserve measures the bucket scan + three atomics.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&0xffff) + 1)
	}
}

// BenchmarkSpanStartEnd measures one full span (two time.Now calls plus a
// mutex-guarded append) — cold-path by design, but worth tracking. The span
// slice is pre-reserved with Grow so the number reflects the span itself:
// without it, the tracer's unbounded append amortizes its doubling copies
// below 0.5 allocs/op (rounding to 0) while still reporting hundreds of
// B/op — a self-contradictory result.
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer()
	tr.Grow(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Start(0, "op").End()
	}
}

// BenchmarkFlightRecord measures one flight-recorder ring write: an atomic
// index claim plus a per-slot seqlock publish. This is the per-span cost a
// sampled record pays at every hop, so it must stay allocation-free.
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(flightCap)
	sp := FlightSpan{Trace: 99, Rank: 3, Stage: StageIngest, StartNs: 1, DurNs: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Record(sp)
	}
}

// BenchmarkLineageTraceID measures the sampling decision every frame pays
// when lineage is on — two SplitMix64 mixes and a modulo.
func BenchmarkLineageTraceID(b *testing.B) {
	l := NewLineage(LineageConfig{SampleEvery: 256})
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= l.TraceID(i&0xfff, uint64(i))
	}
	_ = sink
}

// BenchmarkWritePrometheus measures a full exposition pass over a
// realistically sized registry (what one /metrics poll costs).
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter("detect_slices_total", "rank", itoa(i)).Add(int64(i))
	}
	r.Histogram("server_batch_bytes").Observe(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
