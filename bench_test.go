package vsensor_test

import (
	"testing"
	"time"

	vsensor "vsensor"
	"vsensor/internal/apps"
	"vsensor/internal/obs"
)

// BenchmarkObsOverhead: wall-clock cost of attaching the observability
// layer to a full instrumented run. Virtual time is identical by
// construction (obs charges no simulated cost); this measures the real
// host-time overhead of the counters, spans and per-record hooks, which
// must stay within the paper's <4% envelope. (The paper's own tables and
// figures are virtual-time results, not benchmarks: internal/experiments.)
func BenchmarkObsOverhead(b *testing.B) {
	app := apps.MustGet("SP", apps.Scale{Iters: 15, Work: 40})
	run := func(o *obs.Obs) time.Duration {
		start := time.Now()
		if _, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 8, Obs: o}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// Interleave plain and obs-attached runs within one loop so clock
	// drift and frequency scaling hit both sides equally.
	var plain, withObs time.Duration
	for i := 0; i < b.N; i++ {
		plain += run(nil)
		withObs += run(obs.New())
	}
	if plain > 0 {
		b.ReportMetric(float64(withObs-plain)/float64(plain)*100, "overhead-%")
	}
}
