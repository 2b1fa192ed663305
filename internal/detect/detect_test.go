package detect

import (
	"errors"
	"testing"
	"testing/quick"

	"vsensor/internal/ir"
	"vsensor/internal/obs"
	"vsensor/internal/vm"
)

type sliceCollector struct {
	recs []SliceRecord
}

func (c *sliceCollector) OnSlice(r SliceRecord) error { c.recs = append(c.recs, r); return nil }

func mkSensors() []Sensor {
	return []Sensor{
		{ID: 0, Type: ir.Computation, ProcessFixed: true, Name: "comp"},
		{ID: 1, Type: ir.Network, ProcessFixed: true, Name: "net"},
	}
}

// feed produces n records of the given duration spaced evenly.
func feed(d *Detector, sensor int, start, spacing, dur int64, n int, miss float64) {
	for i := 0; i < n; i++ {
		s := start + int64(i)*spacing
		d.OnRecord(vm.Record{Sensor: sensor, Rank: 0, Start: s, End: s + dur, Instr: 100, MissRate: miss})
	}
}

func TestSmoothingAggregatesPerSlice(t *testing.T) {
	col := &sliceCollector{}
	d := New(0, mkSensors(), Config{SliceNs: 1_000_000}, col)
	// 100 records of 10µs each, spaced 100µs apart → exactly 10 slices of
	// 1000µs with 10 records each.
	feed(d, 0, 0, 100_000, 10_000, 100, 0)
	d.Finish()
	if len(col.recs) != 10 {
		t.Fatalf("slices = %d, want 10", len(col.recs))
	}
	var total int32
	for _, r := range col.recs {
		total += r.Count
		if r.AvgNs != 10_000 {
			t.Errorf("slice avg = %v", r.AvgNs)
		}
	}
	if total != 100 {
		t.Errorf("records accounted = %d", total)
	}
	// One analysis per slice, not per record (paper §5.1).
	if d.Analyses() != 10 {
		t.Errorf("analyses = %d, want 10", d.Analyses())
	}
}

func TestSmoothingFiltersShortNoise(t *testing.T) {
	// Alternating fast/slow records within a slice must not trigger
	// variance, but a sustained slowdown must.
	col := &sliceCollector{}
	d := New(0, mkSensors(), Config{SliceNs: 1_000_000, VarianceThreshold: 0.8}, col)
	// Slices 0..4: alternating 9µs and 11µs (avg 10µs) — smooth.
	for i := 0; i < 500; i++ {
		dur := int64(9_000)
		if i%2 == 1 {
			dur = 11_000
		}
		s := int64(i) * 10_000
		d.OnRecord(vm.Record{Sensor: 0, Start: s, End: s + dur})
	}
	// Slices 5..9: sustained 2x slowdown.
	for i := 500; i < 1000; i++ {
		s := int64(i) * 10_000
		d.OnRecord(vm.Record{Sensor: 0, Start: s, End: s + 20_000})
	}
	d.Finish()
	if len(d.Events()) == 0 {
		t.Fatal("sustained slowdown not detected")
	}
	for _, e := range d.Events() {
		if e.SliceNs < 5_000_000 {
			t.Errorf("false positive in smooth region at %dns", e.SliceNs)
		}
		if e.Type != ir.Computation {
			t.Errorf("event type = %v", e.Type)
		}
	}
}

func TestNormalizationAgainstFastest(t *testing.T) {
	col := &sliceCollector{}
	d := New(0, mkSensors(), Config{SliceNs: 1_000_000, VarianceThreshold: 0.9}, col)
	// First slice 10µs, second 20µs → perf 0.5 → variance event.
	feed(d, 0, 0, 10_000, 10_000, 100, 0)
	feed(d, 0, 1_000_000, 10_000, 20_000, 100, 0)
	d.Finish()
	if len(d.Events()) != 1 {
		t.Fatalf("events = %+v", d.Events())
	}
	if p := d.Events()[0].Perf; p < 0.49 || p > 0.51 {
		t.Errorf("perf = %v, want ~0.5", p)
	}
}

// Each sensor keeps its own standard time, and an event carries its
// sensor's component: a degraded computation sensor does not taint the
// clean network sensor beside it.
func TestComponentSeparation(t *testing.T) {
	d := New(0, mkSensors(), Config{SliceNs: 1_000_000}, nil)
	feed(d, 0, 0, 100_000, 10_000, 50, 0)
	feed(d, 0, 5_000_000, 100_000, 30_000, 50, 0) // computation degrades
	feed(d, 1, 0, 100_000, 5_000, 100, 0)         // network stays clean
	d.Finish()
	if len(d.Events()) != 5 {
		t.Fatalf("events = %+v, want the 5 degraded computation slices", d.Events())
	}
	for _, e := range d.Events() {
		if e.Type != ir.Computation || e.Sensor != 0 || e.SliceNs < 5_000_000 {
			t.Errorf("unexpected event %+v", e)
		}
	}
}

// Fig. 13: without dynamic rules, high-miss records look like variance;
// with miss-rate buckets they form their own group and only the genuine
// outlier remains.
func TestDynamicRuleMissRateGrouping(t *testing.T) {
	mkRecords := func(d *Detector) {
		type rec struct {
			dur  int64
			miss float64
		}
		// Mirrors the paper's example: wall-times 3,3,7,3,5,3,7,3,3,3 with
		// records 2 and 6 having high cache miss; record 4 (5s, low miss)
		// is the genuine variance.
		recs := []rec{{3, .05}, {3, .05}, {7, .45}, {3, .05}, {5, .05}, {3, .05}, {7, .45}, {3, .05}, {3, .05}, {3, .05}}
		for i, r := range recs {
			s := int64(i) * 1_000_000 // one record per slice
			d.OnRecord(vm.Record{Sensor: 0, Start: s, End: s + r.dur*100_000, MissRate: r.miss})
		}
		d.Finish()
	}

	plain := New(0, mkSensors(), Config{SliceNs: 1_000_000, VarianceThreshold: 0.7}, nil)
	mkRecords(plain)
	if len(plain.Events()) < 3 {
		t.Errorf("without dynamic rules records 2,4,6 all look like variance: %d events", len(plain.Events()))
	}

	grouped := New(0, mkSensors(), Config{SliceNs: 1_000_000, VarianceThreshold: 0.7, MissRateBuckets: []float64{0.2, 1.01}}, nil)
	mkRecords(grouped)
	if len(grouped.Events()) != 1 {
		t.Fatalf("with dynamic rules only record 4 is variance: %+v", grouped.Events())
	}
	e := grouped.Events()[0]
	if e.Group != 0 || e.SliceNs != 4_000_000 {
		t.Errorf("wrong variance located: %+v", e)
	}

	// Both groups in every slice at steady but different speeds: each group
	// keeps its own best, so the slower one is no variance.
	both := New(0, mkSensors(), Config{SliceNs: 1_000_000, VarianceThreshold: 0.7, MissRateBuckets: []float64{0.2, 1.01}}, nil)
	feed(both, 0, 0, 100_000, 10_000, 60, 0.05)
	feed(both, 0, 50_000, 100_000, 30_000, 60, 0.45)
	both.Finish()
	if len(both.Events()) != 0 {
		t.Errorf("per-group baselines: steady groups raised %+v", both.Events())
	}
}

func TestShortSensorDisabled(t *testing.T) {
	col := &sliceCollector{}
	d := New(0, mkSensors(), Config{SliceNs: 1_000_000, DisableShortNs: 500, WarmupRecords: 8}, col)
	// Sensor 0: 100ns records → disabled after 8 observations.
	feed(d, 0, 0, 1_000, 100, 50, 0)
	// Sensor 1: 50µs records → stays enabled.
	feed(d, 1, 0, 100_000, 50_000, 50, 0)
	d.Finish()
	if !d.Disabled(0) {
		t.Error("short sensor not disabled")
	}
	if d.Disabled(1) {
		t.Error("long sensor wrongly disabled")
	}
	if d.Dropped() == 0 {
		t.Error("no records dropped after disabling")
	}
	for _, r := range col.recs {
		if r.Sensor == 0 && r.SliceNs > 0 {
			t.Errorf("disabled sensor still emitting: %+v", r)
		}
	}
}

// A sensor the short-sensor rule disables flushes its open groups in group
// order, the order Finish uses: every fresh detector emits the same
// sequence, so frames, the log and matrix sums do not depend on map order.
func TestDisabledSensorFlushesInGroupOrder(t *testing.T) {
	buckets := []float64{0.1, 0.2, 0.3, 0.4, 1.01}
	for run := 0; run < 20; run++ {
		col := &sliceCollector{}
		d := New(0, mkSensors(), Config{SliceNs: 1_000_000, MissRateBuckets: buckets, DisableShortNs: 500, WarmupRecords: 10}, col)
		// Nine short records open all five groups in one slice; the tenth
		// ends the warm-up and disables the sensor.
		for i := 0; i < 10; i++ {
			s := int64(i) * 1_000
			d.OnRecord(vm.Record{Sensor: 0, Start: s, End: s + 100, MissRate: 0.05 + 0.1*float64(i%5)})
		}
		if !d.Disabled(0) {
			t.Fatal("short sensor not disabled")
		}
		if len(col.recs) != len(buckets) {
			t.Fatalf("run %d: flushed %d slices, want %d", run, len(col.recs), len(buckets))
		}
		for i, r := range col.recs {
			if r.Group != i {
				t.Fatalf("run %d: flush order %+v, want groups 0..4 ascending", run, col.recs)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(3, nil, Config{}, nil)
	if d.cfg.SliceNs != DefaultSliceNs || d.cfg.VarianceThreshold != DefaultVarianceThreshold || d.cfg.WarmupRecords != DefaultWarmup {
		t.Errorf("defaults not applied: %+v", d.cfg)
	}
}

// Property: every consumed record is accounted in exactly one emitted slice
// (when no sensor is disabled), and slice averages lie within the min/max
// record durations.
func TestQuickSliceAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func(n int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := (rng >> 33) % n
			if v < 0 {
				v += n
			}
			return v
		}
		col := &sliceCollector{}
		d := New(0, mkSensors(), Config{SliceNs: 1_000_000}, col)
		n := int(next(200)) + 1
		var minDur, maxDur int64 = 1 << 62, 0
		t0 := int64(0)
		for i := 0; i < n; i++ {
			t0 += next(300_000)
			dur := next(50_000) + 1
			if dur < minDur {
				minDur = dur
			}
			if dur > maxDur {
				maxDur = dur
			}
			d.OnRecord(vm.Record{Sensor: 0, Start: t0, End: t0 + dur})
		}
		d.Finish()
		var total int32
		for _, r := range col.recs {
			total += r.Count
			if r.AvgNs < float64(minDur) || r.AvgNs > float64(maxDur) {
				return false
			}
		}
		return int(total) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Out-of-order slice boundaries: a record belonging to an earlier slice
// after a later one opened simply starts a new aggregation window; totals
// must still balance.
func TestSliceKeying(t *testing.T) {
	col := &sliceCollector{}
	d := New(0, mkSensors(), Config{SliceNs: 1_000_000}, col)
	d.OnRecord(vm.Record{Sensor: 0, Start: 100, End: 200})
	d.OnRecord(vm.Record{Sensor: 0, Start: 2_500_000, End: 2_500_100})
	d.OnRecord(vm.Record{Sensor: 0, Start: 2_600_000, End: 2_600_100})
	d.Finish()
	if len(col.recs) != 2 {
		t.Fatalf("slices = %+v", col.recs)
	}
	if col.recs[0].Count != 1 || col.recs[1].Count != 2 {
		t.Errorf("counts = %d,%d", col.recs[0].Count, col.recs[1].Count)
	}
}

// failingEmitter rejects every delivery after the first n.
type failingEmitter struct {
	ok   int
	recs []SliceRecord
	err  error
}

func (e *failingEmitter) OnSlice(r SliceRecord) error {
	if len(e.recs) >= e.ok {
		return e.err
	}
	e.recs = append(e.recs, r)
	return nil
}

// An emitter delivery failure must not panic or stop the detector: the
// error is counted, the last one is retained, and analysis continues.
func TestEmitterErrorsCounted(t *testing.T) {
	em := &failingEmitter{ok: 3, err: errEmit}
	d := New(0, mkSensors(), Config{SliceNs: 1_000_000}, em)
	feed(d, 0, 0, 100_000, 10_000, 100, 0)
	d.Finish()
	if d.EmitErrors() != 7 {
		t.Errorf("emit errors = %d, want 7 (10 slices, 3 delivered)", d.EmitErrors())
	}
	if d.LastEmitError() != errEmit {
		t.Errorf("last emit error = %v", d.LastEmitError())
	}
	if len(em.recs) != 3 {
		t.Errorf("delivered = %d", len(em.recs))
	}
	if d.Analyses() != 10 {
		t.Errorf("analyses = %d; emit failures must not stop analysis", d.Analyses())
	}
}

var errEmit = errors.New("link down")

// tracedCollector is a sliceCollector that also implements TraceSource and
// vm.ClockBinder, modeling the transport conn surface.
type tracedCollector struct {
	sliceCollector
	next  uint64
	clock vm.Clock
}

func (c *tracedCollector) NextTrace() uint64     { return c.next }
func (c *tracedCollector) BindClock(cl vm.Clock) { c.clock = cl }

type stubClock struct{ now int64 }

func (s *stubClock) Now() int64        { return s.now }
func (s *stubClock) AdvanceTo(t int64) { s.now = t }

// TestEmitSpanTagsLineage pins the detector's side of the lineage contract:
// when the emitter is a TraceSource, every closed slice records an emit
// span under the trace of the frame its records will leave in — and a zero
// NextTrace (unsampled frame) records nothing.
func TestEmitSpanTagsLineage(t *testing.T) {
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 1})
	em := &tracedCollector{next: 0x77}
	d := New(3, mkSensors(), Config{SliceNs: 1000, Obs: o}, em)
	feed(d, 0, 0, 100, 50, 30, 0)
	d.Finish()
	spans, _ := lin.Snapshot(nil, 0)
	emits := 0
	for _, sp := range spans {
		if sp.Stage != obs.StageEmit {
			t.Fatalf("detector recorded non-emit span %+v", sp)
		}
		if sp.Trace != 0x77 || sp.Rank != 3 || sp.Arg <= 0 {
			t.Fatalf("emit span %+v, want trace 0x77 rank 3 positive count", sp)
		}
		emits++
	}
	if emits == 0 || emits != len(em.recs) {
		t.Fatalf("emit spans = %d, slices emitted = %d", emits, len(em.recs))
	}

	// Unsampled frames (NextTrace 0) must add nothing.
	em2 := &tracedCollector{next: 0}
	d2 := New(4, mkSensors(), Config{SliceNs: 1000, Obs: o}, em2)
	feed(d2, 0, 0, 100, 50, 30, 0)
	d2.Finish()
	after, _ := lin.Snapshot(nil, 0)
	if len(after) != len(spans) {
		t.Fatalf("unsampled emits added %d spans", len(after)-len(spans))
	}
}

// TestBindClockForwards pins that the detector forwards the rank clock to
// a clock-binding emitter and leaves plain emitters alone.
func TestBindClockForwards(t *testing.T) {
	em := &tracedCollector{}
	d := New(0, mkSensors(), Config{}, em)
	cl := &stubClock{}
	d.BindClock(cl)
	if em.clock != vm.Clock(cl) {
		t.Fatal("clock not forwarded to the binding emitter")
	}
	d2 := New(0, mkSensors(), Config{}, &sliceCollector{})
	d2.BindClock(cl) // must not panic on a non-binding emitter
}
