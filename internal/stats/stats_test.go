package stats

import (
	"math"
	"testing"
	"testing/quick"

	"vsensor/internal/vm"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(DurationBuckets)
	h.Add(50_000)        // <100us
	h.Add(99_999)        // <100us
	h.Add(100_000)       // 100us~10ms
	h.Add(5_000_000)     // 100us~10ms
	h.Add(500_000_000)   // 10ms~1s
	h.Add(2_000_000_000) // >1s
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestBucketLabels(t *testing.T) {
	labels := BucketLabels(DurationBuckets)
	want := []string{"<100us", "100us~10ms", "10ms~1s", ">1s"}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, labels[i], want[i])
		}
	}
}

func mkRec(rank int, start, end int64) vm.Record {
	return vm.Record{Sensor: 0, Rank: rank, Start: start, End: end}
}

func TestAnalyzeCoverageAndFrequency(t *testing.T) {
	// One rank, 10 senses of 10µs each every 100µs over 1ms total.
	var recs []vm.Record
	for i := 0; i < 10; i++ {
		s := int64(i) * 100_000
		recs = append(recs, mkRec(0, s, s+10_000))
	}
	d := Analyze(recs, 1_000_000)
	if d.SenseCount != 10 {
		t.Errorf("senses = %d", d.SenseCount)
	}
	if d.SenseTime != 100_000 {
		t.Errorf("sense time = %d", d.SenseTime)
	}
	if c := d.Coverage(); math.Abs(c-0.1) > 1e-9 {
		t.Errorf("coverage = %v", c)
	}
	if f := d.FrequencyHz(); math.Abs(f-10_000) > 1e-6 {
		t.Errorf("freq = %v Hz", f)
	}
	// Intervals: 9 gaps of 90µs, all in <100us bucket.
	if d.Intervals.Counts[0] != 9 {
		t.Errorf("interval buckets = %v", d.Intervals.Counts)
	}
}

func TestAnalyzeMultiRankAveraging(t *testing.T) {
	// Two ranks with identical patterns: per-rank averages equal the
	// single-rank values.
	var recs []vm.Record
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 5; i++ {
			s := int64(i) * 200_000
			recs = append(recs, mkRec(rank, s, s+20_000))
		}
	}
	d := Analyze(recs, 1_000_000)
	if d.SenseCount != 5 {
		t.Errorf("per-rank senses = %d", d.SenseCount)
	}
	if d.SenseTime != 100_000 {
		t.Errorf("per-rank sense time = %d", d.SenseTime)
	}
}

func TestAnalyzeOverlappingSenses(t *testing.T) {
	// Nested probes: union counts once.
	recs := []vm.Record{
		mkRec(0, 0, 100_000),
		mkRec(0, 20_000, 60_000),
		mkRec(0, 200_000, 240_000),
	}
	d := Analyze(recs, 1_000_000)
	if d.SenseTime != 140_000 {
		t.Errorf("union sense time = %d", d.SenseTime)
	}
	// Only one true interval (100k→200k).
	if d.Intervals.Total() != 1 {
		t.Errorf("intervals = %v", d.Intervals.Counts)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-2) > 1e-9 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty = %+v", z)
	}
}

func TestMaxOverMin(t *testing.T) {
	if r := MaxOverMin([]float64{10, 20, 33.7}); math.Abs(r-3.37) > 1e-9 {
		t.Errorf("ratio = %v", r)
	}
	if !math.IsNaN(MaxOverMin(nil)) || !math.IsNaN(MaxOverMin([]float64{0, 1})) {
		t.Error("degenerate inputs should be NaN")
	}
}

// Property: coverage is always within [0, 1] for non-overlapping senses
// bounded by totalNs, and Analyze is order-insensitive.
func TestQuickCoverageBounds(t *testing.T) {
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
		total := int64(10_000_000)
		var recs []vm.Record
		t0 := int64(0)
		for t0 < total-200_000 {
			t0 += next(100_000) + 1
			dur := next(90_000) + 1
			recs = append(recs, mkRec(0, t0, t0+dur))
			t0 += dur
		}
		d := Analyze(recs, total)
		// Shuffled input gives the same result.
		shuffled := make([]vm.Record, len(recs))
		copy(shuffled, recs)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := next(int64(i + 1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		d2 := Analyze(shuffled, total)
		return d.Coverage() >= 0 && d.Coverage() <= 1 &&
			d.SenseTime == d2.SenseTime && d.SenseCount == d2.SenseCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
