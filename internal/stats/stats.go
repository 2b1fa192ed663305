// Package stats computes the v-sensor distribution metrics of paper §6.3
// (Fig. 15): each sensor execution is a "sense" with a duration; sense-time
// is the summed duration, coverage is sense-time over total time, frequency
// is sense-count over total time, and the durations and the intervals
// between consecutive senses are bucketed into the histograms of Figs. 16
// and 17.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vsensor/internal/vm"
)

// Buckets used by the paper's Figures 16 and 17.
var (
	// DurationBuckets: <100µs, 100µs–10ms, 10ms–1s, >1s.
	DurationBuckets = []int64{100_000, 10_000_000, 1_000_000_000}
	// IntervalBuckets: same boundaries.
	IntervalBuckets = []int64{100_000, 10_000_000, 1_000_000_000}
)

// BucketLabels renders histogram bucket labels for the given boundaries.
func BucketLabels(bounds []int64) []string {
	labels := make([]string, len(bounds)+1)
	fmtNs := func(ns int64) string {
		switch {
		case ns >= 1_000_000_000:
			return fmt.Sprintf("%ds", ns/1_000_000_000)
		case ns >= 1_000_000:
			return fmt.Sprintf("%dms", ns/1_000_000)
		default:
			return fmt.Sprintf("%dus", ns/1_000)
		}
	}
	for i := range labels {
		switch {
		case i == 0:
			labels[i] = "<" + fmtNs(bounds[0])
		case i == len(bounds):
			labels[i] = ">" + fmtNs(bounds[len(bounds)-1])
		default:
			labels[i] = fmtNs(bounds[i-1]) + "~" + fmtNs(bounds[i])
		}
	}
	return labels
}

// Histogram counts values into boundary-defined buckets.
type Histogram struct {
	Bounds []int64
	Counts []int64
}

// NewHistogram builds an empty histogram over the given boundaries.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

// Add counts one value.
func (h *Histogram) Add(v int64) {
	for i, b := range h.Bounds {
		if v < b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Total returns the number of counted values.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// String renders the histogram with labels.
func (h *Histogram) String() string {
	labels := BucketLabels(h.Bounds)
	parts := make([]string, len(labels))
	for i := range labels {
		parts[i] = fmt.Sprintf("%s:%d", labels[i], h.Counts[i])
	}
	return strings.Join(parts, " ")
}

// Distribution summarizes the senses of one run (per paper Fig. 15).
type Distribution struct {
	TotalNs    int64
	SenseCount int64
	SenseTime  int64

	Durations *Histogram
	Intervals *Histogram
}

// Coverage is sense-time / total-time.
func (d *Distribution) Coverage() float64 {
	if d.TotalNs == 0 {
		return 0
	}
	return float64(d.SenseTime) / float64(d.TotalNs)
}

// FrequencyHz is sense-count / total-time in senses per second.
func (d *Distribution) FrequencyHz() float64 {
	if d.TotalNs == 0 {
		return 0
	}
	return float64(d.SenseCount) / (float64(d.TotalNs) / 1e9)
}

// Analyze computes the distribution from raw sensor records. totalNs is the
// job's execution time. Records are grouped per rank; intervals are the
// gaps between consecutive senses on the same rank. Overlapping senses
// (nested probes) contribute their union to sense-time.
func Analyze(records []vm.Record, totalNs int64) *Distribution {
	d := &Distribution{
		TotalNs:   totalNs,
		Durations: NewHistogram(DurationBuckets),
		Intervals: NewHistogram(IntervalBuckets),
	}
	byRank := make(map[int][]vm.Record)
	for _, r := range records {
		byRank[r.Rank] = append(byRank[r.Rank], r)
		d.Durations.Add(r.Duration())
		d.SenseCount++
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	var senseTimeAll int64
	for _, rank := range ranks {
		recs := byRank[rank]
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Start != recs[j].Start {
				return recs[i].Start < recs[j].Start
			}
			return recs[i].End < recs[j].End
		})
		// Union of sense spans and gaps between them.
		curStart, curEnd := int64(-1), int64(-1)
		for _, r := range recs {
			if curEnd < 0 {
				curStart, curEnd = r.Start, r.End
				continue
			}
			if r.Start <= curEnd {
				if r.End > curEnd {
					curEnd = r.End
				}
				continue
			}
			senseTimeAll += curEnd - curStart
			d.Intervals.Add(r.Start - curEnd)
			curStart, curEnd = r.Start, r.End
		}
		if curEnd >= 0 {
			senseTimeAll += curEnd - curStart
		}
	}
	if len(ranks) > 0 {
		// Sense-time as the per-rank average, comparable to total time.
		d.SenseTime = senseTimeAll / int64(len(ranks))
		d.SenseCount /= int64(len(ranks))
	}
	return d
}

// Summary collects scalar statistics over a numeric sample.
type Summary struct {
	N              int
	Min, Max, Mean float64
	StdDev         float64
}

// Summarize computes summary statistics.
func Summarize(vals []float64) Summary {
	s := Summary{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(vals) == 0 {
		return Summary{}
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - s.Mean) * (v - s.Mean)
	}
	s.StdDev = math.Sqrt(ss / float64(len(vals)))
	return s
}

// MaxOverMin returns max/min of a sample — the paper's run-to-run variance
// metric ("the maximum execution time is more than three times the
// minimum", Fig. 1) and the Ps workload-validation ratio of §6.2.
func MaxOverMin(vals []float64) float64 {
	s := Summarize(vals)
	if s.N == 0 || s.Min <= 0 {
		return math.NaN()
	}
	return s.Max / s.Min
}
