package main

import (
	"math"
	"sort"
)

// summary is what the harness reports for one metric: the median over
// trials (or over pooled samples), the quartiles, and the sample count.
// A count measured once per run has N == 1 and Q1 == Q3 == Median.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile range as a share of the median — the
// repeatability measure the acceptance sets are judged by.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median of an already sorted slice; 0 when empty.
func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of a sorted slice by the
// exclusive method — the one Python's statistics.quantiles(v, n=4) uses, so
// the harness and the driver compute the same spread from the same values —
// except that the result is kept inside the samples' range, where that
// method extrapolates beyond two samples (a negative count helps nobody).
// Fewer than two samples have no spread: both quartiles are the sample.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q := (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		return math.Min(math.Max(q, s[0]), s[n-1])
	}
	return at(1), at(3)
}

// summarize reports the median and quartiles of per-trial values.
func summarize(vals []float64) summary {
	s := sorted(vals)
	q1, q3 := quartiles(s)
	return summary{Median: medianSorted(s), Q1: q1, Q3: q3, N: len(s)}
}

// percentile returns the p-quantile (0 < p < 1) of a sorted slice by the
// nearest-rank method; 0 when empty.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// tailLadder is the fixed set of percentiles the harness ever reports.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// reliableP caps a requested percentile at the highest one of tailLadder
// that still has at least ten of the n samples beyond it: a p99 of 300
// samples rests on three values and is reported as the p95 instead.
func reliableP(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > want {
			break
		}
		// The slack is for floating point: 100*(1-0.9) is 9.999....
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// tail returns one trial's latency samples at the requested percentile,
// capped by reliableP, and the percentile actually used. The samples are
// sorted in place.
func tail(samples []float64, want float64) (value, p float64) {
	sort.Float64s(samples)
	p = reliableP(len(samples), want)
	return percentile(samples, p), p
}
