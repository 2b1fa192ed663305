package server

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// medianSorted returns the median of an already-sorted value slice: the
// oracle selectMedian must reproduce, after sort.Float64s.
func medianSorted(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// checkSelectMedian runs selectMedian on a copy of in and compares it with
// sort.Float64s + medianSorted bit for bit. sort.Float64s ties -0 with +0
// and every NaN with every other NaN, and its pattern-defeating quicksort
// is not stable, so which of two tied bit patterns lands at the median is
// unspecified for the oracle itself: a zero of the other sign is accepted
// only when in holds both zeros, another NaN only when in holds NaNs of more
// than one pattern. Either way the verdict is the same (a median ≤ 0 and a
// NaN median both flag nothing). Selection must also only permute in.
func checkSelectMedian(t *testing.T, in []float64) {
	t.Helper()
	sorted := slices.Clone(in)
	sort.Float64s(sorted)
	want := medianSorted(sorted)
	vals := slices.Clone(in)
	got := selectMedian(vals)

	gb, wb := math.Float64bits(got), math.Float64bits(want)
	if gb != wb {
		var negZero, posZero bool
		nanBits := map[uint64]bool{}
		for _, v := range in {
			switch {
			case v != v:
				nanBits[math.Float64bits(v)] = true
			case v == 0 && math.Signbit(v):
				negZero = true
			case v == 0:
				posZero = true
			}
		}
		tiedZero := got == 0 && want == 0 && negZero && posZero
		tiedNaN := got != got && want != want && len(nanBits) > 1
		if !tiedZero && !tiedNaN {
			t.Fatalf("n=%d: selectMedian = %v (%#x), sort.Float64s median = %v (%#x); input %v", len(in), got, gb, want, wb, in)
		}
	}
	if !sameBits(vals, in) {
		t.Fatalf("n=%d: selectMedian changed the value multiset: %v -> %v", len(in), in, vals)
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// counted with multiplicity.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(bits(a), bits(b))
}

// specials are the values sort.Float64s treats specially or that tie in its
// order: NaNs of two payloads, both zeros, both infinities.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0bad), math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
}

// TestSelectMedianMatchesSort is the seeded property: for every n in 0…70
// and n = 4096, across value shapes — distinct, runs of duplicates from a
// tiny alphabet, already sorted, reversed, all equal, and each of those
// salted with NaN, ±0 and ±Inf — selection equals the sorted median.
func TestSelectMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	sizes := make([]int, 0, 72)
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 4096)
	shapes := []func(n int) []float64{
		func(n int) []float64 { // distinct-ish
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()*100 + 1000
			}
			return v
		},
		func(n int) []float64 { // runs of duplicates
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(rng.Intn(3))
			}
			return v
		},
		func(n int) []float64 { // ascending, then descending
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i / 3)
			}
			if rng.Intn(2) == 0 {
				slices.Reverse(v)
			}
			return v
		},
		func(n int) []float64 { // all equal
			v := make([]float64, n)
			for i := range v {
				v[i] = 7
			}
			return v
		},
		func(n int) []float64 { // only specials
			v := make([]float64, n)
			for i := range v {
				v[i] = specials[rng.Intn(len(specials))]
			}
			return v
		},
	}
	for _, n := range sizes {
		for _, shape := range shapes {
			for trial := 0; trial < 4; trial++ {
				v := shape(n)
				if trial > 0 && n > 0 { // salt: up to a third specials
					for s := rng.Intn(n/3 + 1); s > 0; s-- {
						v[rng.Intn(n)] = specials[rng.Intn(len(specials))]
					}
				}
				if trial == 3 {
					rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
				}
				checkSelectMedian(t, v)
			}
		}
	}
}

// FuzzEpochMedian checks selectMedian against sort.Float64s + medianSorted
// on arbitrary input. A length that is a multiple of 8 is read as raw
// little-endian float64s (any bit pattern, every NaN payload); any other
// length as one byte per value indexing a small palette of specials and
// small integers, so short inputs reach long runs of ties.
func FuzzEpochMedian(f *testing.F) {
	palette := append(slices.Clone(specials), 1, 2, 3, -1, 0.5)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{2, 3, 3, 2, 6, 6, 6, 7, 8})
	raw := make([]byte, 0, 8*6)
	for _, v := range []float64{3, math.NaN(), math.Copysign(0, -1), 1, math.Inf(1), 2} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		if len(data)%8 == 0 {
			for off := 0; off < len(data); off += 8 {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
			}
		} else {
			for _, b := range data {
				vals = append(vals, palette[int(b)%len(palette)])
			}
		}
		checkSelectMedian(t, vals)
	})
}
