// Package vis builds and renders the performance matrices of paper §5.5:
// for each component type (Computation / Network / IO), a time × rank grid
// of normalized performance where 1.0 is the best observed and low values
// — the paper's "white blocks" — mark performance variance. It also
// extracts the structures the case studies look for: persistent low-
// performance rank bands (bad node, Fig. 21) and time-bounded low windows
// across all ranks (network degradation, Fig. 22).
package vis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vsensor/internal/detect"
	"vsensor/internal/ir"
)

// Matrix is a time × rank grid of normalized performance for one component
// type. Cells[r][c] is rank r's performance in time column c; cells with no
// data hold NaN.
type Matrix struct {
	Type     ir.SnippetType
	Ranks    int
	ColNs    int64 // column resolution in virtual ns
	StartNs  int64
	Cells    [][]float64 // [rank][col]
	Coverage float64     // fraction of cells with data
}

// Build constructs per-type matrices from slice records. sensorTypes maps
// sensor IDs to their component type; colNs sets the rendering resolution
// (the paper's Fig. 14 uses 200ms columns). Normalization follows §5.2:
// each sensor's fastest slice average (across every rank) becomes 1.0, and
// per-cell performance is the mean normalized performance of contributing
// sensor slices.
func Build(recs []detect.SliceRecord, sensorTypes map[int]ir.SnippetType, ranks int, colNs int64) map[ir.SnippetType]*Matrix {
	if colNs <= 0 {
		colNs = 200_000_000
	}
	// Per-sensor best average — the normalization standard. A zero average
	// is no measurement: it would zero every cell of its sensor.
	best := make(map[int]float64)
	var maxT int64
	for _, r := range recs {
		if b, ok := best[r.Sensor]; r.AvgNs > 0 && (!ok || r.AvgNs < b) {
			best[r.Sensor] = r.AvgNs
		}
		if r.SliceNs > maxT {
			maxT = r.SliceNs
		}
	}
	cols := int(maxT/colNs) + 1

	type cellAgg struct {
		sum float64
		n   int
	}
	aggs := make(map[ir.SnippetType][][]cellAgg)
	get := func(t ir.SnippetType) [][]cellAgg {
		if a, ok := aggs[t]; ok {
			return a
		}
		a := make([][]cellAgg, ranks)
		for i := range a {
			a[i] = make([]cellAgg, cols)
		}
		aggs[t] = a
		return a
	}

	for _, r := range recs {
		if r.Rank >= ranks || r.AvgNs <= 0 {
			continue
		}
		typ, ok := sensorTypes[r.Sensor]
		if !ok {
			continue
		}
		col := int(r.SliceNs / colNs)
		perf := best[r.Sensor] / r.AvgNs
		if perf > 1 {
			perf = 1
		}
		a := get(typ)
		a[r.Rank][col].sum += perf
		a[r.Rank][col].n++
	}

	out := make(map[ir.SnippetType]*Matrix, len(aggs))
	for typ, a := range aggs {
		m := &Matrix{Type: typ, Ranks: ranks, ColNs: colNs, Cells: make([][]float64, ranks)}
		filled := 0
		for r := 0; r < ranks; r++ {
			m.Cells[r] = make([]float64, cols)
			for c := 0; c < cols; c++ {
				if a[r][c].n == 0 {
					m.Cells[r][c] = math.NaN()
					continue
				}
				m.Cells[r][c] = a[r][c].sum / float64(a[r][c].n)
				filled++
			}
		}
		if ranks*cols > 0 {
			m.Coverage = float64(filled) / float64(ranks*cols)
		}
		out[typ] = m
	}
	return out
}

// Cols returns the number of time columns.
func (m *Matrix) Cols() int {
	if len(m.Cells) == 0 {
		return 0
	}
	return len(m.Cells[0])
}

// MeanPerf returns the mean performance over cells with data.
func (m *Matrix) MeanPerf() float64 {
	sum, n := 0.0, 0
	for _, row := range m.Cells {
		for _, v := range row {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// ---------- structure extraction ----------

// RankBand is a contiguous set of ranks with persistently low performance —
// the horizontal "white line" of the bad-node case study (Fig. 21).
type RankBand struct {
	First, Last int     // inclusive rank range
	MeanPerf    float64 // mean performance of the band's rows
}

// LowRankBands finds ranks whose mean row performance is below threshold in
// at least minFrac of their populated columns, merged into contiguous bands.
func (m *Matrix) LowRankBands(threshold, minFrac float64) []RankBand {
	low := make([]bool, m.Ranks)
	rowMean := make([]float64, m.Ranks)
	for r, row := range m.Cells {
		lowCells, dataCells := 0, 0
		sum := 0.0
		for _, v := range row {
			if math.IsNaN(v) {
				continue
			}
			dataCells++
			sum += v
			if v < threshold {
				lowCells++
			}
		}
		if dataCells > 0 {
			rowMean[r] = sum / float64(dataCells)
			low[r] = float64(lowCells)/float64(dataCells) >= minFrac
		}
	}
	var bands []RankBand
	for r := 0; r < m.Ranks; r++ {
		if !low[r] {
			continue
		}
		first := r
		sum := 0.0
		for r < m.Ranks && low[r] {
			sum += rowMean[r]
			r++
		}
		bands = append(bands, RankBand{First: first, Last: r - 1, MeanPerf: sum / float64(r-first)})
	}
	return bands
}

// TimeWindow is a contiguous span of time columns during which most ranks
// run slow — the vertical block of the network-degradation case (Fig. 22).
type TimeWindow struct {
	StartNs, EndNs int64
	MeanPerf       float64
}

// LowTimeWindows finds columns where at least rankFrac of populated ranks
// are below threshold, merged into contiguous windows. Columns with no
// data at all (sensors that fire sparsely relative to the resolution) do
// not break a window: they are bridged as long as the next populated
// column is low again.
func (m *Matrix) LowTimeWindows(threshold, rankFrac float64) []TimeWindow {
	cols := m.Cols()
	low := make([]bool, cols)
	hasData := make([]bool, cols)
	colMean := make([]float64, cols)
	for c := 0; c < cols; c++ {
		lowCells, dataCells := 0, 0
		sum := 0.0
		for r := 0; r < m.Ranks; r++ {
			v := m.Cells[r][c]
			if math.IsNaN(v) {
				continue
			}
			dataCells++
			sum += v
			if v < threshold {
				lowCells++
			}
		}
		if dataCells > 0 {
			hasData[c] = true
			colMean[c] = sum / float64(dataCells)
			low[c] = float64(lowCells)/float64(dataCells) >= rankFrac
		}
	}
	var wins []TimeWindow
	for c := 0; c < cols; c++ {
		if !low[c] {
			continue
		}
		first := c
		last := c
		sum := colMean[c]
		n := 1
		for j := c + 1; j < cols; j++ {
			if !hasData[j] {
				continue // bridge data-free gaps
			}
			if !low[j] {
				break
			}
			sum += colMean[j]
			n++
			last = j
		}
		c = last
		wins = append(wins, TimeWindow{
			StartNs:  int64(first) * m.ColNs,
			EndNs:    int64(last+1) * m.ColNs,
			MeanPerf: sum / float64(n),
		})
	}
	return wins
}

// Blocks finds rectangular low-performance regions bounded in both time and
// ranks (the injected-noise blocks of Fig. 20): for each low time window it
// reports the contiguous rank ranges that are low within it.
type Block struct {
	StartNs, EndNs      int64
	FirstRank, LastRank int
	MeanPerf            float64
}

// LowBlocks extracts rectangular variance regions.
func (m *Matrix) LowBlocks(threshold, minFrac float64) []Block {
	cols := m.Cols()
	var blocks []Block
	// Scan per rank for low runs, then merge adjacent ranks with
	// overlapping spans.
	type span struct{ a, b int }
	rankSpans := make([][]span, m.Ranks)
	for r := 0; r < m.Ranks; r++ {
		for c := 0; c < cols; c++ {
			v := m.Cells[r][c]
			if math.IsNaN(v) || v >= threshold {
				continue
			}
			start := c
			for c < cols && !math.IsNaN(m.Cells[r][c]) && m.Cells[r][c] < threshold {
				c++
			}
			if c-start >= 1 {
				rankSpans[r] = append(rankSpans[r], span{start, c})
			}
		}
	}
	used := make([]map[span]bool, m.Ranks)
	for r := range used {
		used[r] = make(map[span]bool)
	}
	overlap := func(x, y span) bool { return x.a < y.b && y.a < x.b }
	for r := 0; r < m.Ranks; r++ {
		for _, sp := range rankSpans[r] {
			if used[r][sp] {
				continue
			}
			used[r][sp] = true
			first, last := r, r
			lo, hi := sp.a, sp.b
			sum, n := 0.0, 0
			// Grow downward through adjacent ranks with overlapping spans.
			for rr := r + 1; rr < m.Ranks; rr++ {
				found := false
				for _, sp2 := range rankSpans[rr] {
					if !used[rr][sp2] && overlap(span{lo, hi}, sp2) {
						used[rr][sp2] = true
						if sp2.a < lo {
							lo = sp2.a
						}
						if sp2.b > hi {
							hi = sp2.b
						}
						last = rr
						found = true
						break
					}
				}
				if !found {
					break
				}
			}
			for rr := first; rr <= last; rr++ {
				for c := lo; c < hi && c < cols; c++ {
					v := m.Cells[rr][c]
					if !math.IsNaN(v) {
						sum += v
						n++
					}
				}
			}
			if n == 0 {
				continue
			}
			blk := Block{
				StartNs: int64(lo) * m.ColNs, EndNs: int64(hi) * m.ColNs,
				FirstRank: first, LastRank: last,
				MeanPerf: sum / float64(n),
			}
			// Require the block to be meaningfully sized.
			if float64(hi-lo) >= minFrac*float64(cols) || last-first >= 1 {
				blocks = append(blocks, blk)
			}
		}
	}
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].StartNs != blocks[j].StartNs {
			return blocks[i].StartNs < blocks[j].StartNs
		}
		return blocks[i].FirstRank < blocks[j].FirstRank
	})
	return blocks
}

// ---------- rendering ----------

// ASCII renders the matrix as a text heatmap: '#' best … '.' worst,
// ' ' for no data. Rows are ranks (downsampled to at most maxRows),
// columns time (downsampled to at most maxCols).
func (m *Matrix) ASCII(maxRows, maxCols int) string {
	if maxRows <= 0 {
		maxRows = 32
	}
	if maxCols <= 0 {
		maxCols = 80
	}
	cols := m.Cols()
	if cols == 0 {
		return "(empty matrix)\n"
	}
	rStep := (m.Ranks + maxRows - 1) / maxRows
	cStep := (cols + maxCols - 1) / maxCols
	ramp := []byte(".:-=+*%@#") // low → high performance
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s performance matrix: %d ranks x %d cols, %.2fms/col\n",
		m.Type, m.Ranks, cols, float64(m.ColNs)/1e6)
	for r := 0; r < m.Ranks; r += rStep {
		for c := 0; c < cols; c += cStep {
			sum, n := 0.0, 0
			for rr := r; rr < r+rStep && rr < m.Ranks; rr++ {
				for cc := c; cc < c+cStep && cc < cols; cc++ {
					if v := m.Cells[rr][cc]; !math.IsNaN(v) {
						sum += v
						n++
					}
				}
			}
			if n == 0 {
				sb.WriteByte(' ')
				continue
			}
			v := sum / float64(n)
			idx := int(v * float64(len(ramp)))
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			if idx < 0 {
				idx = 0
			}
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the matrix as comma-separated values with a header row of
// column start times in seconds; empty cells are blank.
func (m *Matrix) CSV() string {
	var sb strings.Builder
	cols := m.Cols()
	sb.WriteString("rank")
	for c := 0; c < cols; c++ {
		fmt.Fprintf(&sb, ",%.3f", float64(int64(c)*m.ColNs)/1e9)
	}
	sb.WriteByte('\n')
	for r := 0; r < m.Ranks; r++ {
		fmt.Fprintf(&sb, "%d", r)
		for c := 0; c < cols; c++ {
			if v := m.Cells[r][c]; math.IsNaN(v) {
				sb.WriteByte(',')
			} else {
				fmt.Fprintf(&sb, ",%.4f", v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
