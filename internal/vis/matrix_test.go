package vis

import (
	"math"
	"strings"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/ir"
)

// synth builds slice records for a matrix: perf maps (rank, col) to an
// average duration; base is the fastest duration.
func synth(ranks, cols int, colNs int64, dur func(rank, col int) float64) []detect.SliceRecord {
	var recs []detect.SliceRecord
	for r := 0; r < ranks; r++ {
		for c := 0; c < cols; c++ {
			d := dur(r, c)
			if d <= 0 {
				continue
			}
			recs = append(recs, detect.SliceRecord{
				Sensor: 0, Rank: r, SliceNs: int64(c) * colNs, Count: 10, AvgNs: d,
			})
		}
	}
	return recs
}

var compOnly = map[int]ir.SnippetType{0: ir.Computation}

func TestBuildNormalization(t *testing.T) {
	// Rank 1 runs 2x slower everywhere.
	recs := synth(4, 10, 1_000_000, func(r, c int) float64 {
		if r == 1 {
			return 200
		}
		return 100
	})
	ms := Build(recs, compOnly, 4, 1_000_000)
	m := ms[ir.Computation]
	if m == nil {
		t.Fatal("no computation matrix")
	}
	if m.Cols() != 10 {
		t.Fatalf("cols = %d", m.Cols())
	}
	if v := m.Cells[0][0]; v != 1.0 {
		t.Errorf("fast rank perf = %v", v)
	}
	if v := m.Cells[1][3]; v != 0.5 {
		t.Errorf("slow rank perf = %v", v)
	}
	if m.Coverage != 1.0 {
		t.Errorf("coverage = %v", m.Coverage)
	}
}

func TestEmptyCellsNaN(t *testing.T) {
	recs := synth(2, 4, 1_000_000, func(r, c int) float64 {
		if r == 0 && c == 2 {
			return 0 // missing
		}
		return 50
	})
	m := Build(recs, compOnly, 2, 1_000_000)[ir.Computation]
	if !math.IsNaN(m.Cells[0][2]) {
		t.Error("missing cell should be NaN")
	}
	if m.Coverage >= 1.0 {
		t.Errorf("coverage = %v", m.Coverage)
	}
}

func TestLowRankBands(t *testing.T) {
	// Ranks 5..7 are persistently slow: a bad-node band (Fig. 21 shape).
	recs := synth(16, 20, 1_000_000, func(r, c int) float64 {
		if r >= 5 && r <= 7 {
			return 180
		}
		return 100
	})
	m := Build(recs, compOnly, 16, 1_000_000)[ir.Computation]
	bands := m.LowRankBands(0.8, 0.9)
	if len(bands) != 1 {
		t.Fatalf("bands = %+v", bands)
	}
	if bands[0].First != 5 || bands[0].Last != 7 {
		t.Errorf("band = %+v", bands[0])
	}
	if bands[0].MeanPerf > 0.6 {
		t.Errorf("band mean perf = %v", bands[0].MeanPerf)
	}
}

func TestLowTimeWindows(t *testing.T) {
	// Columns 8..12 are slow on every rank: a network window (Fig. 22).
	recs := synth(8, 20, 1_000_000, func(r, c int) float64 {
		if c >= 8 && c <= 12 {
			return 400
		}
		return 100
	})
	m := Build(recs, compOnly, 8, 1_000_000)[ir.Computation]
	wins := m.LowTimeWindows(0.8, 0.9)
	if len(wins) != 1 {
		t.Fatalf("windows = %+v", wins)
	}
	if wins[0].StartNs != 8_000_000 || wins[0].EndNs != 13_000_000 {
		t.Errorf("window = %+v", wins[0])
	}
}

func TestLowBlocks(t *testing.T) {
	// Two injected-noise blocks (Fig. 20 shape): ranks 2-4 during cols 5-8,
	// ranks 10-12 during cols 14-17.
	recs := synth(16, 24, 1_000_000, func(r, c int) float64 {
		if r >= 2 && r <= 4 && c >= 5 && c <= 8 {
			return 300
		}
		if r >= 10 && r <= 12 && c >= 14 && c <= 17 {
			return 300
		}
		return 100
	})
	m := Build(recs, compOnly, 16, 1_000_000)[ir.Computation]
	blocks := m.LowBlocks(0.8, 0.05)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
	b0, b1 := blocks[0], blocks[1]
	if b0.FirstRank != 2 || b0.LastRank != 4 || b0.StartNs != 5_000_000 {
		t.Errorf("block 0 = %+v", b0)
	}
	if b1.FirstRank != 10 || b1.LastRank != 12 || b1.StartNs != 14_000_000 {
		t.Errorf("block 1 = %+v", b1)
	}
}

func TestCleanMatrixNoStructures(t *testing.T) {
	recs := synth(8, 20, 1_000_000, func(r, c int) float64 { return 100 })
	m := Build(recs, compOnly, 8, 1_000_000)[ir.Computation]
	if bands := m.LowRankBands(0.8, 0.5); len(bands) != 0 {
		t.Errorf("clean matrix has bands: %+v", bands)
	}
	if wins := m.LowTimeWindows(0.8, 0.5); len(wins) != 0 {
		t.Errorf("clean matrix has windows: %+v", wins)
	}
	if mp := m.MeanPerf(); mp < 0.99 {
		t.Errorf("mean perf = %v", mp)
	}
}

func TestRenderers(t *testing.T) {
	recs := synth(4, 6, 1_000_000, func(r, c int) float64 {
		if r == 2 {
			return 250
		}
		return 100
	})
	m := Build(recs, compOnly, 4, 1_000_000)[ir.Computation]

	ascii := m.ASCII(8, 40)
	if !strings.Contains(ascii, "Comp performance matrix") || len(strings.Split(ascii, "\n")) < 4 {
		t.Errorf("ascii:\n%s", ascii)
	}

	csv := m.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "rank,") {
		t.Errorf("csv:\n%s", csv)
	}
	if !strings.Contains(lines[3], "0.4") { // rank 2 ≈ 0.4 perf
		t.Errorf("slow rank row: %s", lines[3])
	}
}

// Same-type merging (paper §5.2): sensors 1 and 2 are both Network, so a
// cell is the mean of their normalized slices, each against its own best.
// Build skips sensor 99, which has no type, and a zero average, which is no
// measurement.
func TestMultiTypeSeparation(t *testing.T) {
	types := map[int]ir.SnippetType{0: ir.Computation, 1: ir.Network, 2: ir.Network}
	var recs []detect.SliceRecord
	for c := 0; c < 5; c++ {
		at := int64(c) * 1_000_000
		net2 := 450.0
		if c == 4 {
			net2 = 900 // sensor 2 at half its best in the last column
		}
		recs = append(recs,
			detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: at, Count: 1, AvgNs: 100},
			detect.SliceRecord{Sensor: 1, Rank: 0, SliceNs: at, Count: 1, AvgNs: 900},
			detect.SliceRecord{Sensor: 2, Rank: 0, SliceNs: at + 500_000, Count: 1, AvgNs: net2},
			detect.SliceRecord{Sensor: 99, Rank: 0, SliceNs: at, Count: 1, AvgNs: 5000},
			detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: at, Count: 1, AvgNs: 0},
		)
	}
	ms := Build(recs, types, 1, 1_000_000)
	if len(ms) != 2 || ms[ir.Computation] == nil || ms[ir.Network] == nil {
		t.Fatalf("matrices = %v", ms)
	}
	// Each type normalizes independently: both are at their own best.
	if v := ms[ir.Computation].Cells[0][0]; v != 1.0 {
		t.Errorf("comp perf = %v", v)
	}
	if v := ms[ir.Network].Cells[0][0]; v != 1.0 {
		t.Errorf("net perf = %v", v)
	}
	if v := ms[ir.Network].Cells[0][4]; v != 0.75 {
		t.Errorf("merged net perf = %v, want mean(1.0, 0.5) = 0.75", v)
	}
}
