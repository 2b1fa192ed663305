package vis

import (
	"strings"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/ir"
)

func TestDiagnoseBadRanks(t *testing.T) {
	recs := synth(16, 20, 1_000_000, func(r, c int) float64 {
		if r >= 4 && r <= 5 {
			return 200
		}
		return 100
	})
	mats := Build(recs, compOnly, 16, 1_000_000)
	fs := Diagnose(mats)
	if len(fs) != 1 || fs[0].Kind != BadRanks {
		t.Fatalf("findings = %+v", fs)
	}
	if fs[0].FirstRank != 4 || fs[0].LastRank != 5 {
		t.Errorf("band = %+v", fs[0])
	}
	out := RenderReport(fs, 4)
	if !strings.Contains(out, "ranks 4-5") || !strings.Contains(out, "node 1") {
		t.Errorf("report:\n%s", out)
	}
	if !strings.Contains(out, "bad node hardware") {
		t.Errorf("computation band should suspect hardware:\n%s", out)
	}
}

func TestDiagnoseDegradedPeriod(t *testing.T) {
	netOnly := map[int]ir.SnippetType{0: ir.Network}
	recs := synth(8, 20, 1_000_000, func(r, c int) float64 {
		if c >= 10 && c <= 14 {
			return 500
		}
		return 100
	})
	mats := Build(recs, netOnly, 8, 1_000_000)
	fs := Diagnose(mats)
	if len(fs) != 1 || fs[0].Kind != DegradedPeriod || fs[0].Component != ir.Network {
		t.Fatalf("findings = %+v", fs)
	}
	out := RenderReport(fs, 0)
	if !strings.Contains(out, "network congestion") {
		t.Errorf("report:\n%s", out)
	}
}

func TestDiagnoseLocalizedBlock(t *testing.T) {
	recs := synth(16, 30, 1_000_000, func(r, c int) float64 {
		if r >= 2 && r <= 4 && c >= 10 && c <= 15 {
			return 300
		}
		return 100
	})
	mats := Build(recs, compOnly, 16, 1_000_000)
	fs := Diagnose(mats)
	if len(fs) != 1 || fs[0].Kind != LocalizedBlock {
		t.Fatalf("findings = %+v", fs)
	}
	out := RenderReport(fs, 0)
	if !strings.Contains(out, "CPU contention") {
		t.Errorf("report:\n%s", out)
	}
}

// A block already explained by a degraded period is not double-reported.
func TestDiagnoseDeduplicates(t *testing.T) {
	recs := synth(8, 20, 1_000_000, func(r, c int) float64 {
		if c >= 5 && c <= 8 {
			return 400
		}
		return 100
	})
	mats := Build(recs, compOnly, 8, 1_000_000)
	fs := Diagnose(mats)
	kinds := map[FindingKind]int{}
	for _, f := range fs {
		kinds[f.Kind]++
	}
	if kinds[DegradedPeriod] != 1 || kinds[LocalizedBlock] != 0 {
		t.Errorf("findings = %+v", fs)
	}
}

func TestRenderReportEmpty(t *testing.T) {
	out := RenderReport(nil, 0)
	if !strings.Contains(out, "no performance variance") {
		t.Errorf("report: %s", out)
	}
}

func TestDiagnoseIOComponent(t *testing.T) {
	ioOnly := map[int]ir.SnippetType{0: ir.IO}
	var recs []detect.SliceRecord
	for r := 0; r < 4; r++ {
		for c := 0; c < 10; c++ {
			avg := 100.0
			if c >= 4 && c <= 6 {
				avg = 300
			}
			recs = append(recs, detect.SliceRecord{Sensor: 0, Rank: r, SliceNs: int64(c) * 1_000_000, Count: 1, AvgNs: avg})
		}
	}
	mats := Build(recs, ioOnly, 4, 1_000_000)
	fs := Diagnose(mats)
	out := RenderReport(fs, 0)
	if !strings.Contains(out, "shared-filesystem") {
		t.Errorf("report:\n%s", out)
	}
}

func TestFindingKindString(t *testing.T) {
	if BadRanks.String() == "?" || DegradedPeriod.String() == "?" || LocalizedBlock.String() == "?" {
		t.Error("kind names missing")
	}
}
