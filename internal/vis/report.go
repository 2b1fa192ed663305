package vis

import (
	"fmt"
	"sort"
	"strings"

	"vsensor/internal/ir"
)

// Finding is one diagnosed variance structure with its component
// attribution — the content of the paper's final "variance report"
// (workflow step 8): the time, the processes, and the component, in a
// coarse-grain fashion, leaving repair decisions to the user.
type Finding struct {
	Component ir.SnippetType
	Kind      FindingKind
	StartNs   int64
	EndNs     int64 // 0 for persistent (whole-run) findings
	FirstRank int
	LastRank  int
	MeanPerf  float64
}

// FindingKind classifies the shape of a variance structure.
type FindingKind int

// Finding kinds.
const (
	// BadRanks: a persistent low band of ranks — suspect bad node(s).
	BadRanks FindingKind = iota
	// DegradedPeriod: a time-bounded slowdown across (most) ranks —
	// suspect a shared resource (network, filesystem).
	DegradedPeriod
	// LocalizedBlock: bounded in both time and ranks — suspect external
	// interference on specific nodes (competing job, noise).
	LocalizedBlock
)

// String names the finding kind.
func (k FindingKind) String() string {
	switch k {
	case BadRanks:
		return "persistent-slow-ranks"
	case DegradedPeriod:
		return "degraded-period"
	case LocalizedBlock:
		return "localized-block"
	}
	return "?"
}

// Diagnosis thresholds.
const (
	// lowPerf is the normalized performance below which a cell is "low".
	lowPerf = 0.8
	// persistFrac is the fraction of a rank's populated columns that must
	// be low for a persistent band.
	persistFrac = 0.7
	// spanFrac is the fraction of populated ranks that must be low for a
	// degraded period.
	spanFrac = 0.8
)

// Diagnose extracts findings from per-type matrices, most structured
// first: persistent rank bands, then whole-width degraded periods, then
// localized blocks not already covered by the former two.
func Diagnose(mats map[ir.SnippetType]*Matrix) []Finding {
	var out []Finding
	types := make([]ir.SnippetType, 0, len(mats))
	for t := range mats {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })

	for _, typ := range types {
		m := mats[typ]
		bandRanks := make(map[int]bool)
		for _, b := range m.LowRankBands(lowPerf, persistFrac) {
			out = append(out, Finding{
				Component: typ, Kind: BadRanks,
				FirstRank: b.First, LastRank: b.Last, MeanPerf: b.MeanPerf,
			})
			for r := b.First; r <= b.Last; r++ {
				bandRanks[r] = true
			}
		}
		winSpans := make([][2]int64, 0)
		for _, w := range m.LowTimeWindows(lowPerf, spanFrac) {
			out = append(out, Finding{
				Component: typ, Kind: DegradedPeriod,
				StartNs: w.StartNs, EndNs: w.EndNs, MeanPerf: w.MeanPerf,
			})
			winSpans = append(winSpans, [2]int64{w.StartNs, w.EndNs})
		}
		for _, blk := range m.LowBlocks(lowPerf, 0.02) {
			covered := false
			if bandRanks[blk.FirstRank] && bandRanks[blk.LastRank] {
				covered = true
			}
			for _, ws := range winSpans {
				if blk.StartNs >= ws[0] && blk.EndNs <= ws[1] {
					covered = true
				}
			}
			if covered {
				continue
			}
			out = append(out, Finding{
				Component: typ, Kind: LocalizedBlock,
				StartNs: blk.StartNs, EndNs: blk.EndNs,
				FirstRank: blk.FirstRank, LastRank: blk.LastRank,
				MeanPerf: blk.MeanPerf,
			})
		}
	}
	return out
}

// RenderReport formats findings as the user-facing variance report.
// ranksPerNode, when positive, adds node attribution to rank bands.
func RenderReport(findings []Finding, ranksPerNode int) string {
	if len(findings) == 0 {
		return "no performance variance detected\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "performance variance report: %d finding(s)\n", len(findings))
	for i, f := range findings {
		fmt.Fprintf(&sb, "%2d. [%s] %s", i+1, f.Component, f.Kind)
		switch f.Kind {
		case BadRanks:
			fmt.Fprintf(&sb, ": ranks %d-%d persistently at %.0f%% of best performance",
				f.FirstRank, f.LastRank, f.MeanPerf*100)
			if ranksPerNode > 0 {
				fmt.Fprintf(&sb, " (node %d", f.FirstRank/ranksPerNode)
				if last := f.LastRank / ranksPerNode; last != f.FirstRank/ranksPerNode {
					fmt.Fprintf(&sb, "-%d", last)
				}
				sb.WriteString(")")
			}
		case DegradedPeriod:
			fmt.Fprintf(&sb, ": all ranks at %.0f%% during %.1f..%.1f ms",
				f.MeanPerf*100, float64(f.StartNs)/1e6, float64(f.EndNs)/1e6)
		case LocalizedBlock:
			fmt.Fprintf(&sb, ": ranks %d-%d at %.0f%% during %.1f..%.1f ms",
				f.FirstRank, f.LastRank, f.MeanPerf*100,
				float64(f.StartNs)/1e6, float64(f.EndNs)/1e6)
		}
		switch f.Component {
		case ir.Computation:
			if f.Kind == BadRanks {
				sb.WriteString(" -> suspect bad node hardware (CPU/memory)")
			} else {
				sb.WriteString(" -> suspect CPU contention / OS interference")
			}
		case ir.Network:
			sb.WriteString(" -> suspect network congestion or faults")
		case ir.IO:
			sb.WriteString(" -> suspect shared-filesystem interference")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
