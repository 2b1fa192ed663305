package experiments

import (
	"fmt"

	vsensor "vsensor"
	"vsensor/internal/ir"
	"vsensor/internal/profiler"
	"vsensor/internal/scenario"
	"vsensor/internal/vis"
)

// measureFig18 is the noise-injection study, scenario noiseinject-cg:
// mpiP-style profiles before and after injection (Figs. 18, 19), and the
// vSensor matrix that localizes the injected blocks (Fig. 20).
func measureFig18(size Size) (Result, error) {
	sc, rep, base, err := runScenario("noiseinject-cg", [...]int{Small: 32, Full: 0}[size], vsensor.Options{Profile: true})
	if err != nil {
		return Result{}, err
	}
	injected := injectedBlocks(sc, base.Result.TotalNs)
	m := rep.Matrices(column)[ir.Computation]
	blocks := m.LowBlocks(0.8, 0.02)
	mpi := rep.Profiler.MeanMPISeconds() / base.Profiler.MeanMPISeconds()
	comp := rep.Profiler.MeanCompSeconds() / base.Profiler.MeanCompSeconds()
	onInjected, onWaiting := mpiGrowth(base.Profiler, rep.Profiler, injected)

	var s section
	s.printf("| Run | Mean comp time | Mean MPI time | Total |\n|---|---|---|---|\n")
	for _, r := range []struct {
		label string
		*vsensor.Report
	}{{"normal (Fig. 18)", base}, {"noise-injected (Fig. 19)", rep}} {
		s.printf("| %s | %.3f ms | %.3f ms | %.3f ms |\n", r.label,
			r.Profiler.MeanCompSeconds()*1e3, r.Profiler.MeanMPISeconds()*1e3, r.TotalSeconds()*1e3)
	}
	s.printf("\nThe profiler shows times growing but not when the noise was injected, and\n")
	s.printf("waiting inflates MPI time on the wrong ranks: %.2fx on the ranks that were not\n", onWaiting)
	s.printf("injected, %.2fx on those that were — pointing at the network, not the CPUs.\n", onInjected)
	s.printf("\nInjected (scenario `noiseinject-cg`):\n\n")
	for _, b := range injected {
		s.printf("- ranks %d-%d during %.1f..%.1f ms (CPU at %.0f%%)\n", b.FirstRank, b.LastRank, ms(b.StartNs), ms(b.EndNs), b.MeanPerf*100)
	}
	s.printf("\nvSensor (Fig. 20) localizes %d variance blocks:\n\n", len(blocks))
	measured := fmt.Sprintf("profiler: MPI time ×%.2f, comp ×%.2f, no time axis; vSensor: %d blocks for %d injected", mpi, comp, len(blocks), len(injected))
	for _, b := range blocks {
		s.printf("- ranks %d-%d during %.1f..%.1f ms (mean perf %.2f)\n", b.FirstRank, b.LastRank, ms(b.StartNs), ms(b.EndNs), b.MeanPerf)
		measured += fmt.Sprintf(", ranks %d-%d @ %.0f..%.0f ms", b.FirstRank, b.LastRank, ms(b.StartNs), ms(b.EndNs))
	}
	s.printf("\n```\n%s```\n", m.ASCII(32, 72))

	// A block is located when it covers exactly the injected ranks and its
	// time span, which the matrix quantizes to columns, overlaps the
	// injected window and stays within one column of it.
	located, col := len(blocks) == len(injected), column.Nanoseconds()
	for i := 0; located && i < len(blocks); i++ {
		b, inj := blocks[i], injected[i]
		located = b.FirstRank == inj.FirstRank && b.LastRank == inj.LastRank &&
			b.StartNs >= inj.StartNs-col && b.EndNs <= inj.EndNs+col && b.StartNs < inj.EndNs && b.EndNs > inj.StartNs
	}
	return Result{Measured: measured, Section: s.String(), Shapes: []Shape{
		shape("profiler-mpi-grows-comp-within-10pct", mpi > 1.1 && comp > 0.9 && comp < 1.1, "MPI time ×%.3f, comp time ×%.3f", mpi, comp),
		shape("profiler-mpi-growth-lands-on-uninjected-ranks", onWaiting > 1.1 && onWaiting > onInjected,
			"MPI time ×%.3f on uninjected ranks, ×%.3f on injected ranks", onWaiting, onInjected),
		shape("blocks-inside-injected-windows", located, "blocks %+v, injected %+v", blocks, injected),
	}}, nil
}

// injectedBlocks resolves the scenario's node-CPU windows against the
// baseline and merges adjacent nodes sharing a window into rank × time
// blocks — what a perfect detector would report.
func injectedBlocks(sc *scenario.Scenario, baselineNs int64) []vis.Block {
	var out []vis.Block
	for _, inj := range sc.Injections {
		start, end := inj.Window(baselineNs)
		first, last := hosted(sc, inj.Node)
		if n := len(out); n > 0 && out[n-1].StartNs == start && out[n-1].EndNs == end && out[n-1].LastRank == first-1 {
			out[n-1].LastRank = last
			continue
		}
		out = append(out, vis.Block{StartNs: start, EndNs: end, FirstRank: first, LastRank: last, MeanPerf: inj.Factor})
	}
	return out
}

// hosted is the inclusive range of ranks a node of the scenario hosts.
func hosted(sc *scenario.Scenario, node int) (first, last int) {
	return node * sc.RanksPerNode, (node+1)*sc.RanksPerNode - 1
}

// mpiGrowth is noisy/clean total MPI time over the injected ranks and over
// the rest, who wait for them.
func mpiGrowth(clean, noisy *profiler.Profile, injected []vis.Block) (onInjected, onWaiting float64) {
	var sums [2][2]float64 // [injected?][clean, noisy]
	c, n := clean.Ranks(), noisy.Ranks()
	for i := range c {
		hit := 0
		for _, b := range injected {
			if c[i].Rank >= b.FirstRank && c[i].Rank <= b.LastRank {
				hit = 1
			}
		}
		sums[hit][0] += float64(c[i].MPINs)
		sums[hit][1] += float64(n[i].MPINs)
	}
	return sums[1][1] / sums[1][0], sums[0][1] / sums[0][0]
}

// measureFig21, scenario badnode-cg: one node's memory at 55% slows CG;
// vSensor shows a persistent low band at that node's ranks, and removing
// the node recovers ~20%.
func measureFig21(size Size) (Result, error) {
	sc, bad, _, err := runScenario("badnode-cg", [...]int{Small: 64, Full: 0}[size], vsensor.Options{})
	if err != nil {
		return Result{}, err
	}
	// "Removing the node" is the same job on the same cluster shape with
	// no injection.
	src, err := sc.Source()
	if err != nil {
		return Result{}, err
	}
	clean, err := sc.CleanCluster()
	if err != nil {
		return Result{}, err
	}
	good, err := vsensor.Run(src, vsensor.Options{Ranks: sc.Ranks, Cluster: clean})
	if err != nil {
		return Result{}, fmt.Errorf("without the bad node: %w", err)
	}
	inj := sc.Injections[0]
	first, last := hosted(sc, inj.Node)
	bands := bad.Matrices(column)[ir.Computation].LowRankBands(0.85, 0.5)
	outliers := bad.Server.InterProcessOutliers(0.85)
	outside := 0
	for _, o := range outliers {
		if o.Rank < first || o.Rank > last {
			outside++
		}
	}
	improvement := 1 - good.TotalSeconds()/bad.TotalSeconds()

	var s section
	s.printf("CG, %d ranks; node %d memory at %.0f%% (hosting ranks %d-%d).\n\n", sc.Ranks, inj.Node, inj.Factor*100, first, last)
	measured := fmt.Sprintf("bad node hosts ranks %d-%d; %d persistent band", first, last, len(bands))
	for _, b := range bands {
		s.printf("- detected persistent low band: ranks %d-%d (mean perf %.2f)\n", b.First, b.Last, b.MeanPerf)
		measured += fmt.Sprintf(", ranks %d-%d", b.First, b.Last)
	}
	s.printf("- inter-process analysis: %d outlier flags, %d of them outside ranks %d-%d\n", len(outliers), outside, first, last)
	s.printf("\n| Run | Time |\n|---|---|\n| with bad node | %.3f ms |\n| without | %.3f ms |\n", bad.TotalSeconds()*1e3, good.TotalSeconds()*1e3)
	s.printf("\nImprovement after removing the node: %.0f%%.\n", improvement*100)
	return Result{Measured: fmt.Sprintf("%s; %.0f%% improvement", measured, improvement*100), Section: s.String(), Shapes: []Shape{
		shape("one-band-at-the-bad-node", len(bands) == 1 && bands[0].First == first && bands[0].Last == last,
			"bands %+v, bad node hosts ranks %d-%d", bands, first, last),
		shape("outliers-within-the-bad-node", len(outliers) > 0 && outside == 0,
			"%d outlier flags, %d outside the bad node's ranks %d-%d", len(outliers), outside, first, last),
		shape("removing-the-node-recovers-15-25pct", improvement >= 0.15 && improvement <= 0.25,
			"%.3f ms → %.3f ms is %.1f%%", bad.TotalSeconds()*1e3, good.TotalSeconds()*1e3, improvement*100),
	}}, nil
}

// measureFig22, scenario congestion-ft: mid-run network degradation slows
// FT's all-to-all; the network matrix shows the window, computation stays
// clean.
func measureFig22(size Size) (Result, error) {
	sc, rep, base, err := runScenario("congestion-ft", [...]int{Small: 64, Full: 0}[size], vsensor.Options{})
	if err != nil {
		return Result{}, err
	}
	mats := rep.Matrices(column)
	net := mats[ir.Network].LowTimeWindows(0.7, 0.8)
	comp := len(mats[ir.Computation].LowTimeWindows(0.7, 0.8))
	onset, _ := sc.Injections[0].Window(base.Result.TotalNs)
	slowdown := rep.TotalSeconds() / base.TotalSeconds()

	var s section
	s.printf("FT, %d ranks. Normal %.3f ms, congested %.3f ms — **%.2fx slower**.\n", sc.Ranks, base.TotalSeconds()*1e3, rep.TotalSeconds()*1e3, slowdown)
	s.printf("Congestion injected from %.1f ms to the end.\n\n", ms(onset))
	for _, win := range net {
		s.printf("- network degradation window: %.1f..%.1f ms (mean perf %.2f)\n", ms(win.StartNs), ms(win.EndNs), win.MeanPerf)
	}
	s.printf("- computation matrix windows in the same period: %d (the network is the root cause)\n", comp)

	// The one window opens no earlier than the column the injection falls
	// in and at most two columns later (the all-to-all sensors leave
	// columns unpopulated), and runs to the end of the job.
	col := column.Nanoseconds()
	located := len(net) == 1 && net[0].StartNs > onset-col && net[0].StartNs <= onset+2*col && net[0].EndNs >= rep.Result.TotalNs-col
	return Result{
		Measured: fmt.Sprintf("**%.2fx** at %d ranks; low windows: %d in the Net matrix, %d in Comp", slowdown, sc.Ranks, len(net), comp),
		Section:  s.String(),
		Shapes: []Shape{
			shape("slowdown-within-3.0-3.8", slowdown >= 3.0 && slowdown <= 3.8, "%.3f ms → %.3f ms is %.2fx", base.TotalSeconds()*1e3, rep.TotalSeconds()*1e3, slowdown),
			shape("net-window-from-the-injection-to-the-end", located, "Net windows %+v, injected from %d ns, run ends at %d ns", net, onset, rep.Result.TotalNs),
			shape("no-window-in-comp", comp == 0, "%d low time windows in the Comp matrix", comp),
		},
	}, nil
}
