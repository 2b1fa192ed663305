package experiments

import (
	"fmt"

	vsensor "vsensor"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/detect"
	"vsensor/internal/instrument"
	"vsensor/internal/transport"
)

// measureAblations sweeps the design choices of §4/§5 on mini-CG.
func measureAblations(size Size) (Result, error) {
	p := size.pick(sizing{4, apps.Scale{Iters: 10, Work: 20}}, sizing{16, apps.Scale{Iters: 60, Work: 60}})
	src := apps.MustGet("CG", p.scale).Source
	base, err := vsensor.Run(src, vsensor.Options{Ranks: p.ranks, Uninstrumented: true})
	if err != nil {
		return Result{}, fmt.Errorf("baseline: %w", err)
	}
	var s section
	type cost struct {
		sensors, records int
		overhead         float64
	}
	grows := func(a, b cost) bool {
		return a.sensors <= b.sensors && a.records <= b.records && a.overhead <= b.overhead
	}
	// instrumented runs one instrumentation config and renders its row.
	instrumented := func(label string, cfg instrument.Config) (cost, error) {
		rep, err := vsensor.Run(src, vsensor.Options{Ranks: p.ranks, CollectRecords: true, Instrument: cfg})
		if err != nil {
			return cost{}, fmt.Errorf("%s: %w", label, err)
		}
		c := cost{len(rep.Instrumented.Sensors), len(rep.Records), overheadOf(rep, base)}
		s.printf("| %s | %d | %d | %.2f%% |\n", label, c.sensors, c.records, c.overhead*100)
		return c, nil
	}

	// A1: deeper instrumentation, more sensors, more overhead.
	s.printf("### A1 — max-depth sweep (granularity rule)\n\n| MaxDepth | Sensors | Records | Overhead |\n|---|---|---|---|\n")
	var depths []cost
	a1 := true
	for _, depth := range [...][]int{Small: {1, 3}, Full: {1, 2, 3, 4}}[size] {
		c, err := instrumented(fmt.Sprint(depth), instrument.Config{MaxDepth: depth, KeepNested: true})
		if err != nil {
			return Result{}, err
		}
		a1 = a1 && (len(depths) == 0 || grows(depths[len(depths)-1], c))
		depths = append(depths, c)
	}
	deepest := depths[len(depths)-1]
	a1 = a1 && depths[0].records < deepest.records

	// A2: small slices admit OS noise as false positives (scenario
	// osnoise-cg: nothing but periodic kernel noise on a clean cluster).
	s.printf("\n### A2 — smoothing slice sweep (false positives from OS noise)\n\n")
	s.printf("| Slice | Variance events on a clean-but-noisy-OS cluster |\n|---|---|\n")
	var noise []int
	a2 := true
	for _, sliceNs := range []int64{10_000, 100_000, 1_000_000, 10_000_000} {
		_, rep, _, err := runScenario("osnoise-cg", [...]int{Small: 8, Full: 0}[size], vsensor.Options{Detect: detect.Config{SliceNs: sliceNs}})
		if err != nil {
			return Result{}, err
		}
		events := len(rep.Events())
		s.printf("| %dµs | %d |\n", sliceNs/1000, events)
		a2 = a2 && (len(noise) == 0 || events <= noise[len(noise)-1]) && (sliceNs < 1_000_000 || events == 0)
		noise = append(noise, events)
	}
	a2 = a2 && noise[0] > 0

	// A3: the nested-sensor rule.
	s.printf("\n### A3 — nested-sensor exclusion\n\n| Rule | Sensors | Records | Overhead |\n|---|---|---|---|\n")
	outer, err := instrumented("outermost only (paper)", instrument.Config{})
	if err != nil {
		return Result{}, err
	}
	nested, err := instrumented("keep nested", instrument.Config{KeepNested: true})
	if err != nil {
		return Result{}, err
	}

	// A4: batching.
	s.printf("\n### A4 — analysis-server batching\n\n| Batch | Messages | Bytes |\n|---|---|---|\n")
	var msgs, bytes [2]int64
	for i, batch := range []int{1, 64} {
		rep, err := vsensor.Run(src, vsensor.Options{Ranks: p.ranks, Transport: &transport.Config{BatchSize: batch}})
		if err != nil {
			return Result{}, fmt.Errorf("batch %d: %w", batch, err)
		}
		p := rep.Server.Progress()
		msgs[i], bytes[i] = p.Messages, p.Bytes
		s.printf("| %d | %d | %d |\n", batch, msgs[i], bytes[i])
	}

	// A5: the smoothing that suppresses OS noise also hides disturbances
	// much shorter than the slice, quantifying the paper's granularity
	// trade-off (§5.1: "vSensor focuses on more durable ... variance").
	// Monotone means: a disturbance one slice misses, every longer slice
	// misses; a slice that catches a disturbance catches every longer one.
	s.printf("\n### A5 — detectability of short disturbances vs smoothing slice\n\n")
	s.printf("| Disturbance | slice 100µs | slice 1000µs | slice 10000µs |\n|---|---|---|---|\n")
	mid, a5 := base.Result.TotalNs/2, true
	var hits [][]bool // [disturbance][slice]
	for i, durNs := range []int64{50_000, 500_000, 5_000_000} {
		s.printf("| %dµs |", durNs/1000)
		var row []bool
		for j, sliceNs := range []int64{100_000, 1_000_000, 10_000_000} {
			cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: p.ranks / 2})
			cl.AddCPUNoise(0, mid, mid+durNs, 0.1)
			rep, err := vsensor.Run(src, vsensor.Options{Ranks: p.ranks, Cluster: cl, Detect: detect.Config{SliceNs: sliceNs}})
			if err != nil {
				return Result{}, fmt.Errorf("%dµs disturbance, %dµs slice: %w", durNs/1000, sliceNs/1000, err)
			}
			hit := len(rep.Events()) > 0
			s.printf(" %s |", map[bool]string{true: "hit", false: "miss"}[hit])
			a5 = a5 && (j == 0 || row[j-1] || !hit) && (i == 0 || !hits[i-1][j] || hit)
			row = append(row, hit)
		}
		s.printf("\n")
		hits = append(hits, row)
	}
	s.printf("\nLonger slices suppress noise but miss disturbances shorter than the slice.\n")

	return Result{
		Measured: fmt.Sprintf("nested/deep sensors: records %d → %d, overhead %.1f%% → %.0f%%; OS-noise false positives %d @10µs → %d @1000µs; batching cuts messages %.0fx",
			outer.records, nested.records, outer.overhead*100, deepest.overhead*100, noise[0], noise[2], float64(msgs[0])/float64(msgs[1])),
		Section: s.String(),
		Shapes: []Shape{
			shape("a1-deeper-instruments-more", a1, "rows (sensors, records, overhead) %+v", depths),
			shape("a2-os-noise-false-positives-gone-by-1000us", a2, "events per slice 10µs..10ms: %v", noise),
			shape("a3-nested-sensors-cost-more", outer.sensors < nested.sensors && outer.records < nested.records && outer.overhead < nested.overhead,
				"outermost %+v, nested %+v", outer, nested),
			shape("a4-batching-cuts-messages", msgs[1] < msgs[0] && bytes[1] <= bytes[0], "messages %v, bytes %v for batch 1, 64", msgs, bytes),
			shape("a5-detectability-monotone-in-slice-and-duration", a5, "hit[disturbance][slice] = %v", hits),
		},
	}, nil
}
