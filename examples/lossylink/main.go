// Command lossylink demonstrates the fault-tolerant record transport: the
// same bad-node workload is run twice over the one record path, once with
// the link fault-free and once with the monitoring data itself crossing a
// lossy link — 20% frame drops, duplicates, reordering, bit corruption, an
// injected delivery delay, and one analysis-server crash-restart mid-run.
// Sequence-numbered, checksummed frames with bounded retry on the client
// and dedup on the server deliver every record exactly once; retry stalls
// are charged to the ranks' virtual clocks, so they show up as scattered
// single-slice outliers — but the bad node's sustained signal still
// dominates, and the server's coverage accounting proves nothing was
// silently lost.
package main

import (
	"fmt"
	"log"

	vsensor "vsensor"
	"vsensor/internal/obs"
	"vsensor/internal/scenario"
	"vsensor/internal/transport"
)

func main() {
	// The workload, the bad node and the fault plan are the registry's
	// scenario "lossylink-cg"; this program only compares three legs of it.
	const name = "lossylink-cg"
	sc, err := scenario.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	ranksPerNode, badNode, plan := sc.RanksPerNode, sc.Injections[0].Node, sc.Faults

	run := func(faults *transport.FaultPlan, lineage *obs.LineageConfig) *vsensor.Report {
		// Batch of 8 so ranks flush mid-run: retry and backoff delays on the
		// lossy link are charged to the ranks' virtual clocks while the job
		// is still executing, not just at the final drain.
		rep, _, err := vsensor.RunScenario(name, vsensor.Options{Faults: faults, Transport: &transport.Config{BatchSize: 8}, Lineage: lineage})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	// outliersByNode counts inter-process outlier flags per node; the node
	// with a sustained lag collects flags in slice after slice, while a
	// transient retry stall flags a rank for one slice only.
	outliersByNode := func(rep *vsensor.Report) map[int]int {
		nodes := map[int]int{}
		for _, o := range rep.Server.InterProcessOutliers(0.85) {
			nodes[o.Rank/ranksPerNode]++
		}
		return nodes
	}
	dominant := func(nodes map[int]int) (node, count int) {
		node = -1
		for n, c := range nodes {
			if c > count {
				node, count = n, c
			}
		}
		return node, count
	}

	clean := run(&transport.FaultPlan{}, nil) // the zero plan: same link, nothing injected
	cleanNodes := outliersByNode(clean)
	cn, cc := dominant(cleanNodes)
	fmt.Printf("fault-free link:      %.3f ms, %d records, top outlier node %d (%d flags)\n",
		clean.TotalSeconds()*1e3, len(clean.Server.Records()), cn, cc)

	lossy := run(plan, nil)
	lossyNodes := outliersByNode(lossy)
	ln, lc := dominant(lossyNodes)
	cov := lossy.Coverage()
	fmt.Printf("lossy record path:    %.3f ms, %d records, top outlier node %d (%d flags)\n",
		lossy.TotalSeconds()*1e3, len(lossy.Server.Records()), ln, lc)
	fmt.Printf("  fault plan: %s\n", plan)
	fmt.Printf("  coverage: %.1f%% (%d/%d records), %d dup frames absorbed, %d checksum rejects\n",
		cov.Fraction()*100, cov.IngestedRecords, cov.ExpectedRecords, cov.DupFrames, cov.ChecksumErrors)

	report := lossy.Server.InterProcessReport(0.85)
	fmt.Printf("  analysis confidence: %.3f over %d outlier flags\n",
		report.Confidence, len(report.Outliers))
	fmt.Printf("  flags per node: %v (retry stalls scatter noise; the bad node sustains)\n", lossyNodes)
	if ln == badNode {
		fmt.Printf("\nbad node %d still localized through the lossy link\n", badNode)
	} else {
		fmt.Printf("\nWARNING: bad node %d not dominant under the lossy link\n", badNode)
	}

	// Third leg: the same lossy run with record-lineage tracing sampling
	// 1 in 64 frames. Sampled frames carry their trace ID in the wire
	// format, so every hop — emit, enqueue, each delivery attempt and
	// retry, server ingest, dedup, WAL, epoch close, verdict — lands in
	// the flight recorder and can be replayed as a journey.
	traced := run(plan, &obs.LineageConfig{SampleEvery: 64, Seed: 7})
	traced.Server.InterProcessOutliers(0.85) // close epochs so journeys end in verdicts
	lin := traced.Lineage()
	st := lin.Stats()
	fmt.Printf("\nlineage leg: sampled %d frames (1 in %d), %d spans in flight recorder\n",
		st.SampledFrames, st.SampleEvery, st.Spans)

	spans, _ := lin.Snapshot(nil, 0)
	journeys := map[uint64]map[obs.Stage]bool{}
	for _, sp := range spans {
		m := journeys[sp.Trace]
		if m == nil {
			m = map[obs.Stage]bool{}
			journeys[sp.Trace] = m
		}
		m[sp.Stage] = true
	}
	deepTrace, deep := uint64(0), 0
	for tr, m := range journeys {
		if len(m) > deep {
			deepTrace, deep = tr, len(m)
		}
	}
	fmt.Printf("  %d sampled journeys; deepest (trace %016x) crossed %d distinct stages\n",
		len(journeys), deepTrace, deep)
	if top, ok := lin.StageHistogram(obs.StageIngest).TopExemplar(); ok {
		fmt.Printf("  slowest sampled ingest: trace %016x at %.0f ns — resolvable in /debug/flight\n",
			top.Trace, top.Value)
	}
}
