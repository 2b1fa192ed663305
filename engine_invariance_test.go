package vsensor_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	vsensor "vsensor"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/ir"
	"vsensor/internal/transport"
	"vsensor/internal/vis"
)

// Engine-invariance goldens: full pipeline runs (8 ranks, noisy cluster,
// batched record transport, detection) captured on the scope-map
// interpreter that the slot-resolved engine replaced. The simulation is
// deterministic, so the final virtual time, every aggregated server record
// (hashed), and the detection-event count must stay bit-identical across
// engine changes — this is the acceptance gate that the resolve→execute
// split is semantics-preserving end to end, not just on toy programs.
var invarianceGoldens = []struct {
	app         string
	totalNs     int64
	records     int
	recordsHash uint64
	events      int
}{
	{"CG", 975606, 48, 0xe74e7bf7da97c56a, 0},
	{"FT", 1794342, 80, 0x3191dcdd49e6988b, 0},
	{"LULESH", 2217391, 113, 0xf031003a0496893a, 1},
	{"AMG", 1846136, 32, 0xbd784018a9504cec, 1},
}

func TestEngineInvariance(t *testing.T) {
	for _, tc := range invarianceGoldens {
		t.Run(tc.app, func(t *testing.T) {
			app := apps.MustGet(tc.app, apps.Scale{Iters: 12, Work: 25})
			cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 4, Seed: 7, JitterPct: 0.02})
			cl.SetOSNoise(150_000, 15_000, 0.25)
			cl.AddCPUNoise(1, 200_000, 900_000, 0.35)
			rep, err := vsensor.Run(app.Source, vsensor.Options{
				Ranks: 8, Cluster: cl, Seed: 42, PMUJitterPct: 0.004, Transport: &transport.Config{BatchSize: 32},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result.TotalNs != tc.totalNs {
				t.Errorf("TotalNs = %d, want %d (virtual time is no longer invariant)", rep.Result.TotalNs, tc.totalNs)
			}
			recs := rep.Server.Records()
			if len(recs) != tc.records {
				t.Errorf("server records = %d, want %d", len(recs), tc.records)
			}
			h := fnv.New64a()
			for _, r := range recs {
				fmt.Fprintf(h, "%d|%d|%d|%d|%d|%.9g|%.9g;", r.Sensor, r.Group, r.Rank, r.SliceNs, r.Count, r.AvgNs, r.AvgInstr)
			}
			if got := h.Sum64(); got != tc.recordsHash {
				t.Errorf("records hash = %#x, want %#x", got, tc.recordsHash)
			}
			if got := len(rep.Events()); got != tc.events {
				t.Errorf("detection events = %d, want %d", got, tc.events)
			}
		})
	}
}

// TestRunCG256Golden is the benchmark's run-cg256 oracle in tier-1: source
// text in, findings out, on the full-size mini-CG with one slow-memory
// node. The virtual time and both record counts are the goldens
// benchmark/runcg.go checks every trial against; an engine change that
// moves one cost-model call fails here before the pipeline runs.
func TestRunCG256Golden(t *testing.T) {
	const ranks, perNode, badNode = 256, 8, 3
	app, err := apps.Get("CG", apps.Scale{Iters: 100, Work: 100})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Config{Nodes: ranks / perNode, RanksPerNode: perNode})
	cl.SetNodeMemSpeed(badNode, 0.55)
	prog, err := vsensor.Compile(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := vsensor.RunProgram(prog, vsensor.Options{Ranks: ranks, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Result.Err(); err != nil {
		t.Fatal(err)
	}
	sensorRecords := 0
	for _, rs := range rep.Result.Ranks {
		sensorRecords += rs.Records
	}
	serverRecords := len(rep.Server.Records())
	if rep.Result.TotalNs != 18_228_914 || sensorRecords != 153_600 || serverRecords != 29_184 {
		t.Errorf("virtual time %d ns, %d sensor records, %d server records; golden 18228914, 153600, 29184",
			rep.Result.TotalNs, sensorRecords, serverRecords)
	}
	if cov := rep.Coverage(); !cov.Complete() || cov.IngestedRecords != int64(serverRecords) {
		t.Errorf("coverage %d/%d with %d records in the report", cov.IngestedRecords, cov.ExpectedRecords, serverRecords)
	}
	findings := rep.Findings(2 * time.Millisecond)
	if len(findings) != 1 {
		t.Fatalf("%d findings, want exactly one: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Component != ir.Computation || f.Kind != vis.BadRanks || f.FirstRank != badNode*perNode || f.LastRank != (badNode+1)*perNode-1 {
		t.Errorf("finding [%s] %s ranks %d-%d, want [Comp] persistent-slow-ranks ranks %d-%d",
			f.Component, f.Kind, f.FirstRank, f.LastRank, badNode*perNode, (badNode+1)*perNode-1)
	}
}
