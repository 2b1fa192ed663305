package vsensor_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	vsensor "vsensor"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/detect"
	"vsensor/internal/ir"
	"vsensor/internal/rundata"
	"vsensor/internal/server"
	"vsensor/internal/vis"
)

const facadeSrc = `
func main() {
    for (int i = 0; i < 60; i++) {
        for (int k = 0; k < 10; k++) {
            flops(5000);
        }
        mpi_allreduce(64, 1.0);
    }
}`

// SaveData writes what a later `vsensor report` needs to rebuild the
// verdict: an in-process run's sensors and records round-trip to the same
// findings, an uninstrumented run saves its shape alone, and a Connect run,
// whose records live on the service, is refused with nothing written.
func TestSaveDataRoundTrip(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 4})
	cl.SetNodeMemSpeed(1, 0.5)
	svc := serveTenant(t, server.NewSharded(0), nil)
	for _, tc := range []struct {
		name    string
		opt     vsensor.Options
		refused bool
	}{
		{name: "inproc", opt: vsensor.Options{Cluster: cl}},
		{name: "uninstrumented", opt: vsensor.Options{Uninstrumented: true}},
		{name: "connect", opt: vsensor.Options{Connect: svc.Addr().String(), RunID: "save"}, refused: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Ranks = 8
			rep, err := vsensor.Run(facadeSrc, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err = rep.SaveData(&buf)
			if tc.refused {
				if err == nil || buf.Len() != 0 {
					t.Fatalf("SaveData = %v after writing %d bytes, want refused with nothing written", err, buf.Len())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			d, err := rundata.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if d.Ranks != 8 || d.TotalNs != rep.Result.TotalNs {
				t.Errorf("metadata mismatch: %+v", d)
			}
			var want []detect.SliceRecord
			if rep.Server != nil {
				if want = rep.Server.Records(); len(want) == 0 {
					t.Fatal("the in-process run left no records to save")
				}
			}
			if len(d.Records) != len(want) || len(d.Sensors) != len(rep.SensorTypes()) {
				t.Errorf("saved %d records and %d sensors, want %d and %d",
					len(d.Records), len(d.Sensors), len(want), len(rep.SensorTypes()))
			}
			// The saved data regenerates the same findings as the live report.
			mats := vis.Build(d.Records, d.SensorTypes(), d.Ranks, (2 * time.Millisecond).Nanoseconds())
			saved := vis.Diagnose(mats)
			live := rep.Findings(2 * time.Millisecond)
			if len(saved) != len(live) {
				t.Errorf("findings differ: saved %d vs live %d", len(saved), len(live))
			}
		})
	}
}

func TestReportTextCleanRun(t *testing.T) {
	rep, err := vsensor.Run(facadeSrc, vsensor.Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	txt := rep.ReportText(2*time.Millisecond, 4)
	if !strings.Contains(txt, "no performance variance") {
		t.Errorf("clean run report:\n%s", txt)
	}
}

func TestReportTextBadNode(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 4, RanksPerNode: 2})
	cl.SetNodeCPUSpeed(2, 0.4)
	rep, err := vsensor.Run(facadeSrc, vsensor.Options{Ranks: 8, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	txt := rep.ReportText(2*time.Millisecond, 2)
	if !strings.Contains(txt, "ranks 4-5") || !strings.Contains(txt, "node 2") {
		t.Errorf("report:\n%s", txt)
	}
}

// Same-type merging (paper §5.2) is the per-type matrix: every network
// sensor's normalized slices land in one cell per rank and column, so a
// short congestion window shows as low Network columns across the ranks.
// The clean twin of the same run shows none.
func TestNetworkMatrixLocatesWindow(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 4})
	probe, err := vsensor.Run(facadeSrc, vsensor.Options{Ranks: 8, Cluster: cl, Uninstrumented: true})
	if err != nil {
		t.Fatal(err)
	}
	mid := probe.Result.TotalNs / 2
	windows := func(inject bool) []vis.TimeWindow {
		cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 4})
		if inject {
			cl.AddNetWindow(mid/2, mid*3/2, 0.2)
		}
		rep, err := vsensor.Run(facadeSrc, vsensor.Options{Ranks: 8, Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		m := rep.Matrices(500 * time.Microsecond)[ir.Network]
		if m == nil {
			t.Fatal("no network matrix")
		}
		return m.LowTimeWindows(0.8, 0.5)
	}
	if wins := windows(false); len(wins) != 0 {
		t.Errorf("clean run has low network windows: %+v", wins)
	}
	wins := windows(true)
	hit := false
	for _, w := range wins {
		if w.StartNs < mid*3/2 && w.EndNs > mid/2 {
			hit = true
		}
	}
	if !hit {
		t.Errorf("merged network matrix missed the window [%d, %d): %+v", mid/2, mid*3/2, wins)
	}
}

func TestRunScenarioOSNoise(t *testing.T) {
	rep, baseline, err := vsensor.RunScenario("osnoise-cg", vsensor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if baseline != nil {
		t.Error("permanent injection should not need a baseline run")
	}
	if rep.Result.TotalNs <= 0 || len(rep.Server.Records()) == 0 {
		t.Error("scenario run produced no data")
	}
}

func TestRunScenarioWindowed(t *testing.T) {
	rep, baseline, err := vsensor.RunScenario("iostorm-btio", vsensor.Options{Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if baseline == nil {
		t.Fatal("windowed scenario requires a baseline")
	}
	if rep.Result.TotalNs <= baseline.Result.TotalNs {
		t.Errorf("injected run should be slower: %d vs %d", rep.Result.TotalNs, baseline.Result.TotalNs)
	}
}

func TestRunScenarioUnknown(t *testing.T) {
	if _, _, err := vsensor.RunScenario("nope", vsensor.Options{}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if len(vsensor.ScenarioNames()) < 5 {
		t.Error("scenario names missing")
	}
}

// The §5.3 short-sensor rule end-to-end: a sensor whose executions are a
// few hundred nanoseconds gets disabled at runtime, and its records stop.
func TestShortSensorDisabledEndToEnd(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 500; i++) {
        for (int tiny = 0; tiny < 2; tiny++) {
            flops(20);
        }
        for (int big = 0; big < 50; big++) {
            flops(4000);
        }
    }
}`
	rep, err := vsensor.Run(src, vsensor.Options{
		Ranks:  1,
		Detect: detect.Config{DisableShortNs: 2_000, WarmupRecords: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Detectors[0]
	var tinyID, bigID = -1, -1
	for _, s := range rep.Instrumented.Sensors {
		if s.Snippet.Loop != nil && s.Snippet.Loop.IndVar == "tiny" {
			tinyID = s.ID
		}
		if s.Snippet.Loop != nil && s.Snippet.Loop.IndVar == "big" {
			bigID = s.ID
		}
	}
	if tinyID < 0 || bigID < 0 {
		t.Fatalf("sensors not found: %v", rep.Instrumented.Sensors)
	}
	if !d.Disabled(tinyID) {
		t.Error("tiny sensor not disabled at runtime")
	}
	if d.Disabled(bigID) {
		t.Error("big sensor wrongly disabled")
	}
	if d.Dropped() == 0 {
		t.Error("no records dropped after disabling")
	}
}

// MaxSteps propagates through the facade.
func TestFacadeMaxSteps(t *testing.T) {
	src := `func main() { while (1 == 1) { flops(1); } }`
	_, err := vsensor.Run(src, vsensor.Options{Ranks: 1, MaxSteps: 50_000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v", err)
	}
}

// Stdout propagates through the facade and is rank-tagged.
func TestFacadeStdout(t *testing.T) {
	var buf bytes.Buffer
	src := `func main() { print("hello", mpi_comm_rank()); }`
	if _, err := vsensor.Run(src, vsensor.Options{Ranks: 2, Stdout: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[rank 0] hello 0") || !strings.Contains(out, "[rank 1] hello 1") {
		t.Errorf("stdout:\n%s", out)
	}
}

// Dynamic rules end-to-end (§5.3): a sensor whose first half of the run
// executes with high cache miss (and commensurately slower) looks like
// variance without grouping; with miss-rate buckets each group is
// self-consistent except at the single phase boundary.
func TestDynamicRulesEndToEnd(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 4000; i++) {
        for (int k = 0; k < 10; k++) {
            flops(2000);
        }
    }
}`
	// Measure the clean per-iteration period to place the slow window.
	clean, err := vsensor.Run(src, vsensor.Options{Ranks: 1, CollectRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Records) < 4000 {
		t.Fatalf("records = %d", len(clean.Records))
	}
	period := clean.Records[1].Start - clean.Records[0].Start
	// Fast phase first (the §5.3 standard is the fastest record seen so
	// far, so only slowdowns relative to history are detectable).
	slowStart := 2000 * period

	missRate := func(rank, sensor int, execIdx int64) float64 {
		if execIdx >= 2000 {
			return 0.45 // high-miss phase
		}
		return 0.05
	}
	run := func(buckets []float64) int {
		cl := cluster.New(cluster.Config{Nodes: 1, RanksPerNode: 1})
		cl.AddCPUNoise(0, slowStart, int64(1)<<62, 0.6) // the high-miss phase runs slower
		rep, err := vsensor.Run(src, vsensor.Options{
			Ranks:    1,
			Cluster:  cl,
			MissRate: missRate,
			Detect:   detect.Config{SliceNs: 500_000, VarianceThreshold: 0.75, MissRateBuckets: buckets},
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(rep.Events())
	}
	plain := run(nil)
	grouped := run([]float64{0.2, 1.01})
	if plain < 5 {
		t.Fatalf("without grouping the high-miss phase should read as variance: %d", plain)
	}
	if grouped >= plain/2 {
		t.Errorf("grouping should remove most false variance: plain=%d grouped=%d", plain, grouped)
	}
}

// Two simultaneous problems — a bad node and a network congestion window —
// are separated by component and shape in one report.
func TestCombinedInjections(t *testing.T) {
	app := apps.MustGet("CG", apps.Scale{Iters: 200, Work: 200})
	mk := func() *cluster.Cluster {
		return cluster.New(cluster.Config{Nodes: 8, RanksPerNode: 4})
	}
	probe, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 32, Cluster: mk(), Uninstrumented: true})
	if err != nil {
		t.Fatal(err)
	}
	total := probe.Result.TotalNs

	cl := mk()
	cl.SetNodeMemSpeed(6, 0.5)                // ranks 24-27, persistent
	cl.AddNetWindow(total/3, 2*total/3, 0.15) // mid-run congestion
	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 32, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	findings := rep.Findings(2 * time.Millisecond)
	var compBand, netWindow bool
	for _, f := range findings {
		if f.Component == ir.Computation && f.Kind == vis.BadRanks && f.FirstRank <= 24 && f.LastRank >= 27 {
			compBand = true
		}
		if f.Component == ir.Network && (f.Kind == vis.DegradedPeriod || f.Kind == vis.LocalizedBlock) {
			netWindow = true
		}
	}
	if !compBand {
		t.Errorf("bad-node band missing from findings: %+v", findings)
	}
	if !netWindow {
		t.Errorf("network window missing from findings: %+v", findings)
	}
}

// Profile and Trace are wired into the one machine the run builds, so a
// run with both has one record sink and one event collector per rank: the
// record path is the plain run's bit for bit (a second, orphaned sink per
// rank would leave records unflushed), and each baseline sees exactly the
// events it sees alone.
func TestProfileTraceRunIsOnePipeline(t *testing.T) {
	run := func(profile, trace bool) *vsensor.Report {
		t.Helper()
		rep, err := vsensor.Run(facadeSrc, vsensor.Options{
			Ranks: 4, CollectRecords: true, Profile: profile, Trace: trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain, both := run(false, false), run(true, true)
	if both.Profiler == nil || both.Tracer == nil {
		t.Fatal("Profile+Trace run is missing a baseline")
	}
	if both.Result.TotalNs != plain.Result.TotalNs {
		t.Errorf("TotalNs %d, plain run %d", both.Result.TotalNs, plain.Result.TotalNs)
	}
	sameRecords(t, both.Server.Records(), plain.Server.Records())
	if cov := both.Coverage(); !cov.Complete() || cov != plain.Coverage() {
		t.Errorf("coverage %+v, plain run %+v", cov, plain.Coverage())
	}
	if a, b := both.Link.Attempts(), plain.Link.Attempts(); a != b {
		t.Errorf("link attempts %d, plain run %d", a, b)
	}
	if a, b := len(both.Records), len(plain.Records); a != b || a == 0 {
		t.Errorf("collected %d raw records, plain run %d", a, b)
	}
	for rank, d := range both.Detectors {
		if d == nil {
			t.Errorf("rank %d has no detector", rank)
		}
	}
	if a, b := len(both.TraceEvents()), len(run(false, true).TraceEvents()); a != b || a == 0 {
		t.Errorf("traced %d events, Trace-only run %d", a, b)
	}
	if a, b := both.Profiler.MeanMPISeconds(), run(true, false).Profiler.MeanMPISeconds(); a != b || a == 0 {
		t.Errorf("profiled %g MPI seconds, Profile-only run %g", a, b)
	}
}
