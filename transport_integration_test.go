package vsensor_test

import (
	"testing"

	vsensor "vsensor"
	"vsensor/internal/cluster"
	"vsensor/internal/obs"
	"vsensor/internal/transport"
)

const lossySrc = `
func main() {
    for (int i = 0; i < 50; i++) {
        for (int k = 0; k < 8; k++) {
            mem(4000);
        }
        mpi_allreduce(64, 1.0);
    }
}`

func lossyCluster() *cluster.Cluster {
	cl := cluster.New(cluster.Config{Nodes: 4, RanksPerNode: 4})
	cl.SetNodeMemSpeed(2, 0.5)
	return cl
}

// The full pipeline over the fault-injectable transport: every injected
// outlier must still be detected, and coverage must account for every record
// the ranks sent.
func TestPipelineOverLossyTransport(t *testing.T) {
	plan := &transport.FaultPlan{
		Seed: 9, Drop: 0.25, Dup: 0.1, Reorder: 0.12, Corrupt: 0.05,
		CrashAfterFrames: 30, CrashDownFrames: 10,
	}
	rep, err := vsensor.Run(lossySrc, vsensor.Options{
		Ranks: 16, Cluster: lossyCluster(), Faults: plan, Transport: &transport.Config{BatchSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Link == nil {
		t.Fatal("Faults set but Report.Link is nil")
	}
	cov := rep.Coverage()
	if !cov.Complete() || cov.ExpectedRecords == 0 {
		t.Fatalf("coverage = %+v, want complete", cov)
	}
	if cov.DupFrames == 0 && cov.ChecksumErrors == 0 {
		t.Errorf("fault plan injected nothing? coverage = %+v", cov)
	}

	// The slow node's ranks (8-11) must dominate the inter-process outliers.
	report := rep.Server.InterProcessReport(0.85)
	if report.Confidence != 1 {
		t.Errorf("confidence = %v with complete coverage", report.Confidence)
	}
	byNode := map[int]int{}
	for _, o := range report.Outliers {
		byNode[o.Rank/4]++
	}
	if len(report.Outliers) == 0 {
		t.Fatal("no outliers detected over the lossy link")
	}
	best, bestN := -1, -1
	for n, c := range byNode {
		if c > bestN {
			best, bestN = n, c
		}
	}
	if best != 2 {
		t.Errorf("dominant outlier node = %d (counts %v), want the injected node 2", best, byNode)
	}
}

// There is one record path: a run with no Faults and no Transport still
// delivers over the link — the zero plan with default tuning — so it is
// indistinguishable from one that passes the empty config explicitly.
func TestDefaultPathIsTheZeroPlanLink(t *testing.T) {
	def, err := vsensor.Run(lossySrc, vsensor.Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := vsensor.Run(lossySrc, vsensor.Options{Ranks: 4, Transport: &transport.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*vsensor.Report{"Options{}": def, "Transport: &Config{}": explicit} {
		if rep.Link == nil {
			t.Fatalf("%s: instrumented run has no link", name)
		}
		if !rep.Link.Plan().Zero() {
			t.Errorf("%s: plan = %v, want zero", name, rep.Link.Plan())
		}
		if cov := rep.Coverage(); !cov.Complete() || cov.ExpectedRecords == 0 {
			t.Errorf("%s: coverage = %+v, want complete and non-empty", name, cov)
		}
	}
	if def.Result.TotalNs != explicit.Result.TotalNs {
		t.Errorf("TotalNs %d vs %d", def.Result.TotalNs, explicit.Result.TotalNs)
	}
	sameRecords(t, def.Server.Records(), explicit.Server.Records())
	if a, b := def.Link.Attempts(), explicit.Link.Attempts(); a != b || a == 0 {
		t.Errorf("link attempts %d vs %d, want equal and non-zero", a, b)
	}
	if a, b := def.Coverage(), explicit.Coverage(); a != b {
		t.Errorf("coverage %+v vs %+v", a, b)
	}
	if a, b := def.DataVolume(), explicit.DataVolume(); a != b {
		t.Errorf("data volume %d vs %d", a, b)
	}
}

// A tuned Transport config without faults rides the same link over a
// perfect network.
func TestTransportConfigWithoutFaults(t *testing.T) {
	rep, err := vsensor.Run(lossySrc, vsensor.Options{
		Ranks: 4, Transport: &transport.Config{BatchSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Link == nil {
		t.Fatal("Transport set but no link created")
	}
	if !rep.Link.Plan().Zero() {
		t.Errorf("plan = %v, want zero", rep.Link.Plan())
	}
	if cov := rep.Coverage(); !cov.Complete() || cov.ExpectedRecords == 0 {
		t.Errorf("coverage = %+v", cov)
	}
}

// Transport metrics and coverage gauges surface through the obs registry.
func TestTransportObsMetrics(t *testing.T) {
	o := obs.New()
	plan := &transport.FaultPlan{Seed: 4, Drop: 0.3, Corrupt: 0.05}
	rep, err := vsensor.Run(lossySrc, vsensor.Options{
		Ranks: 8, Cluster: lossyCluster(), Faults: plan, Transport: &transport.Config{BatchSize: 4}, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := scrape(t, o)
	for _, name := range []string{"transport_frames_total", "transport_acked_total", "transport_dropped_total"} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	if samples["transport_retries_total"] == 0 {
		t.Error("30% drop produced no retries in transport_retries_total")
	}
	cov := rep.Coverage()
	checkSamples(t, samples, map[string]int64{
		"server_records_expected": cov.ExpectedRecords,
		"server_records_ingested": cov.IngestedRecords,
	})
}
