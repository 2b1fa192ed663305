package vsensor_test

import (
	"strings"
	"testing"

	vsensor "vsensor"
	"vsensor/internal/analysis"
	"vsensor/internal/apps"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
	"vsensor/internal/transport"
)

func TestPipelineQuickstart(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 30; i++) {
        for (int k = 0; k < 10; k++) {
            flops(5000);
        }
        mpi_allreduce(64, 1.0);
    }
}`
	rep, err := vsensor.Run(src, vsensor.Options{Ranks: 4, CollectRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Instrumented.Sensors) != 2 {
		t.Fatalf("sensors = %d", len(rep.Instrumented.Sensors))
	}
	if len(rep.Records) == 0 {
		t.Fatal("no records collected")
	}
	if rep.DataVolume() <= 0 {
		t.Error("no data shipped to analysis server")
	}
	if got, want := rep.TotalSeconds(), float64(rep.Result.TotalNs)/1e9; got != want || got <= 0 {
		t.Errorf("TotalSeconds = %v, want %v", got, want)
	}
	d := rep.Distribution()
	if d.Coverage() <= 0 || d.FrequencyHz() <= 0 {
		t.Errorf("coverage=%v freq=%v", d.Coverage(), d.FrequencyHz())
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := vsensor.Run("func main() {", vsensor.Options{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := vsensor.Run("func f() {}\nfunc f() {}", vsensor.Options{}); err == nil {
		t.Error("resolve error not surfaced")
	}
	if _, err := vsensor.Run("func main() { boom(); }", vsensor.Options{Ranks: 1}); err == nil {
		t.Error("runtime error not surfaced")
	}
}

// The detection is on-line: the analysis server accumulates data while the
// job is still running, so a monitoring loop can poll it mid-run
// (paper §2: reports update periodically, no need to wait for the job).
func TestOnlineMonitoringMidRun(t *testing.T) {
	app := apps.MustGet("CG", apps.Scale{Iters: 150, Work: 150})
	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 8, Transport: &transport.Config{BatchSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	recs, cursor, _, ok := rep.Server.Snapshot().RecordsWindow(0)
	if !ok || len(recs) == 0 || cursor != len(recs) {
		t.Fatalf("cursor API: %d records, cursor %d, ok %v", len(recs), cursor, ok)
	}
	if more, c2, _, ok := rep.Server.Snapshot().RecordsWindow(cursor); !ok || len(more) != 0 || c2 != cursor {
		t.Error("no new records expected after completion")
	}
	p := rep.Server.Progress()
	if p.Records != len(recs) || p.LatestSliceNs <= 0 {
		t.Errorf("progress = %+v", p)
	}
}

// Users can describe external functions (paper §3.5): an undescribed
// extern poisons its snippet; with a registered description the same call
// becomes a v-sensor.
func TestUserExternDescriptions(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 20; i++) {
        for (int k = 0; k < 5; k++) {
            my_library_kernel(256);
        }
    }
}`
	undescribed, err := vsensor.Analyze(src, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range undescribed.GlobalSensors {
		if s.Call != nil && s.Call.Callee == "my_library_kernel" {
			t.Fatal("undescribed extern must not be a sensor")
		}
	}

	ext := ir.DefaultExterns().Clone()
	ext.Register(ir.ExternDesc{
		Name: "my_library_kernel", Type: ir.Computation,
		Fixed: true, WorkArgs: []int{0},
	})
	prog, err := ir.BuildWithExterns(minic.MustParse(src), ext)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(prog)
	found := false
	for _, s := range res.GlobalSensors {
		if s.Call != nil && s.Call.Callee == "my_library_kernel" {
			found = true
		}
	}
	if !found {
		t.Fatal("described extern should be a global sensor")
	}
	// The full pipeline rejects running it (the VM has no implementation),
	// but analysis and instrumentation both work:
	ins := instrument.Apply(res, instrument.Config{})
	if len(ins.Sensors) == 0 {
		t.Error("described extern not instrumented")
	}
}

func TestEmitSourceViaFacade(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 10; i++) {
        for (int k = 0; k < 5; k++) {
            flops(100);
        }
    }
}`
	out, err := vsensor.InstrumentSource(src, analysis.Config{}, instrument.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vs_tick(0);") || !strings.Contains(out, "vs_tock(0);") {
		t.Errorf("instrumented source:\n%s", out)
	}
}
