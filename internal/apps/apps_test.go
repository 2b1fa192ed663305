package apps

import (
	"strings"
	"testing"

	"vsensor/internal/analysis"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

func TestAllAppsParseAndAnalyze(t *testing.T) {
	for _, app := range All(TestScale) {
		t.Run(app.Name, func(t *testing.T) {
			prog, err := ir.Build(minic.MustParse(app.Source))
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if errs := ir.Check(prog); len(errs) != 0 {
				t.Fatalf("%s: semantic diagnostics: %v", app.Name, errs)
			}
			res := analysis.Analyze(prog)
			if len(res.Snippets) == 0 {
				t.Fatal("no snippets found")
			}
			if len(res.GlobalSensors) == 0 {
				t.Fatal("no global sensors identified")
			}
			ins := instrument.Apply(res, instrument.Config{})
			if len(ins.Sensors) == 0 {
				t.Fatal("no sensors instrumented")
			}
			t.Logf("%s: LoC=%d snippets=%d sensors=%d global=%d instrumented=%s",
				app.Name, app.LoC(), len(res.Snippets), len(res.Sensors),
				len(res.GlobalSensors), ins.TypeSummary())
		})
	}
}

func instrumented(t *testing.T, name string) *instrument.Instrumented {
	t.Helper()
	app := MustGet(name, TestScale)
	prog, err := ir.Build(minic.MustParse(app.Source))
	if err != nil {
		t.Fatal(err)
	}
	return instrument.Apply(analysis.Analyze(prog), instrument.Config{})
}

func typeCounts(ins *instrument.Instrumented) map[ir.SnippetType]int {
	return ins.CountByType()
}

// BT and LU use iteration-dependent message sizes: no network sensor must
// survive, matching their Table 1 rows (computation sensors only).
func TestBTAndLUHaveNoNetworkSensors(t *testing.T) {
	for _, name := range []string{"BT", "LU"} {
		counts := typeCounts(instrumented(t, name))
		if counts[ir.Network] != 0 {
			t.Errorf("%s: network sensors = %d, want 0", name, counts[ir.Network])
		}
		if counts[ir.Computation] == 0 {
			t.Errorf("%s: no computation sensors", name)
		}
	}
}

// CG, FT, SP, LULESH, AMG and RAXML all keep at least one network sensor.
func TestNetworkSensorsPresent(t *testing.T) {
	for _, name := range []string{"CG", "FT", "SP", "LULESH", "AMG", "RAXML"} {
		counts := typeCounts(instrumented(t, name))
		if counts[ir.Network] == 0 {
			t.Errorf("%s: expected network sensors, got %v", name, counts)
		}
	}
}

// RAXML instruments the most sensors of the eight (277Comp+24Net in the
// paper); AMG's adaptive solve leaves the fewest relative to its size.
func TestSensorCountOrdering(t *testing.T) {
	counts := make(map[string]int)
	for _, name := range Names() {
		counts[name] = len(instrumented(t, name).Sensors)
	}
	if counts["RAXML"] < counts["AMG"] {
		t.Errorf("RAXML (%d) should instrument more sensors than AMG (%d)", counts["RAXML"], counts["AMG"])
	}
}

// AMG's smooth/restrict loops depend on the shrinking level size and must
// not be sensors; its setup phase provides the only sensors.
func TestAMGAdaptiveLoopsNotSensors(t *testing.T) {
	app := MustGet("AMG", TestScale)
	prog, err := ir.Build(minic.MustParse(app.Source))
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(prog)
	for _, s := range res.GlobalSensors {
		if s.Func.Name == "smooth" || s.Func.Name == "restrict_residual" {
			t.Errorf("adaptive %s snippet wrongly global: %s deps=%s", s.Func.Name, s.ID(), s.Deps)
		}
	}
	// The smooth() call inside the V-cycle while loop must not be a sensor
	// of that loop.
	for _, s := range res.Funcs["main"].Snippets {
		if s.Call != nil && s.Call.Callee == "smooth" && len(s.SensorOf) > 0 {
			t.Errorf("smooth(n) call should not be a sensor: %s", s.Deps)
		}
	}
}

// LULESH's hourglass_adaptive call depends on the adaptive region count.
func TestLULESHAdaptiveSnippetNotSensor(t *testing.T) {
	app := MustGet("LULESH", TestScale)
	prog, err := ir.Build(minic.MustParse(app.Source))
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(prog)
	for _, s := range res.Funcs["main"].Snippets {
		if s.Call != nil && s.Call.Callee == "hourglass_adaptive" {
			if len(s.SensorOf) > 0 || s.Global {
				t.Errorf("hourglass_adaptive must not be a sensor: deps=%s", s.Deps)
			}
			return
		}
	}
	t.Fatal("hourglass_adaptive call not found")
}

// BTIO is the extra NPB variant: it carries an IO sensor and stays out of
// the paper's eight-app table.
func TestBTIOExtra(t *testing.T) {
	for _, n := range Names() {
		if n == "BTIO" {
			t.Error("BTIO must not be in the paper's app set")
		}
	}
	foundExtra := false
	for _, n := range AllNames() {
		if n == "BTIO" {
			foundExtra = true
		}
	}
	if !foundExtra {
		t.Fatal("BTIO missing from AllNames")
	}
	counts := typeCounts(instrumented(t, "BTIO"))
	if counts[ir.IO] == 0 {
		t.Errorf("BTIO should have an IO sensor: %v", counts)
	}
	if counts[ir.Computation] == 0 {
		t.Errorf("BTIO should keep computation sensors: %v", counts)
	}
}

func TestScaleChangesSource(t *testing.T) {
	a := MustGet("CG", Scale{Iters: 5, Work: 10})
	b := MustGet("CG", Scale{Iters: 50, Work: 10})
	if a.Source == b.Source {
		t.Error("scale did not affect source")
	}
	if !strings.Contains(a.Source, "NITER = 5;") {
		t.Error("iters not substituted")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("NOPE", TestScale); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	a := MustGet("FT", Scale{})
	if !strings.Contains(a.Source, "NITER = 60;") {
		t.Error("default iters not applied")
	}
	if a.LoC() < 20 {
		t.Errorf("app metadata: loc=%d", a.LoC())
	}
}
