package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsensor/internal/experiments"
)

func stub(name string, shapeErr, measureErr error) experiments.Experiment {
	return experiments.Experiment{Name: name, Title: "Stub " + name, Paper: "p", Measure: func(experiments.Size) (experiments.Result, error) {
		return experiments.Result{Measured: "cell", Section: "body\n", Shapes: []experiments.Shape{{Name: "first"}, {Name: "second", Err: shapeErr}}}, measureErr
	}}
}

func vsexp(table []experiments.Experiment, args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, table, &o, &e)
	return code, o.String(), e.String()
}

// The "Shape holds" cell is computed: one false shape turns it to NO and
// names the shape. -exp renders that experiment alone.
func TestRendersSelectedExperimentsWithComputedCells(t *testing.T) {
	table := []experiments.Experiment{stub("ok", nil, nil), stub("off", errors.New("measured 7"), nil)}
	okRow, offRow := "| `ok` | p | cell | yes (2) |", "| `off` | p | cell | **NO**: second |"
	_, all, _ := vsexp(table)
	code, one, errOut := vsexp(table, "-exp", "off")
	if code != 0 || errOut != "" {
		t.Fatalf("-exp off: exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{offRow, "## Stub off\n\nPaper: p.\n\nbody\n"} {
		if !strings.Contains(all, want) || !strings.Contains(one, want) {
			t.Errorf("output lacks %q:\n%s\n-exp off:\n%s", want, all, one)
		}
	}
	if !strings.Contains(all, okRow) || strings.Contains(one, okRow) || strings.Contains(one, "## Stub ok") {
		t.Errorf("-exp off did not select exactly one experiment:\n%s\n-exp off:\n%s", all, one)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	code, out, errOut := vsexp(experiments.All, "-exp", "fig20")
	if code != 2 || out != "" || !strings.Contains(errOut, `unknown experiment "fig20"`) || !strings.Contains(errOut, "fig18") {
		t.Errorf("unknown -exp: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if code, _, errOut := vsexp(experiments.All, "-big"); code != 2 || !strings.Contains(errOut, "flag provided but not defined") {
		t.Errorf("removed flag -big: exit %d, stderr %q", code, errOut)
	}
}

// A failing experiment is an error on stderr and exit 1 — never text in
// the Markdown — and leaves the -out target exactly as it was.
func TestFailingExperimentExits1AndKeepsTheOutFile(t *testing.T) {
	table := []experiments.Experiment{stub("ok", nil, nil), stub("bad", nil, errors.New("boom"))}
	if code, out, errOut := vsexp(table); code != 1 || out != "" || !strings.Contains(errOut, "vsexp: bad: boom") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	before := "prose\n" + experiments.Marker + "\nrecorded\n"
	if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := vsexp(table, "-out", path); code != 1 {
		t.Errorf("exit %d with -out", code)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != before {
		t.Errorf("failing run changed the -out file: %q (%v)", after, err)
	}
	if left, _ := filepath.Glob(path + "*"); len(left) != 1 {
		t.Errorf("temporary file left behind: %v", left)
	}
}

func TestOutReplacesOnlyTheGeneratedPart(t *testing.T) {
	table := []experiments.Experiment{stub("ok", nil, nil)}
	_, generated, _ := vsexp(table)
	head := "hand-written prose\n" + experiments.Marker + "\n"
	for name, c := range map[string]struct{ before, after string }{
		"marker":    {head + "stale numbers\n", head + generated},
		"rerun":     {head + generated, head + generated},
		"no marker": {"some other file\n", generated},
		"new file":  {"", generated},
	} {
		path := filepath.Join(t.TempDir(), "out.md")
		if c.before != "" {
			if err := os.WriteFile(path, []byte(c.before), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if code, out, errOut := vsexp(table, "-out", path); code != 0 || out != "" || errOut != "" {
			t.Fatalf("%s: exit %d, stdout %q, stderr %q", name, code, out, errOut)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != c.after {
			t.Errorf("%s: file is %q (%v), want %q", name, got, err, c.after)
		}
	}
	if code, _, errOut := vsexp(table, "-out", t.TempDir()); code != 1 || errOut == "" {
		t.Errorf("-out <directory>: exit %d, stderr %q", code, errOut)
	}
}
