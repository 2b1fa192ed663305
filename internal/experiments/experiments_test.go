package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestShapes runs every experiment at tier-1 size, concurrently as Write
// does, and checks each named shape of the paper's result as its own subtest
// (TestShapes/fig21/one-band-at-the-bad-node).
func TestShapes(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			r, err := e.Measure(Small)
			if err != nil {
				t.Fatalf("experiment %s: %v", e.Name, err)
			}
			t.Logf("measured in %s: %s", time.Since(start).Round(time.Millisecond), r.Measured)
			if len(r.Shapes) == 0 {
				t.Errorf("experiment %s declares no shape", e.Name)
			}
			for _, s := range r.Shapes {
				t.Run(s.Name, func(t *testing.T) {
					if s.Err != nil {
						t.Errorf("experiment %s: shape %q does not hold: %v", e.Name, s.Name, s.Err)
					}
				})
			}
		})
	}
}

// TestGolden regenerates everything below the marker of EXPERIMENTS.md at
// full size and compares bytes: virtual time makes every number in it
// deterministic, so any difference is a behaviour change to name.
func TestGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full-size suite takes minutes under the race detector; TestShapes covers the same code at Small")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, recorded, ok := Split(string(doc))
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no marker line %q", Marker)
	}
	start := time.Now()
	var measured bytes.Buffer
	if err := Write(&measured, All, Full); err != nil {
		t.Fatal(err)
	}
	t.Logf("full-size suite regenerated in %s", time.Since(start).Round(time.Millisecond))
	got, want := strings.Split(measured.String(), "\n"), strings.Split(recorded, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of text>"
	}
	where := "the summary table" // whose rows each start with their experiment's name
	for i := 0; i < max(len(got), len(want)); i++ {
		g, w := line(got, i), line(want, i)
		if strings.HasPrefix(g, "## ") {
			where = "section \"" + g[3:] + "\""
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md no longer matches what the experiments measure; first difference in %s, generated line %d:\n"+
				"  recorded: %s\n  measured: %s\nif the change is intended, run `make experiments` and review the diff", where, i+1, w, g)
		}
	}
}
