package vm

import (
	"fmt"
	"testing"
)

// Allocation ceilings of the closure engine. Both tests count mallocs over
// whole Machine.Run calls, so what they compare is how the count scales.

// TestRunAllocsIndependentOfIterations: a steady-state call of a
// value-returning user function allocates nothing — the return value rides
// in interp.ret, not in a heap-escaping *Value.
func TestRunAllocsIndependentOfIterations(t *testing.T) {
	allocs := func(iters int) float64 {
		prog := mustProg(t, fmt.Sprintf(`
func half(int x) float { return x / 2.0; }
func main() {
    float acc = 0.0;
    for (int i = 0; i < %d; i++) { acc = acc + half(i); }
}`, iters))
		m := New(prog, Config{Ranks: 1})
		return testing.AllocsPerRun(10, func() {
			if err := m.Run().Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(200), allocs(2000); a != b {
		t.Errorf("Run allocates %v times over 200 calls and %v over 2000: a user call allocates", a, b)
	}
}

// TestCompiledOncePerMachine: compiling costs the same whatever the rank
// count, and a rank's share of Run is a constant — no rank compiles
// anything.
func TestCompiledOncePerMachine(t *testing.T) {
	prog := mustProg(t, `
global int N = 3;
func sq(int x) int { return x * x; }
func main() {
    int s = 0;
    for (int i = 0; i < N; i++) { s = s + sq(i); }
}`)
	build := func(ranks int) float64 {
		return testing.AllocsPerRun(10, func() { New(prog, Config{Ranks: ranks}) })
	}
	if a, b := build(1), build(64); a != b {
		t.Errorf("New allocates %v times at 1 rank and %v at 64", a, b)
	}
	run := func(ranks int) float64 {
		m := New(prog, Config{Ranks: ranks})
		return testing.AllocsPerRun(10, func() {
			if err := m.Run().Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if lo, hi := run(2)-run(1), run(64)-run(63); lo != hi {
		t.Errorf("the 2nd rank adds %v allocations to Run, the 64th adds %v", lo, hi)
	}
}
