package vm

import (
	"reflect"
	"runtime"
	"testing"

	"vsensor/internal/apps"
)

// orderSensitiveReductions prints reductions whose contributions mix
// magnitudes, so a sum taken in arrival order rather than rank order moves
// their low bits, and feeds one back into the next trip's work.
const orderSensitiveReductions = `
func main() {
    int r = mpi_comm_rank();
    float acc = 0.1 * (r + 1);
    for (int it = 0; it < 40; it++) {
        acc = mpi_allreduce(8, acc / 3.0 + r * 1000000.7) / 8.0;
        print(it, acc, mpi_reduce(0, 8, 0.3 * it + r / 7.0));
        if (acc - 3500000 * it > 0) { flops(it); }
    }
}`

// staggeredEntries reaches one tape from a different pending sum on every
// rank, after interpreted work that grows with the rank: under one
// processor the first goroutine started gets there first, under two the
// rank with the least work usually does. A segment cache whose contents
// depended on which rank filled it would differ between the two.
const staggeredEntries = `
func kernel(int n) {
    for (int i = 0; i < n; i++) { flops(9); mem(4); }
}
func main() {
    int r = mpi_comm_rank();
    float x = 0.0;
    for (int k = 0; k < r * 3000; k++) { x = x + 1.0; }
    for (int it = 0; it < 4; it++) {
        flops(r * 11 + it);
        kernel(150);
    }
    print(x);
}`

// TestScheduleDeterminism: a run is a function of its program and its
// configuration, never of how the Go scheduler interleaves the rank
// goroutines. Each program runs plain and instrumented on 8 ranks under
// GOMAXPROCS 1 and 2, and the two runs must agree bit for bit: every RankStats field
// (virtual end time, NetNs, PMU instruction total, record count), each
// rank's record and event stream and what it printed. The programs are the
// apps at TestScale, the charge-tape rows, several of them entered from
// rank-dependent pending sums into one shared segment cache, and reductions
// whose sums depend on their order.
func TestScheduleDeterminism(t *testing.T) {
	type program struct{ name, src string }
	var programs []program
	for _, app := range apps.All(apps.TestScale) {
		programs = append(programs, program{app.Name, app.Source})
	}
	for _, tl := range tapeLoops {
		programs = append(programs, program{tl.name, tl.src})
	}
	programs = append(programs,
		program{"reductions", orderSensitiveReductions},
		program{"staggered-entries", staggeredEntries})
	env := diffEnvs[2] // noisy, PMU jitter on
	for _, p := range programs {
		prog := mustProg(t, p.src)
		env.probeNs = rowProbeCostNs[p.name]
		for _, instrumented := range []bool{false, true} {
			runs := make([]observation, 2)
			for i, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				runs[i] = observe(prog, instrumented, 8, env, 100_000, (*Machine).Run)
				runtime.GOMAXPROCS(prev)
			}
			if reflect.DeepEqual(runs[0], runs[1]) {
				continue
			}
			a, b := reflect.ValueOf(runs[0]), reflect.ValueOf(runs[1])
			for i := 0; i < a.NumField(); i++ {
				if x, y := a.Field(i).Interface(), b.Field(i).Interface(); !reflect.DeepEqual(x, y) {
					t.Errorf("%s (instrumented=%v): %s differs across schedules\nGOMAXPROCS=1: %.600v\nGOMAXPROCS=2: %.600v",
						p.name, instrumented, a.Type().Field(i).Name, x, y)
				}
			}
		}
	}
}
