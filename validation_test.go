package vsensor_test

// End-to-end validation property (the heart of the paper's §6.2): for
// randomly generated programs, every instrumented v-sensor must have a
// genuinely fixed workload at runtime — with PMU jitter disabled, the exact
// instruction count of every execution of a (process-fixed, dynamic-rule-
// free) sensor must be identical on a given rank; and for process-fixed
// sensors, identical across ranks too. Any counterexample is a soundness
// bug in the identification algorithm.

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	vsensor "vsensor"
	"vsensor/internal/vm"
)

// progGen builds random structured mini-C programs from a seed. Programs
// mix fixed loops, parameter- and rank-dependent loops, accumulators,
// branches, helper functions and MPI collectives, so both sensor and
// non-sensor snippets occur.
type progGen struct {
	rng uint64
	sb  strings.Builder
}

func (g *progGen) next(n int) int {
	g.rng = g.rng*6364136223846793005 + 1442695040888963407
	return int((g.rng >> 33) % uint64(n))
}

func (g *progGen) generate() string {
	g.sb.Reset()
	nHelpers := 1 + g.next(3)
	for h := 0; h < nHelpers; h++ {
		g.helper(h)
	}
	g.sb.WriteString("func main() {\n")
	g.sb.WriteString("    int rank = mpi_comm_rank();\n")
	g.sb.WriteString("    int acc = 0;\n")
	fmt.Fprintf(&g.sb, "    for (int t = 0; t < %d; t++) {\n", 4+g.next(6))
	nStmts := 2 + g.next(4)
	for s := 0; s < nStmts; s++ {
		g.mainStmt(nHelpers)
	}
	g.sb.WriteString("        acc += 1;\n")
	g.sb.WriteString("    }\n}\n")
	return g.sb.String()
}

func (g *progGen) helper(id int) {
	fmt.Fprintf(&g.sb, "func helper%d(int n) {\n", id)
	switch g.next(3) {
	case 0: // fixed inner loop
		fmt.Fprintf(&g.sb, "    for (int i = 0; i < %d; i++) {\n        flops(%d);\n    }\n",
			3+g.next(8), 10+g.next(200))
	case 1: // parameter-bounded loop
		fmt.Fprintf(&g.sb, "    for (int i = 0; i < n; i++) {\n        flops(%d);\n        mem(%d);\n    }\n",
			10+g.next(100), 5+g.next(50))
	default: // branch + loop
		fmt.Fprintf(&g.sb, "    if (n > %d) {\n        flops(%d);\n    }\n", g.next(20),
			10+g.next(100))
		fmt.Fprintf(&g.sb, "    for (int i = 0; i < %d; i++) {\n        mem(%d);\n    }\n",
			2+g.next(6), 10+g.next(40))
	}
	g.sb.WriteString("}\n\n")
}

func (g *progGen) mainStmt(nHelpers int) {
	switch g.next(7) {
	case 0: // fixed-arg helper call (sensor)
		fmt.Fprintf(&g.sb, "        helper%d(%d);\n", g.next(nHelpers), 2+g.next(10))
	case 1: // iteration-dependent helper call (not a sensor)
		fmt.Fprintf(&g.sb, "        helper%d(t);\n", g.next(nHelpers))
	case 2: // rank-dependent helper call (not process-fixed)
		fmt.Fprintf(&g.sb, "        helper%d(rank %% 4);\n", g.next(nHelpers))
	case 3: // accumulator-dependent loop (not a sensor)
		fmt.Fprintf(&g.sb, "        for (int a = 0; a < acc %% 7; a++) {\n            flops(%d);\n        }\n",
			5+g.next(50))
	case 4: // fixed local loop (sensor)
		fmt.Fprintf(&g.sb, "        for (int f = 0; f < %d; f++) {\n            flops(%d);\n        }\n",
			2+g.next(8), 5+g.next(80))
	case 5: // fixed collective (network sensor)
		fmt.Fprintf(&g.sb, "        mpi_allreduce(%d, 1.0);\n", 8+8*g.next(8))
	default: // varying collective (not a sensor)
		g.sb.WriteString("        mpi_allreduce(8 + t * 8, 1.0);\n")
	}
}

func TestPropertyInstrumentedSensorsAreFixedWorkload(t *testing.T) {
	const (
		seeds = 40
		ranks = 4
	)
	checked := 0
	for seed := 0; seed < seeds; seed++ {
		g := &progGen{rng: uint64(seed)*0x9e3779b97f4a7c15 + 1}
		src := g.generate()

		var recs []vm.Record
		rep, err := vsensor.Run(src, vsensor.Options{Ranks: ranks, CollectRecords: true, Seed: int64(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
		recs = rep.Records

		processFixed := make(map[int]bool)
		for _, s := range rep.Instrumented.Sensors {
			processFixed[s.ID] = s.ProcessFixed
		}

		// Per (sensor, rank): exact instruction counts must be constant.
		type key struct{ sensor, rank int }
		perRank := make(map[key]int64)
		perSensor := make(map[int]int64)
		for _, r := range recs {
			k := key{r.Sensor, r.Rank}
			if prev, ok := perRank[k]; ok && prev != r.Instr {
				t.Fatalf("seed %d: sensor %d rank %d workload varies: %d vs %d\nsource:\n%s",
					seed, r.Sensor, r.Rank, prev, r.Instr, src)
			}
			perRank[k] = r.Instr
			checked++

			if processFixed[r.Sensor] {
				if prev, ok := perSensor[r.Sensor]; ok && prev != r.Instr {
					t.Fatalf("seed %d: process-fixed sensor %d differs across ranks: %d vs %d\nsource:\n%s",
						seed, r.Sensor, prev, r.Instr, src)
				}
				perSensor[r.Sensor] = r.Instr
			}
		}
	}
	if checked < 1000 {
		t.Errorf("property checked only %d records; generator too weak?", checked)
	}
}

// Determinism of the full pipeline across schedules: a generated program on
// 8 ranks, run under GOMAXPROCS 1 and 2, gives bit-identical per-rank stats
// (virtual end time, NetNs, PMU instruction total, record count) and the
// same raw record stream rank by rank. (Report.Records concatenates the
// ranks in the order their goroutines started, so it is compared grouped by
// rank.)
func TestPropertyPipelineDeterministic(t *testing.T) {
	g := &progGen{rng: 424242}
	src := g.generate()
	run := func(procs int) (vm.Result, []vm.Record) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rep, err := vsensor.Run(src, vsensor.Options{Ranks: 8, CollectRecords: true, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		slices.SortStableFunc(rep.Records, func(a, b vm.Record) int { return cmp.Compare(a.Rank, b.Rank) })
		return *rep.Result, rep.Records
	}
	res1, recs1 := run(1)
	res2, recs2 := run(2)
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("pipeline not deterministic across schedules:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=2: %+v", res1, res2)
	}
	if len(recs1) == 0 || !reflect.DeepEqual(recs1, recs2) {
		t.Errorf("record streams differ across schedules (%d vs %d records)", len(recs1), len(recs2))
	}
}
