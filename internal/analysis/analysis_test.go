package analysis

import (
	"testing"

	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := ir.Build(minic.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(prog)
}

// snippetAt finds the snippet for the loop whose induction variable is name
// within function fn (first match in source order).
func loopSnippet(t *testing.T, res *Result, fn, indvar string) *Snippet {
	t.Helper()
	for _, s := range res.Funcs[fn].Snippets {
		if s.Loop != nil && s.Loop.IndVar == indvar {
			return s
		}
	}
	t.Fatalf("no loop snippet with indvar %q in %s", indvar, fn)
	return nil
}

// callSnippets returns the call snippets for the given callee in fn,
// in source order.
func callSnippets(res *Result, fn, callee string) []*Snippet {
	var out []*Snippet
	for _, s := range res.Funcs[fn].Snippets {
		if s.Call != nil && s.Call.Callee == callee {
			out = append(out, s)
		}
	}
	return out
}

func sensorOfIndvar(s *Snippet, indvar string) bool {
	for _, l := range s.SensorOf {
		if l.IndVar == indvar {
			return true
		}
	}
	return false
}

// The paper's Figure 6: intra-procedural analysis. Inside loop Ln, L1 has
// constant bounds (sensor), L2's bound is n (not a sensor), L3 contains a
// branch on n (not a sensor).
func TestFigure6IntraProcedural(t *testing.T) {
	res := analyze(t, `
func main() {
    int count = 0;
    for (int n = 0; n < 100; n++) {
        for (int k = 0; k < 10; k++) {
            count++;
        }
        for (int k2 = 0; k2 < n; k2++) {
            count++;
        }
        for (int k3 = 0; k3 < 10; k3++) {
            if (k3 < n) {
                count++;
            }
        }
    }
}`)
	l1 := loopSnippet(t, res, "main", "k")
	if !sensorOfIndvar(l1, "n") {
		t.Errorf("L1 (fixed bounds) should be sensor of Ln; deps=%s", l1.Deps)
	}
	l2 := loopSnippet(t, res, "main", "k2")
	if sensorOfIndvar(l2, "n") {
		t.Errorf("L2 (bound n) must not be sensor of Ln; deps=%s", l2.Deps)
	}
	l3 := loopSnippet(t, res, "main", "k3")
	if sensorOfIndvar(l3, "n") {
		t.Errorf("L3 (branch on n) must not be sensor of Ln; deps=%s", l3.Deps)
	}
	if !l1.Global {
		t.Errorf("L1 should be a global sensor; deps=%s", l1.Deps)
	}
}

// The paper's Figures 4 and 8: inter-procedural analysis. foo's workload
// depends on its first argument and global GLBV. Call-1 foo(n,k) is a
// sensor of Loop-2 (k varies, but k does not affect foo's workload) and not
// of Loop-1 (n varies). Call-2 foo(k,n) is a sensor of neither. Loop-5
// (constant inner loop of foo) is a global sensor; Loop-4 is not.
func TestFigure4And8InterProcedural(t *testing.T) {
	res := analyze(t, `
global int GLBV = 40;

func foo(int x, int y) int {
    int value = 0;
    for (int i = 0; i < x; i++) {
        value += y;
        for (int j = 0; j < 10; j++) {
            value -= 1;
        }
    }
    if (x > GLBV) {
        value -= x * y;
    }
    return value;
}

func main() {
    int count = 0;
    for (int n = 0; n < 100; n++) {
        for (int k = 0; k < 10; k++) {
            foo(n, k);
            foo(k, n);
        }
        for (int k2 = 0; k2 < 10; k2++) {
            count++;
        }
        mpi_barrier();
    }
}`)
	// foo's workload deps: param x (index 0) and global GLBV, not y.
	foo := res.Funcs["foo"]
	if !foo.WorkDeps.Has(Param(0)) {
		t.Errorf("foo work deps missing param(0): %s", foo.WorkDeps)
	}
	if foo.WorkDeps.Has(Param(1)) {
		t.Errorf("foo work deps must not include param(1) (y): %s", foo.WorkDeps)
	}
	if !foo.WorkDeps.Has(GlobalSrc("GLBV")) {
		t.Errorf("foo work deps missing GLBV: %s", foo.WorkDeps)
	}

	calls := callSnippets(res, "main", "foo")
	if len(calls) != 2 {
		t.Fatalf("foo calls = %d", len(calls))
	}
	c1, c2 := calls[0], calls[1] // foo(n,k), foo(k,n)
	if !sensorOfIndvar(c1, "k") {
		t.Errorf("Call-1 foo(n,k) should be sensor of Loop-2; deps=%s", c1.Deps)
	}
	if sensorOfIndvar(c1, "n") {
		t.Errorf("Call-1 foo(n,k) must not be sensor of Loop-1; deps=%s", c1.Deps)
	}
	if sensorOfIndvar(c2, "k") || sensorOfIndvar(c2, "n") {
		t.Errorf("Call-2 foo(k,n) must not be a sensor of either loop; deps=%s", c2.Deps)
	}

	// Loop-5 (j-loop in foo): constant workload, sensor everywhere.
	l5 := loopSnippet(t, res, "foo", "j")
	if !l5.FuncScope || !l5.Global {
		t.Errorf("Loop-5 should be a global sensor: funcScope=%v global=%v deps=%s", l5.FuncScope, l5.Global, l5.Deps)
	}
	// Loop-4 (i-loop in foo): workload depends on x; x varies at both call
	// sites across main's loops, so not a global sensor.
	l4 := loopSnippet(t, res, "foo", "i")
	if !l4.FuncScope {
		t.Errorf("Loop-4 is function-scope within foo (x fixed during one call): %s", l4.Deps)
	}
	if l4.Global {
		t.Errorf("Loop-4 must not be a global sensor; deps=%s", l4.Deps)
	}

	// The barrier call: constant workload, global Network sensor.
	bar := callSnippets(res, "main", "mpi_barrier")[0]
	if !bar.Global || bar.Type != ir.Network {
		t.Errorf("barrier: global=%v type=%v", bar.Global, bar.Type)
	}

	// Loop-3 (k2 loop in main): global sensor.
	l3 := loopSnippet(t, res, "main", "k2")
	if !l3.Global {
		t.Errorf("count loop should be global sensor; deps=%s", l3.Deps)
	}
	// Loop-2 (k loop in main): contains foo(n,·), whose work varies with n.
	l2 := loopSnippet(t, res, "main", "k")
	if sensorOfIndvar(l2, "n") || l2.Global {
		t.Errorf("Loop-2 must not be sensor of Loop-1; deps=%s", l2.Deps)
	}
}

// The paper's Figure 9: multi-process analysis. A loop whose workload
// depends on the process rank is iteration-fixed but not process-fixed.
func TestFigure9RankDependence(t *testing.T) {
	res := analyze(t, `
func main() {
    int rank = mpi_comm_rank();
    int count = 0;
    for (int n = 0; n < 100; n++) {
        for (int k = 0; k < 10; k++) {
            count++;
        }
        for (int k2 = 0; k2 < 10; k2++) {
            if (rank % 2 == 1) {
                count++;
            }
        }
    }
}`)
	l1 := loopSnippet(t, res, "main", "k")
	if !l1.Global || !l1.ProcessFixed {
		t.Errorf("L1: global=%v processFixed=%v deps=%s", l1.Global, l1.ProcessFixed, l1.Deps)
	}
	l2 := loopSnippet(t, res, "main", "k2")
	if !sensorOfIndvar(l2, "n") {
		t.Errorf("L2 is iteration-fixed for a given rank; deps=%s", l2.Deps)
	}
	if l2.ProcessFixed {
		t.Errorf("L2 depends on rank, must not be process-fixed; deps=%s", l2.Deps)
	}
}

// Never-fixed externals poison snippets (paper §3.5): print and unknown
// functions prevent sensor status.
func TestExternPoison(t *testing.T) {
	res := analyze(t, `
func main() {
    for (int n = 0; n < 10; n++) {
        for (int k = 0; k < 5; k++) {
            print("hi");
        }
        for (int k2 = 0; k2 < 5; k2++) {
            some_unknown_extern();
        }
        for (int k3 = 0; k3 < 5; k3++) {
            flops(100);
        }
    }
}`)
	if s := loopSnippet(t, res, "main", "k"); len(s.SensorOf) != 0 {
		t.Errorf("loop containing print should never be a sensor; deps=%s", s.Deps)
	}
	if s := loopSnippet(t, res, "main", "k2"); len(s.SensorOf) != 0 {
		t.Errorf("loop containing unknown extern should never be a sensor; deps=%s", s.Deps)
	}
	if s := loopSnippet(t, res, "main", "k3"); !s.Global {
		t.Errorf("flops loop should be a global sensor; deps=%s", s.Deps)
	}
}

// Recursive functions are removed from the call graph and treated as
// never-fixed (paper Fig. 10).
func TestRecursionNeverFixed(t *testing.T) {
	res := analyze(t, `
func fact(int n) int {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
func main() {
    for (int i = 0; i < 10; i++) {
        for (int k = 0; k < 3; k++) {
            fact(5);
        }
    }
}`)
	if !res.Funcs["fact"].WorkDeps.Has(ExternSrc) {
		t.Errorf("fact should be never-fixed: %s", res.Funcs["fact"].WorkDeps)
	}
	call := callSnippets(res, "main", "fact")[0]
	if len(call.SensorOf) != 0 || call.Global {
		t.Errorf("call to recursive fn must not be a sensor; deps=%s", call.Deps)
	}
	k := loopSnippet(t, res, "main", "k")
	if len(k.SensorOf) != 0 {
		t.Errorf("loop containing recursive call must not be a sensor; deps=%s", k.Deps)
	}
}

// Network sensor: message size fixed -> sensor; message size varying with
// the loop -> not (paper §3.1 network rule).
func TestNetworkMessageSizeRule(t *testing.T) {
	res := analyze(t, `
func main() {
    int rank = mpi_comm_rank();
    int peer = 1 - rank % 2 + rank - rank % 2;
    for (int i = 0; i < 100; i++) {
        mpi_send(peer, 4096);
        mpi_send(peer, i * 64);
    }
}`)
	sends := callSnippets(res, "main", "mpi_send")
	if len(sends) != 2 {
		t.Fatalf("sends = %d", len(sends))
	}
	if !sensorOfIndvar(sends[0], "i") || sends[0].Type != ir.Network {
		t.Errorf("fixed-size send should be Network sensor; deps=%s", sends[0].Deps)
	}
	if sensorOfIndvar(sends[1], "i") {
		t.Errorf("varying-size send must not be sensor; deps=%s", sends[1].Deps)
	}
	// Default rules ignore the destination; the peer depending on rank does
	// not block sensor status, but with static rules enabled it clears
	// process-fixedness.
	if !sends[0].ProcessFixed {
		t.Errorf("without static rules the peer is not a workload dep; deps=%s", sends[0].Deps)
	}
}

// With static rules enabled, the communication peer becomes a workload
// factor (paper §3.1, Fig. 5: stricter static rules produce fewer sensors).
func TestStaticRulesPeer(t *testing.T) {
	src := `
func main() {
    int rank = mpi_comm_rank();
    for (int i = 0; i < 100; i++) {
        mpi_send(rank + 1, 4096);
    }
}`
	prog, err := ir.Build(minic.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	def := AnalyzeWith(prog, Config{})
	strict := AnalyzeWith(prog, Config{UseStaticRules: true})
	dSend := callSnippets(def, "main", "mpi_send")[0]
	sSend := callSnippets(strict, "main", "mpi_send")[0]
	if !dSend.ProcessFixed {
		t.Errorf("default rules: peer ignored, should be process-fixed; deps=%s", dSend.Deps)
	}
	if sSend.ProcessFixed {
		t.Errorf("static rules: rank-dependent peer must clear process-fixed; deps=%s", sSend.Deps)
	}
}

// Accumulator pattern: a variable carried across iterations makes dependent
// snippets non-sensors, while a freshly re-initialized variable does not.
func TestAccumulatorVsReinit(t *testing.T) {
	res := analyze(t, `
func main() {
    int acc = 0;
    for (int n = 0; n < 100; n++) {
        int fresh = 7;
        for (int a = 0; a < acc; a++) {
            flops(1);
        }
        for (int b = 0; b < fresh; b++) {
            flops(1);
        }
        acc += 1;
    }
}`)
	if s := loopSnippet(t, res, "main", "a"); sensorOfIndvar(s, "n") {
		t.Errorf("accumulator-bounded loop must not be sensor of n; deps=%s", s.Deps)
	}
	if s := loopSnippet(t, res, "main", "b"); !sensorOfIndvar(s, "n") {
		t.Errorf("fresh-bounded loop should be sensor of n; deps=%s", s.Deps)
	}
}

// Globals mutated inside a loop make dependent snippets variant in that
// loop; read-only globals are fine.
func TestMutatedGlobalBlocks(t *testing.T) {
	res := analyze(t, `
global int RO = 8;
global int RW = 8;

func main() {
    for (int n = 0; n < 100; n++) {
        for (int a = 0; a < RO; a++) {
            flops(1);
        }
        for (int b = 0; b < RW; b++) {
            flops(1);
        }
        RW += 1;
    }
}`)
	if !res.MutatedGlobals["RW"] || res.MutatedGlobals["RO"] {
		t.Fatalf("mutated globals = %v", res.MutatedGlobals)
	}
	if s := loopSnippet(t, res, "main", "a"); !s.Global {
		t.Errorf("read-only-global loop should be global sensor; deps=%s", s.Deps)
	}
	if s := loopSnippet(t, res, "main", "b"); sensorOfIndvar(s, "n") || s.Global {
		t.Errorf("mutated-global loop must not be sensor; deps=%s", s.Deps)
	}
}

// Paper §3.3 condition 2 across functions: work()'s loop bound is a global
// that only main mutates, between calls. Within work() the bound looks
// invariant, so only the whole-program mutated-globals rule rejects it.
func TestGlobalMutatedByCallerBlocks(t *testing.T) {
	res := analyze(t, `
global int N = 4;

func work() {
    for (int i = 0; i < N; i++) {
        flops(10);
    }
}

func main() {
    for (int n = 0; n < 30; n++) {
        work();
        N += 1;
    }
}`)
	if s := loopSnippet(t, res, "work", "i"); s.Global || len(s.SensorOf) != 0 {
		t.Errorf("loop bounded by a global main mutates must not be a sensor; global=%v sensorOf=%v deps=%s", s.Global, s.SensorOf, s.Deps)
	}
}

// A while loop whose condition variable is driven by constants is a sensor;
// one driven by received data is not.
func TestWhileLoops(t *testing.T) {
	res := analyze(t, `
func main() {
    for (int n = 0; n < 10; n++) {
        int x = 100;
        while (x > 0) {
            x -= 1;
            flops(10);
        }
        int y = mpi_recv(0, 1);
        while (y > 0) {
            y -= 1;
            flops(10);
        }
    }
}`)
	var whiles []*Snippet
	for _, s := range res.Funcs["main"].Snippets {
		if s.Loop != nil && s.Loop.IndVar == "" {
			whiles = append(whiles, s)
		}
	}
	if len(whiles) != 2 {
		t.Fatalf("while snippets = %d", len(whiles))
	}
	if !sensorOfIndvar(whiles[0], "n") {
		t.Errorf("constant-driven while should be sensor of n; deps=%s", whiles[0].Deps)
	}
	if sensorOfIndvar(whiles[1], "n") {
		t.Errorf("recv-driven while must not be sensor of n; deps=%s", whiles[1].Deps)
	}
}

// Early exits: a break bounded by a parameter propagates that dependence to
// the loop's trip count.
func TestBreakAffectsTrip(t *testing.T) {
	res := analyze(t, `
func work(int limit) {
    for (int i = 0; i < 1000; i++) {
        if (i >= limit) {
            break;
        }
        flops(5);
    }
}
func main() {
    for (int n = 0; n < 10; n++) {
        work(n);
        work(64);
    }
}`)
	calls := callSnippets(res, "main", "work")
	if sensorOfIndvar(calls[0], "n") {
		t.Errorf("work(n) must not be sensor (break bound varies); deps=%s", calls[0].Deps)
	}
	if !sensorOfIndvar(calls[1], "n") {
		t.Errorf("work(64) should be sensor; deps=%s", calls[1].Deps)
	}
}

// Triangular loop nests have fixed total workload.
func TestTriangularNestFixed(t *testing.T) {
	res := analyze(t, `
func main() {
    for (int n = 0; n < 10; n++) {
        for (int i = 0; i < 20; i++) {
            for (int j = 0; j < i; j++) {
                flops(1);
            }
        }
    }
}`)
	i := loopSnippet(t, res, "main", "i")
	if !sensorOfIndvar(i, "n") || !i.Global {
		t.Errorf("triangular nest (i) should be global sensor; deps=%s", i.Deps)
	}
	j := loopSnippet(t, res, "main", "j")
	if sensorOfIndvar(j, "i") {
		t.Errorf("inner triangular loop must not be sensor of i; deps=%s", j.Deps)
	}
	if !sensorOfIndvar(j, "n") {
		// j is not a sensor of i, so it cannot be a sensor of n either
		// (the chain stops at the first variant loop). This documents the
		// outward-chain rule.
		t.Logf("inner loop correctly blocked at i: %v", j.SensorOf)
	}
}

// Counts: every loop and call is a candidate snippet.
func TestSnippetCounts(t *testing.T) {
	res := analyze(t, `
func f(int x) { flops(x); }
func main() {
    for (int i = 0; i < 4; i++) {
        f(3);
        mpi_barrier();
    }
    while (1 < 2) {
        break;
    }
}`)
	// Loops: i-loop, while. Calls: f, flops (inside f), mpi_barrier.
	if len(res.Snippets) != 5 {
		t.Errorf("snippets = %d, want 5", len(res.Snippets))
	}
	if len(res.Sensors) == 0 || len(res.GlobalSensors) == 0 {
		t.Errorf("sensors=%d global=%d", len(res.Sensors), len(res.GlobalSensors))
	}
}
