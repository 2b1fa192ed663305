package vm

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"vsensor/internal/analysis"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 32", n)
	}
}

// observation is everything a run lets the outside see.
type observation struct {
	TotalNs int64
	Ranks   []RankStats // Err folded into Errs: errors compare by message
	Errs    []string
	Records [][]Record // per rank, in emission order
	Events  [][]Event
	Stdout  []string // per rank, in print order
}

// rankLines buckets print() output by its "[rank N]" prefix: output order
// across ranks is the scheduler's, within a rank it is the program's.
type rankLines struct {
	mu    sync.Mutex
	lines []string
}

func (w *rankLines) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	line := string(p)
	var rank int
	fmt.Sscanf(line, "[rank %d]", &rank)
	w.lines[rank] += line
	return len(p), nil
}

type recordLog []Record

func (l *recordLog) OnRecord(r Record) { *l = append(*l, r) }

type eventLog []Event

func (l *eventLog) OnEvent(e Event) { *l = append(*l, e) }

// diffEnv is one runtime environment of the differential grid.
type diffEnv struct {
	name    string
	cluster func(ranks int) *cluster.Cluster
	jitter  float64
	probeNs float64 // an instrumented run's probe cost; 0: 25 ns
}

// noisyCluster is TestEngineInvariance's: jittered speeds, OS noise and a
// CPU-noise window, so flush boundaries land on speed changes.
func noisyCluster(ranks int) *cluster.Cluster {
	cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: (ranks + 1) / 2, Seed: 7, JitterPct: 0.02})
	cl.SetOSNoise(150_000, 15_000, 0.25)
	cl.AddCPUNoise(1, 200_000, 900_000, 0.35)
	return cl
}

var diffEnvs = []diffEnv{
	{"quiet", func(ranks int) *cluster.Cluster {
		return cluster.New(cluster.Config{Nodes: 1, RanksPerNode: ranks})
	}, 0, 0},
	{"noisy", noisyCluster, 0, 0},
	{"noisy-pmujitter", noisyCluster, 0.004, 0},
}

// observe runs prog on one engine and records everything observable.
func observe(prog *ir.Program, instrumented bool, ranks int, env diffEnv, maxSteps int64, run func(*Machine) *Result) observation {
	obs := observation{
		Records: make([][]Record, ranks),
		Events:  make([][]Event, ranks),
	}
	out := &rankLines{lines: make([]string, ranks)}
	cfg := Config{
		Ranks:        ranks,
		Cluster:      env.cluster(ranks),
		PMUJitterPct: env.jitter,
		Seed:         42,
		MaxSteps:     maxSteps,
		Stdout:       out,
		SinkFactory:  func(rank int) Sink { return (*recordLog)(&obs.Records[rank]) },
		EventFactory: func(rank int) EventSink { return (*eventLog)(&obs.Events[rank]) },
	}
	var m *Machine
	if instrumented {
		cfg.ProbeCostNs = cmp.Or(env.probeNs, 25)
		m = NewInstrumented(instrument.Apply(analysis.Analyze(prog), instrument.Config{}), cfg)
	} else {
		m = New(prog, cfg)
	}
	res := run(m)
	obs.TotalNs, obs.Ranks, obs.Stdout = res.TotalNs, res.Ranks, out.lines
	for i := range obs.Ranks {
		if err := obs.Ranks[i].Err; err != nil {
			obs.Errs = append(obs.Errs, err.Error())
			obs.Ranks[i].Err = nil
		}
	}
	return obs
}

// diffEngines runs prog on the compiled engine and on the reference and
// reports the first observable difference.
func diffEngines(t *testing.T, prog *ir.Program, instrumented bool, ranks int, env diffEnv, maxSteps int64) {
	t.Helper()
	got := observe(prog, instrumented, ranks, env, maxSteps, (*Machine).Run)
	want := observe(prog, instrumented, ranks, env, maxSteps, refRun)
	if reflect.DeepEqual(got, want) {
		return
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s differs\ncompiled:  %.600v\nreference: %.600v", gv.Type().Field(i).Name, g, w)
		}
	}
}

// TestEngineDifferential holds the closure engine to the tree-walker's
// observable behaviour, bit for bit: final clocks, every RankStats field,
// each rank's record and event stream, stdout and the exact fault text —
// for every app, plain and instrumented, on quiet and noisy clusters, and
// for the semantics and fault programs, whose instrumented runs cover a
// fault unwinding through deferred tocks.
func TestEngineDifferential(t *testing.T) {
	type program struct {
		name, src string
		ranks     int
	}
	var programs []program
	for _, app := range apps.All(apps.TestScale) {
		programs = append(programs, program{app.Name, app.Source, 8})
	}
	for _, g := range semanticsGoldens {
		programs = append(programs, program{"semantics-" + g.name, g.src, 2})
	}
	// The fault programs are rank-symmetric and fault before communicating,
	// so no rank is left waiting in a collective.
	for _, c := range slices.Concat(runtimeErrorCases, deadlockErrorCases) {
		programs = append(programs, program{"fault-" + c.name, c.src, 2})
	}
	programs = append(programs,
		program{"fault-in-sensor-loop", faultInSensorLoop, 2},
		program{"every-operator", everyOperator, 2},
	)
	for _, tl := range tapeLoops {
		programs = append(programs, program{tl.name, tl.src, 2})
	}
	for _, p := range programs {
		prog := mustProg(t, p.src)
		for _, instrumented := range []bool{false, true} {
			for _, env := range diffEnvs {
				env.probeNs = rowProbeCostNs[p.name]
				t.Run(fmt.Sprintf("%s/instrumented=%v/%s", p.name, instrumented, env.name), func(t *testing.T) {
					diffEngines(t, prog, instrumented, p.ranks, env, 100_000)
				})
			}
		}
	}
}

// TestKernelLoopsCompileToTapes holds the apps' kernel loops to the charge
// tape: every for loop whose body is only flops(<int literal>) and
// mem(<int literal>) statements, none of them a sensor site, must compile
// to one, plain and instrumented. Goldens cannot see the difference: the
// generic path charges the same.
func TestKernelLoopsCompileToTapes(t *testing.T) {
	for _, app := range apps.All(apps.TestScale) {
		prog := mustProg(t, app.Source)
		plain := New(prog, Config{})
		instrumented := NewInstrumented(instrument.Apply(analysis.Analyze(prog), instrument.Config{}), Config{})
		for _, m := range []*Machine{plain, instrumented} {
			taped := make(map[*minic.ForStmt]bool)
			for _, st := range m.code.taped {
				taped[st] = true
			}
			kernels := 0
			for _, f := range prog.AST.Funcs {
				minic.WalkStmts(f.Body, func(s minic.Stmt) {
					if st, ok := s.(*minic.ForStmt); ok && kernelBody(m, st.Body) {
						kernels++
						if !taped[st] {
							t.Errorf("%s: the kernel loop at %v (instrumented=%v) did not compile to a charge tape", app.Name, st.Pos(), m.ins != nil)
						}
					}
				})
			}
			if kernels == 0 {
				t.Errorf("%s: no kernel loop found", app.Name)
			}
		}
	}
}

// kernelBody reports whether a loop body is only flops(<int literal>) and
// mem(<int literal>) statements that are not sensor sites.
func kernelBody(m *Machine, b *minic.BlockStmt) bool {
	for _, s := range b.Stmts {
		x, ok := s.(*minic.ExprStmt)
		if !ok {
			return false
		}
		call, ok := x.X.(*minic.CallExpr)
		if !ok || call.Target != nil || (call.Name != "flops" && call.Name != "mem") || len(call.Args) != 1 || m.sensorOfCall(call.CallID) >= 0 {
			return false
		}
		if _, ok := call.Args[0].(*minic.IntLit); !ok {
			return false
		}
	}
	return len(b.Stmts) > 0
}

// everyOperator runs each operator on int and on float operands, every
// statement kind, array traffic through calls that grow the stack, and the
// builtins the apps leave out.
const everyOperator = `
global float GF[4];
global int GN = 3;
func idx(int i) int { int pad[64]; return i % 4; }
func fmix(float a, int b) float { return a * b - a / (b + 1) + a % 3.0; }
func nothing() { return; }
func main() {
    int i = 7;
    float f = 2.5;
    int a[4];
    a[idx(5)] = i / 2;
    a[2] = a[idx(1)] % 3;
    GF[idx(2)] = f - i;
    GF[3] += a[1];
    print("arith", i + 2, i - 2, i * 2, i / 2, i % 2, f + 1, f - 1, f * 2, f / 2, f % 2.0, -i, -f, !i, !0, !f);
    print("cmp", i == 7, i != 7, i < 8, i > 8, i <= 7, i >= 8, f == 2.5, f != 2.5, f < 3, f > 3, f <= 2.5, f >= 3);
    print("logic", i && 0, 0 && i, i || 0, 0 || 0, f && 1, 0.0 || 0);
    print("arr", a[1], a[2], GF[2], GF[3], a, GF, "", nothing());
    print("calls", fmix(f, i), min_i(i, 3), max_i(i, 3), abs_i(0 - i), sqrt_f(f * 10), rand_i(5), rand_i(0), min_i());
    int n = 0;
    while (n < GN) {
        n++;
        if (n == 2) { continue; } else if (n == 3) { f = n; } else { int n = 9; i = n; }
        { int n = 40; i += n; }
    }
    for (;;) { n--; if (n < 0) { break; } }
    f = i;
    i = f / 2;
    int r = mpi_irecv(1 - mpi_comm_rank(), 64);
    int s = mpi_isend(1 - mpi_comm_rank(), 64, f);
    io_write(512);
    print("net", mpi_wait(r), mpi_wait(s), io_read(256), mpi_reduce(0, 8, 1.0), mpi_bcast(1, 8, i));
    mpi_alltoall(128);
    vs_tick(7);
    mem(300);
    flops(0 - 5);
    vs_tock(7);
    print("end", i, f, n);
}`

// tapeLoops are the edges of the charge tape (compile.go): loops it runs,
// loops it must leave to the generic path, and a step fault it must leave
// to the generic path's exact statement.
var tapeLoops = []struct{ name, src string }{
	{"tape-zero-trips", `
func main() {
    int n = 3;
    for (int i = 5; i < n; i++) { flops(10); }
    for (int i = 0; i < 0; i++) { mem(4); }
    int j = 9;
    for (; j < n; j++) { flops(1); }
    print(n, j);
}`},
	{"tape-negative-start", `
func main() {
    int n = mpi_comm_rank() * 3 + 5;
    int i = 0 - 40;
    for (; i < n; i++) { flops(25); mem(9); }
    print(i);
}`},
	{"tape-literal-bound", `
func main() {
    for (int i = 0; i < 300; i++) { mem(17); flops(3); flops(0); mem(0); }
    for (int k = 7; k < 8; k++) { }
}`},
	{"tape-float-bound", `
func main() {
    float n = 12.5;
    int i = 0;
    for (; i < n; i++) { flops(40); }
    float f = 0.5;
    for (; f < 6; f++) { mem(30); }
    print(i, f);
}`},
	{"tape-counter-after", `
func main() {
    int n = 70;
    int i = 3;
    for (i = 0; i < n; i++) { flops(11); mem(5); }
    int k = i;
    for (; k < n + 20; k++) { mem(2); }
    print(i, k, n);
}`},
	{"tape-many-flushes", `
func main() {
    int n = 9000 - mpi_comm_rank() * 7;
    for (int r = 0; r < 2; r++) {
        for (int i = 0; i < n; i++) { flops(1900); mem(700); }
        flops(3);
        for (int i = r; i < 4001; i++) { mem(1333); flops(1); }
    }
}`},
	{"tape-fine-grained", `
func main() {
    int n = 30000 - mpi_comm_rank();
    for (int i = 0; i < n; i++) { mem(1); }
    for (int k = 0; k < 20000; k++) { }
}`},
	{"tape-instrumented", `
func main() {
    float acc = 0.0;
    for (int it = 0; it < 20; it++) {
        for (int k = 0; k < 16; k++) { flops(300); mem(40); }
        acc = mpi_allreduce(8, acc + 1.0);
    }
    print(acc);
}`},
	{"tape-step-fault", `
func main() {
    flops(5);
    for (int i = 0; i < 40000; i++) {
        flops(3);
        mem(2);
    }
}`},
	// The replay's segments (compile.go): loops whose failing test's last
	// charge trips a flush, the first after three flushes inside, the
	// second after one; each next loop starts from the (0, 0) it leaves.
	{"tape-ends-on-flush", `
func main() {
    for (int i = 0; i < 378; i++) { flops(64); mem(11); }
    for (int i = 0; i < 189; i++) { flops(64); mem(11); }
    for (int i = 0; i < 5; i++) { mem(3); }
}`},
	// Entered 0.2 ns below the threshold with the sum mostly memory, then
	// (after the barrier's flush) 0.7 ns below it with the sum all cpu: the
	// first add flushes.
	{"tape-entry-near-threshold", `
func main() {
    mem(4993);
    for (int i = 0; i < 25; i++) { mem(200); }
    mpi_barrier();
    flops(9985);
    for (int i = 0; i < 40; i++) { flops(30); mem(7); }
}`},
	// CG's dot_product: too short to flush, so every call ends inside the
	// segment its call site's sums start, at a trip count that varies.
	{"tape-short", `
func dot_product(int n, float seed) float {
    float local = seed;
    for (int i = 0; i < n; i++) {
        flops(48);
    }
    return mpi_allreduce(8, local + 1.0);
}
func main() {
    float rho = 0.0;
    for (int it = 0; it < 30; it++) { rho = dot_product(16 + it % 3, rho); }
    print(rho);
}`},
	// One tape entered from about 60 distinct pending sums per rank, more
	// than a tape caches: past the bound the first segment is walked, and a
	// quarter of those walks flush before the loop ends.
	{"tape-many-entry-states", `
func kernel(int n) {
    for (int i = 0; i < n; i++) { flops(9); mem(4); }
}
func main() {
    for (int r = 0; r < 60; r++) {
        flops(r * 7 + mpi_comm_rank());
        kernel(3 + r % 5 * 40);
    }
}`},
	// Instrumented with a probe cost that is not a whole nanosecond
	// (rowProbeCostNs).
	{"tape-probe-cost", `
func main() {
    float acc = 0.0;
    for (int it = 0; it < 12; it++) {
        for (int k = 0; k < 24; k++) { flops(250); mem(30); }
        for (int k = 0; k < it + 3; k++) { mem(50); }
        acc = mpi_allreduce(8, acc + 1.0);
    }
    print(acc);
}`},
}

// rowProbeCostNs overrides an instrumented row's probe cost (25 ns
// otherwise).
var rowProbeCostNs = map[string]float64{"tape-probe-cost": 13.7}

// faultInSensorLoop faults at k == 4, inside an instrumented loop: the fault
// unwinds through the loop's deferred tock, which still emits the record.
const faultInSensorLoop = `
func main() {
    int a[4];
    for (int n = 0; n < 6; n++) {
        for (int k = 0; k < 8; k++) { flops(100); a[k] = k; }
    }
}`

func TestFaultInsideSensorClosesRecord(t *testing.T) {
	obs := observe(mustProg(t, faultInSensorLoop), true, 1, diffEnvs[0], 0, (*Machine).Run)
	if len(obs.Errs) != 1 || !strings.Contains(obs.Errs[0], "index 4 out of range [0,4)") {
		t.Fatalf("errors = %q, want one index fault", obs.Errs)
	}
	if len(obs.Records[0]) == 0 {
		t.Error("the faulting sensor loop left no record: its tock did not run")
	}
}

// FuzzEngineDifferential diffs the engines on arbitrary accepted programs:
// one rank, a short step budget, plain and instrumented.
func FuzzEngineDifferential(f *testing.F) {
	for _, app := range apps.All(apps.TestScale) {
		f.Add(app.Source)
	}
	for _, g := range semanticsGoldens {
		f.Add(g.src)
	}
	for _, c := range runtimeErrorCases {
		f.Add(c.src)
	}
	for _, tl := range tapeLoops {
		f.Add(tl.src)
	}
	// The front end's fuzz corpus: one `string("...")` line per file.
	corpus, _ := filepath.Glob("../minic/testdata/fuzz/FuzzParse/*")
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				if src, err := strconv.Unquote(strings.TrimSuffix(q, ")")); err == nil {
					f.Add(src)
				}
			}
		}
	}
	for _, c := range deadlockErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := minic.Parse(src)
		if err != nil {
			t.Skip()
		}
		prog, err := ir.Build(ast)
		if err != nil || unbounded(ast) {
			t.Skip()
		}
		for _, instrumented := range []bool{false, true} {
			diffEngines(t, prog, instrumented, 1, diffEnvs[2], 20_000)
		}
	})
}

// unbounded reports whether a run of the program could outlast any step
// budget or memory a fuzz worker should spend: a loop with an empty body
// executes no statement, so MaxSteps never trips; an array length that is
// not a small literal can ask for gigabytes.
func unbounded(ast *minic.Program) bool {
	small := func(e minic.Expr) bool {
		lit, ok := e.(*minic.IntLit)
		return e == nil || ok && lit.Value <= 1<<12
	}
	bad := false
	for _, g := range ast.Globals {
		bad = bad || !small(g.Len)
	}
	for _, f := range ast.Funcs {
		minic.WalkStmts(f.Body, func(s minic.Stmt) {
			switch st := s.(type) {
			case *minic.VarDecl:
				bad = bad || !small(st.Len)
			case *minic.ForStmt:
				bad = bad || len(st.Body.Stmts) == 0
			case *minic.WhileStmt:
				bad = bad || len(st.Body.Stmts) == 0
			}
		})
	}
	return bad
}
