package vm

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"vsensor/internal/analysis"
	"vsensor/internal/cluster"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

func mustProg(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Build(minic.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// collectSink gathers all records thread-safely across ranks.
type collectSink struct {
	mu   sync.Mutex
	recs []Record
}

func (c *collectSink) OnRecord(r Record) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

func runSrc(t *testing.T, src string, ranks int, cfg Config) (*Result, *collectSink) {
	t.Helper()
	prog := mustProg(t, src)
	ins := instrument.Apply(analysis.Analyze(prog), instrument.Config{})
	sink := &collectSink{}
	cfg.Ranks = ranks
	if cfg.SinkFactory == nil {
		cfg.SinkFactory = func(int) Sink { return sink }
	}
	m := NewInstrumented(ins, cfg)
	res := m.Run()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res, sink
}

func TestArithmeticAndControlFlow(t *testing.T) {
	var buf bytes.Buffer
	src := `
func fib(int n) int {
    if (n <= 1) { return n; }
    int a = 0;
    int b = 1;
    for (int i = 2; i <= n; i++) {
        int c = a + b;
        a = b;
        b = c;
    }
    return b;
}
func main() {
    print("fib10", fib(10));
    print("mix", 7 % 3, 2.5 * 4.0, 10 / 4, -3, !0);
    int x = 0;
    while (x < 100) {
        x += 7;
        if (x > 50) { break; }
    }
    print("x", x);
}`
	prog := mustProg(t, src)
	m := New(prog, Config{Ranks: 1, Stdout: &buf})
	if err := m.Run().Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fib10 55", "mix 1 10 2 -3 1", "x 56"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestArraysAndFloats(t *testing.T) {
	var buf bytes.Buffer
	src := `
global float G[8];
func main() {
    int a[4];
    a[0] = 3;
    a[1] = a[0] * 2;
    G[7] = 1.5;
    float s = 0.0;
    for (int i = 0; i < 8; i++) {
        G[i] += 0.5;
        s += G[i];
    }
    print("a1", a[1], "s", s, "sqrt", sqrt_f(16.0));
}`
	prog := mustProg(t, src)
	m := New(prog, Config{Ranks: 1, Stdout: &buf})
	if err := m.Run().Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a1 6 s 5.5 sqrt 4") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestGlobalsPerRank(t *testing.T) {
	var buf bytes.Buffer
	src := `
global int COUNTER = 0;
func main() {
    int rank = mpi_comm_rank();
    COUNTER = COUNTER + rank + 1;
    print("counter", COUNTER);
}`
	prog := mustProg(t, src)
	m := New(prog, Config{Ranks: 4, Stdout: &buf})
	if err := m.Run().Err(); err != nil {
		t.Fatal(err)
	}
	// Each rank has an independent copy of COUNTER.
	for _, want := range []string{"[rank 0] counter 1", "[rank 3] counter 4"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestMPIBuiltinsEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	src := `
func main() {
    int rank = mpi_comm_rank();
    int size = mpi_comm_size();
    float sum = mpi_allreduce(8, rank * 1.0);
    float b = mpi_bcast(0, 8, 42.0 + rank);
    mpi_barrier();
    float got = 0.0;
    if (rank == 0) {
        mpi_send(1, 1024, 7.5);
    }
    if (rank == 1) {
        got = mpi_recv(0, 1024);
        print("recv", got, "sum", sum, "b", b, "size", size);
    }
}`
	prog := mustProg(t, src)
	m := New(prog, Config{Ranks: 4, Stdout: &buf})
	if err := m.Run().Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recv 7.5 sum 6 b 42 size 4") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestSensorRecordsEmitted(t *testing.T) {
	src := `
func main() {
    for (int n = 0; n < 20; n++) {
        for (int k = 0; k < 10; k++) {
            flops(1000);
        }
        mpi_barrier();
    }
}`
	res, sink := runSrc(t, src, 2, Config{})
	if res.TotalNs <= 0 {
		t.Fatal("no time elapsed")
	}
	bySensor := make(map[int]int)
	for _, r := range sink.recs {
		bySensor[r.Sensor]++
		if r.End <= r.Start {
			t.Fatalf("record has non-positive duration: %+v", r)
		}
	}
	// Two sensors (k-loop, barrier) × 20 iterations × 2 ranks.
	if len(bySensor) != 2 {
		t.Fatalf("sensors seen = %v", bySensor)
	}
	for id, n := range bySensor {
		if n != 40 {
			t.Errorf("sensor %d records = %d, want 40", id, n)
		}
	}
}

func TestFixedWorkloadInstrCounts(t *testing.T) {
	// The instrumented k-loop has fixed workload: exact instruction deltas
	// must be identical across all its executions (PMU jitter disabled).
	src := `
func main() {
    for (int n = 0; n < 15; n++) {
        for (int k = 0; k < 10; k++) {
            flops(500);
        }
    }
}`
	_, sink := runSrc(t, src, 1, Config{})
	if len(sink.recs) != 15 {
		t.Fatalf("records = %d", len(sink.recs))
	}
	first := sink.recs[0].Instr
	if first <= 5000 {
		t.Fatalf("instr count too low: %d", first)
	}
	for _, r := range sink.recs {
		if r.Instr != first {
			t.Fatalf("workload not fixed: %d vs %d", r.Instr, first)
		}
	}
}

func TestPMUJitterWorkloadError(t *testing.T) {
	src := `
func main() {
    for (int n = 0; n < 50; n++) {
        for (int k = 0; k < 10; k++) {
            flops(500);
        }
    }
}`
	_, sink := runSrc(t, src, 1, Config{PMUJitterPct: 0.005, Seed: 9})
	var min, max int64 = 1 << 62, 0
	for _, r := range sink.recs {
		if r.Instr < min {
			min = r.Instr
		}
		if r.Instr > max {
			max = r.Instr
		}
	}
	ps := float64(max) / float64(min)
	if ps <= 1.0 {
		t.Errorf("expected jittered measurements, Ps=%v", ps)
	}
	if ps > 1.011 {
		t.Errorf("Ps=%v exceeds 2×jitter bound", ps)
	}
}

func TestDeterministicTotalTime(t *testing.T) {
	src := `
func main() {
    int rank = mpi_comm_rank();
    for (int n = 0; n < 10; n++) {
        flops(10000);
        mem(2000);
        mpi_sendrecv(rank - rank % 2 + (1 - rank % 2), 4096, 1.0);
        mpi_allreduce(64, 1.0);
    }
}`
	run := func() int64 {
		prog := mustProg(t, src)
		c := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 2, Seed: 3, JitterPct: 0.02})
		m := New(prog, Config{Ranks: 4, Cluster: c, Seed: 3})
		res := m.Run()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res.TotalNs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}

// runtimeErrorCases pin the whole fault message — rank, line:col, text — as
// the tree-walking interpreter produced it, and that faults are lazy: an
// unresolved name, unknown callee or wrong arity faults only when its node
// executes. want "" means the program runs clean.
var runtimeErrorCases = []struct {
	name string
	src  string
	want string
}{
	{"div-zero", `func main() { int x = 0; int y = 1 / x; }`, "rank 0: 1:34: division by zero"},
	{"oob", `func main() { int a[3]; a[5] = 1; }`, "rank 0: 1:25: index 5 out of range [0,3)"},
	{"undefined-var", `func main() { x = y + 1; }`, `rank 0: 1:19: undefined variable "y"`},
	{"undefined-fn", `func main() { nope(); }`, `rank 0: 1:15: call to undefined function "nope"`},
	{"bad-rank", `func main() { mpi_send(99, 8, 0.0); }`, "rank 0: 1:15: mpi_send: rank 99 out of range [0,1)"},
	{"runaway", `func main() { while (1 == 1) { flops(1); } }`, "rank 0: 1:32: step limit exceeded (100000): possible runaway loop"},
	{"lazy-dead-code", `func f(int a) int { return a; }
func main() { int y = 0; if (0 == 1) { y = nope(zz, 1); y = f(1, 2); } print("ok", y); }`, ""},
	{"lazy-undefined-fn-reached", `func f(int a) int { return a; }
func main() { int y = 0; if (1 == 1) { y = nope(zz, 1); } }`, `rank 0: 2:44: call to undefined function "nope"`},
	{"lazy-arity-reached", `func f(int a) int { return a; }
func main() { int y = 0; if (1 == 1) { y = f(1, 2); } }`, "rank 0: 2:44: f expects 1 args, got 2"},
	{"lazy-undefined-var-reached", `func main() { int y = 0; y = zz; }`, `rank 0: 1:30: undefined variable "zz"`},
	{"float-div-zero", `func main() { float x = 0.0; float y = 1.5 / x; }`, "rank 0: 1:40: division by zero"},
	{"mod-zero", `func main() { int x = 0; int y = 7 % x; }`, "rank 0: 1:34: modulo by zero"},
	{"float-mod-zero", `func main() { float x = 0.0; float y = 7.5 % x; }`, "rank 0: 1:40: modulo by zero"},
	{"index-read-non-array", `func main() { int x = 1; int y = x[0]; }`, `rank 0: 1:34: indexing non-array "x"`},
	{"index-write-non-array", `func main() { int x = 1; x[0] = 2; }`, "rank 0: 1:26: indexing non-array x"},
	{"negative-index", `func main() { int a[2]; int y = a[0 - 1]; }`, "rank 0: 1:33: index -1 out of range [0,2)"},
	{"negative-global-length", `global int N = 0 - 2;
global float G[N];
func main() { }`, "rank 0: 2:14: negative array length -2 for global G"},
	{"global-not-yet-live", `global int A = later();
global int B = 3;
func later() int { return B; }
func main() { print("A", A); }`, `rank 0: 3:27: undefined variable "B"`},
	{"main-arity", `func main(int x) { }`, "rank 0: 1:1: main expects 1 args, got 0"},
}

// deadlockErrorCases are the runtime errors of a run whose every rank waits
// on a message or a receiver that can never come. They sit apart from
// runtimeErrorCases so that the fuzz corpus, which numbers its seeds in the
// order they are added, appends them after the older seeds.
var deadlockErrorCases = []struct {
	name string
	src  string
	want string
}{
	{"deadlock-self-recv", `func main() { mpi_recv(0, 8); }`, "rank 0: 1:15: mpi_recv: deadlock: waits for a message from rank 0 and no other rank can run"},
	{"deadlock-wait-unsent-irecv", `func main() { int r = mpi_irecv(0, 8);
    mpi_wait(r); }`, "rank 0: 2:5: mpi_wait: deadlock: waits for a message from rank 0 and no other rank can run"},
	{"deadlock-eager-bound", `func main() { for (int i = 0; i < 4097; i++) { mpi_send(0, 8, 1.0); } }`, "rank 0: 1:48: mpi_send: deadlock: waits for rank 0 to receive one of 4096 queued messages and no other rank can run"},
}

func TestRuntimeErrors(t *testing.T) {
	for _, c := range slices.Concat(runtimeErrorCases, deadlockErrorCases) {
		t.Run(c.name, func(t *testing.T) {
			prog := mustProg(t, c.src)
			m := New(prog, Config{Ranks: 1, MaxSteps: 100000})
			got := ""
			if err := m.Run().Err(); err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Errorf("err = %q, want %q", got, c.want)
			}
		})
	}
}

func TestStatsCategories(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 5; i++) {
        flops(100000);
        mpi_barrier();
        io_write(100000);
    }
}`
	prog := mustProg(t, src)
	m := New(prog, Config{Ranks: 2})
	res := m.Run()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	st := res.Ranks[0]
	if st.CompNs <= 0 || st.NetNs <= 0 || st.IONs <= 0 {
		t.Errorf("stats: comp=%d net=%d io=%d", st.CompNs, st.NetNs, st.IONs)
	}
	if st.Total < st.CompNs || st.Total < st.IONs {
		t.Errorf("total %d inconsistent with categories", st.Total)
	}
	if st.Instr <= 0 {
		t.Error("no instructions counted")
	}
}

func TestInstrumentedSourceRoundTrip(t *testing.T) {
	// Emit instrumented source (vs_tick/vs_tock textual probes), re-parse,
	// re-build, and run WITHOUT IR marking: the textual probes must produce
	// the same records as the IR-marked execution — the paper's
	// "instrument source, compile with original compiler" path.
	src := `
func main() {
    for (int n = 0; n < 12; n++) {
        for (int k = 0; k < 8; k++) {
            flops(200);
        }
        mpi_allreduce(32, 1.0);
    }
}`
	prog := mustProg(t, src)
	ins := instrument.Apply(analysis.Analyze(prog), instrument.Config{})
	emitted := ins.EmitSource()

	prog2, err := ir.Build(minic.MustParse(emitted))
	if err != nil {
		t.Fatalf("emitted source invalid: %v\n%s", err, emitted)
	}
	sink2 := &collectSink{}
	m2 := New(prog2, Config{Ranks: 2, SinkFactory: func(int) Sink { return sink2 }})
	if err := m2.Run().Err(); err != nil {
		t.Fatal(err)
	}

	sink1 := &collectSink{}
	m1 := NewInstrumented(ins, Config{Ranks: 2, SinkFactory: func(int) Sink { return sink1 }})
	if err := m1.Run().Err(); err != nil {
		t.Fatal(err)
	}
	if len(sink1.recs) == 0 || len(sink1.recs) != len(sink2.recs) {
		t.Errorf("record counts differ: IR-marked %d vs source-probes %d", len(sink1.recs), len(sink2.recs))
	}
}

func TestRecursionRuns(t *testing.T) {
	var buf bytes.Buffer
	src := `
func fact(int n) int {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
func main() { print("f6", fact(6)); }`
	prog := mustProg(t, src)
	m := New(prog, Config{Ranks: 1, Stdout: &buf})
	if err := m.Run().Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "f6 720") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestProbeOverheadMeasurable(t *testing.T) {
	src := `
func main() {
    for (int n = 0; n < 200; n++) {
        for (int k = 0; k < 4; k++) {
            flops(2000);
        }
    }
}`
	prog := mustProg(t, src)
	plain := New(prog, Config{Ranks: 1}).Run()
	ins := instrument.Apply(analysis.Analyze(prog), instrument.Config{})
	probed := NewInstrumented(ins, Config{Ranks: 1, ProbeCostNs: 40}).Run()
	if probed.TotalNs <= plain.TotalNs {
		t.Errorf("instrumented run should cost more: %d vs %d", probed.TotalNs, plain.TotalNs)
	}
	overhead := float64(probed.TotalNs-plain.TotalNs) / float64(plain.TotalNs)
	if overhead > 0.1 {
		t.Errorf("overhead suspiciously large: %.3f", overhead)
	}
}
