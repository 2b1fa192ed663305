package vm

import (
	"fmt"
	"testing"

	"vsensor/internal/analysis"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

// The VM benchmarks scale the interpreted program's outer loop by b.N, so
// ns/op and allocs/op converge to the steady-state cost of ONE loop
// iteration: fixed setup cost (parse, resolve, goroutine spawn) amortizes
// to zero as b.N grows. This is what makes "0 allocs/op on the
// variable-access path" a measurable acceptance criterion — any per-access
// or per-block allocation in the interpreter shows up as a nonzero
// allocs/op here.

func benchProg(b *testing.B, src string) *ir.Program {
	b.Helper()
	prog, err := ir.Build(minic.MustParse(src))
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkVarAccess measures pure name-resolution speed: every statement
// in the loop body is scalar variable traffic (locals at several block
// depths, a shadowed name, and a global), with no arrays, calls, or MPI.
func BenchmarkVarAccess(b *testing.B) {
	src := fmt.Sprintf(`
global int G = 1;
func main() {
    int a = 1;
    int c = 3;
    int s = 0;
    for (int i = 0; i < %d; i++) {
        int t = a + G;
        {
            int a = t + c;
            s = s + a;
        }
        s = s - t;
        G = G + 1;
    }
    if (s == 123456789) { print("never", s); }
}`, b.N)
	prog := benchProg(b, src)
	m := New(prog, Config{Ranks: 1})
	b.ReportAllocs()
	b.ResetTimer()
	res := m.Run()
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInterpHotLoop is the interpreter-bound workload of the
// acceptance criteria: mixed arithmetic, array indexing, function calls
// and control flow, still with zero simulated MPI/IO so wall time is pure
// interpreter speed.
func BenchmarkInterpHotLoop(b *testing.B) {
	src := fmt.Sprintf(`
global float ACC = 0.0;
func body(int k, float x) float {
    float r = x;
    for (int j = 0; j < 4; j++) {
        r = r + k * 0.5 - j;
    }
    return r;
}
func main() {
    float a[16];
    for (int i = 0; i < %d; i++) {
        int k = i - i / 16 * 16;
        a[k] = body(k, a[k]) - a[k] / 2.0;
        ACC = ACC + a[k];
        while (k > 12) {
            k--;
        }
    }
}`, b.N)
	prog := benchProg(b, src)
	m := New(prog, Config{Ranks: 1})
	b.ReportAllocs()
	b.ResetTimer()
	res := m.Run()
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCountedLoop is the charge tape's workload (compile.go): CG's
// matvec kernel, a counted loop whose body only charges flops and memory,
// entered once per outer iteration.
func BenchmarkCountedLoop(b *testing.B) {
	src := fmt.Sprintf(`
func matvec(int rows) {
    for (int r = 0; r < rows; r++) {
        flops(180);
        mem(96);
    }
}
func main() {
    for (int n = 0; n < %d; n++) {
        matvec(64);
    }
}`, b.N)
	prog := benchProg(b, src)
	m := New(prog, Config{Ranks: 1})
	b.ReportAllocs()
	b.ResetTimer()
	res := m.Run()
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCountedLoopShort is CG's dot_product: a charge tape too short to
// flush, entered once per outer iteration from the pending sums the
// reduction's flush leaves, so each entry ends inside one cached segment.
func BenchmarkCountedLoopShort(b *testing.B) {
	src := fmt.Sprintf(`
func dot_product(int n, float seed) float {
    float local = seed;
    for (int i = 0; i < n; i++) {
        flops(48);
    }
    return mpi_allreduce(8, local + 1.0);
}
func main() {
    float rho = 0.0;
    for (int n = 0; n < %d; n++) {
        rho = dot_product(64, rho);
    }
}`, b.N)
	prog := benchProg(b, src)
	m := New(prog, Config{Ranks: 1})
	b.ReportAllocs()
	b.ResetTimer()
	res := m.Run()
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
}

// discardSink drops records; the e2e bench measures engine + probe cost,
// not the detector.
type discardSink struct{}

func (discardSink) OnRecord(Record) {}

// BenchmarkRankRunE2E is the end-to-end configuration: an instrumented
// 4-rank program with sensors firing Tick/Tock probes and records flowing
// to a sink, i.e. the full per-record path the pipeline rides on.
func BenchmarkRankRunE2E(b *testing.B) {
	src := fmt.Sprintf(`
func main() {
    for (int n = 0; n < %d; n++) {
        for (int k = 0; k < 4; k++) {
            flops(50);
        }
        mpi_allreduce(16, 1.0);
    }
}`, b.N)
	prog := benchProg(b, src)
	ins := instrument.Apply(analysis.Analyze(prog), instrument.Config{})
	m := NewInstrumented(ins, Config{
		Ranks:       4,
		ProbeCostNs: 25,
		SinkFactory: func(int) Sink { return discardSink{} },
	})
	b.ReportAllocs()
	b.ResetTimer()
	res := m.Run()
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
}
