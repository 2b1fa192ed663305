package vm

import (
	"fmt"
	"math"

	"vsensor/internal/minic"
	"vsensor/internal/mpisim"
	"vsensor/internal/pmu"
)

// interp is one rank's state. The code it runs is the Machine's closure
// tree (compile.go), shared read-only by every rank; everything a closure
// mutates it reaches through its *interp argument. Locals live in flat
// frame windows carved out of a single growing value stack, globals in a
// dense per-rank array.
type interp struct {
	m    *Machine
	proc *mpisim.Proc
	cfg  Config

	// globals is the per-rank global array, indexed by GlobalDecl.Slot.
	// liveGlobals counts how many are initialized so far: during the global
	// initialization phase a forward reference faults exactly like the
	// scope-map interpreter's progressively filled table did.
	globals     []Value
	liveGlobals int

	// stack backs all function frames; a frame is the window
	// [base, base+NumSlots). It grows by appending, so *Value pointers into
	// it are taken fresh after any evaluation that could call a function.
	stack []Value
	// ret carries a return value from the return statement that produced it
	// up to the callFn that consumes and clears it. A *Value threaded through
	// the closures instead would force callFn's local to the heap (indirect
	// calls defeat escape analysis): one allocation per user call.
	ret Value
	// argBuf is scratch for evaluating call arguments in the caller's frame
	// before they are copied into the callee's; stack discipline (marks)
	// makes nested calls in argument position safe, and the buffer is
	// reused so steady-state calls allocate nothing.
	argBuf []Value

	pmu    *pmu.Counter
	sink   Sink
	events EventSink

	// pending nominal costs not yet charged to the virtual clock.
	pendingCPU float64
	pendingMem float64

	// time accounting per category.
	compNs, netNs, ioNs int64

	// active sensor probes (nested probes form a stack).
	probes []probeFrame
	// probeNs accumulates the virtual cost charged for probes, flushed to
	// vm_probe_ns_total once per rank (probe-overhead accounting).
	probeNs float64
	// execIdx holds the per-sensor execution counters for the miss-rate
	// model, dense by sensor ID (sensor IDs are small contiguous ints from
	// instrument; it grows on demand for raw vs_tick/vs_tock source).
	// execIdxNeg backs the pathological negative-ID probes reachable only
	// from hand-written vs_tick calls; allocated lazily.
	execIdx    []int64
	execIdxNeg map[int]int64
	records    int

	steps int64
	rng   uint64

	// mpiCall is the MPI call last begun: the one a deadlock faults at.
	mpiCall *minic.CallExpr

	// Nonblocking point-to-point request table: outstanding requests are
	// few, so a small slice with linear search beats a map — posting and
	// completing a request allocates nothing once capacity is warm.
	nextReq  int64
	requests []reqEntry
}

// pendingReq is an outstanding mpi_isend/mpi_irecv awaiting mpi_wait.
type pendingReq struct {
	isRecv bool
	peer   int
	bytes  int64
}

// reqEntry is one outstanding request in the small-slice table.
type reqEntry struct {
	id  int64
	req pendingReq
}

type probeFrame struct {
	sensor  int
	start   int64
	instrAt int64
}

// ctrl signals non-linear control flow during statement execution.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func newInterp(m *Machine, proc *mpisim.Proc, cfg Config) *interp {
	in := &interp{
		m:       m,
		proc:    proc,
		cfg:     cfg,
		pmu:     m.newPMU(proc.Rank),
		execIdx: make([]int64, m.numSensors),
		rng:     uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(proc.Rank) + 0x632be59bd9b4e019,
	}
	if cfg.SinkFactory != nil {
		in.sink = cfg.SinkFactory(proc.Rank)
		if b, ok := in.sink.(ClockBinder); ok {
			b.BindClock(proc)
		}
	}
	if cfg.EventFactory != nil {
		in.events = cfg.EventFactory(proc.Rank)
	}
	return in
}

// runMain initializes globals in declaration order and executes main().
func (in *interp) runMain() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re := in.fault(r); re != nil {
				err = re
				return
			}
			panic(r)
		}
	}()
	inits := in.m.code.globals
	in.globals = make([]Value, len(inits))
	for i, init := range inits {
		// A global is visible only once its own initializer has run: a
		// function called from an initializer faults on a later global.
		in.liveGlobals = i
		in.globals[i] = init(in, 0)
	}
	in.liveGlobals = len(inits)
	in.callFn(in.m.code.main, nil, minic.Pos{Line: 1, Col: 1})
	return nil
}

// fault returns the runtime fault a recovered panic value stands for, or
// nil: a *RuntimeError, or an MPI deadlock, which faults at the call the
// rank was parked in.
func (in *interp) fault(r any) *RuntimeError {
	switch e := r.(type) {
	case *RuntimeError:
		return e
	case *mpisim.Deadlock:
		return rtErr(in.proc.Rank, in.mpiCall.Pos(), "%s: %v", in.mpiCall.Name, e)
	}
	return nil
}

// ---------- cost accounting ----------

const flushThresholdNs = 5000

func (in *interp) charge(cpu, mem float64) {
	in.pendingCPU += cpu
	in.pendingMem += mem
	if in.pendingCPU+in.pendingMem >= flushThresholdNs {
		in.flush()
	}
}

// flush converts pending nominal work into virtual time.
func (in *interp) flush() {
	if in.pendingCPU == 0 && in.pendingMem == 0 {
		return
	}
	before := in.proc.Now()
	in.proc.Compute(in.pendingCPU, in.pendingMem)
	in.compNs += in.proc.Now() - before
	in.pendingCPU, in.pendingMem = 0, 0
}

// step charges one statement; pos is the statement's, for the step-limit
// fault.
func (in *interp) step(pos minic.Pos) {
	in.steps++
	if in.steps > in.cfg.MaxSteps {
		panic(rtErr(in.proc.Rank, pos, "step limit exceeded (%d): possible runaway loop", in.cfg.MaxSteps))
	}
	in.pmu.AddInstructions(1)
	in.charge(stmtCostNs, 0)
}

// ---------- probes (Tick/Tock) ----------

func (in *interp) tick(sensor int) {
	in.flush()
	if in.cfg.ProbeCostNs > 0 {
		in.charge(in.cfg.ProbeCostNs, 0)
		in.flush()
		in.probeNs += in.cfg.ProbeCostNs
	}
	in.probes = append(in.probes, probeFrame{
		sensor:  sensor,
		start:   in.proc.Now(),
		instrAt: in.pmu.Exact(),
	})
}

func (in *interp) tock(sensor int) {
	in.flush()
	if len(in.probes) == 0 {
		panic(rtErr(in.proc.Rank, minic.Pos{}, "vs_tock(%d) without matching vs_tick", sensor))
	}
	pf := in.probes[len(in.probes)-1]
	in.probes = in.probes[:len(in.probes)-1]
	if pf.sensor != sensor {
		panic(rtErr(in.proc.Rank, minic.Pos{}, "vs_tock(%d) does not match vs_tick(%d)", sensor, pf.sensor))
	}
	if in.cfg.ProbeCostNs > 0 {
		in.charge(in.cfg.ProbeCostNs, 0)
		in.flush()
		in.probeNs += in.cfg.ProbeCostNs
	}
	idx := in.bumpExecIdx(sensor)
	var miss float64
	if in.cfg.MissRate != nil {
		miss = in.cfg.MissRate(in.proc.Rank, sensor, idx)
	}
	if in.sink != nil {
		exact := in.pmu.Exact() - pf.instrAt
		measured := in.jitterInstr(exact)
		in.sink.OnRecord(Record{
			Sensor:   sensor,
			Rank:     in.proc.Rank,
			Start:    pf.start,
			End:      in.proc.Now(),
			Instr:    measured,
			MissRate: miss,
		})
		in.records++
	}
}

// bumpExecIdx post-increments the sensor's execution counter. Instrumented
// runs hit the pre-sized dense slice; raw vs_tick source with larger IDs
// grows it on demand, and negative IDs fall back to a lazy map.
func (in *interp) bumpExecIdx(sensor int) int64 {
	if sensor < 0 {
		if in.execIdxNeg == nil {
			in.execIdxNeg = make(map[int]int64)
		}
		idx := in.execIdxNeg[sensor]
		in.execIdxNeg[sensor] = idx + 1
		return idx
	}
	if sensor >= len(in.execIdx) {
		grown := make([]int64, sensor+1)
		copy(grown, in.execIdx)
		in.execIdx = grown
	}
	idx := in.execIdx[sensor]
	in.execIdx[sensor] = idx + 1
	return idx
}

// jitterInstr applies the PMU measurement error to a span count.
func (in *interp) jitterInstr(v int64) int64 {
	if in.cfg.PMUJitterPct == 0 || v == 0 {
		return v
	}
	in.rng = in.rng*6364136223846793005 + 1442695040888963407
	u := float64(in.rng>>11) / float64(1<<53)
	out := int64(math.Round(float64(v) * (1 + in.cfg.PMUJitterPct*(2*u-1))))
	if out < 0 {
		out = 0
	}
	return out
}

// ---------- calls ----------

// callFn executes a user-defined function over a frame window pushed onto
// the value stack. args may alias in.argBuf; they are copied (with
// coercion) into the frame before evaluation continues.
func (in *interp) callFn(fn *funcCode, args []Value, pos minic.Pos) Value {
	decl := fn.decl
	if len(args) != len(decl.Params) {
		panic(rtErr(in.proc.Rank, pos, "%s expects %d args, got %d", decl.Name, len(decl.Params), len(args)))
	}
	nb := len(in.stack)
	top := nb + int(decl.NumSlots)
	if top <= cap(in.stack) {
		in.stack = in.stack[:top]
	} else {
		in.stack = append(in.stack, make([]Value, top-nb)...)
	}
	for i := range decl.Params {
		in.stack[nb+i] = coerce(args[i], decl.Params[i].Type)
	}
	// in.ret is the zero Value here and after every nested call; falling
	// off the end leaves it so, and it coerces to the declared type's zero.
	fn.body.run(in, nb)
	ret := in.ret
	in.ret = Value{}
	// Clear the frame before popping so array values don't outlive the
	// activation in the reused stack memory. Slots are never read before
	// their declaration re-executes, so this is purely for the GC.
	clear(in.stack[nb:])
	in.stack = in.stack[:nb]
	return coerce(ret, decl.Ret)
}

// netBegin opens an MPI operation: pending work is flushed so the operation
// starts at the rank's true clock, which it returns.
func (in *interp) netBegin(call *minic.CallExpr) int64 {
	in.mpiCall = call
	in.flush()
	return in.proc.Now()
}

// netEnd accounts the time since start as network time and emits the trace
// event.
func (in *interp) netEnd(name string, bytes, start int64) {
	end := in.proc.Now()
	in.netNs += end - start
	if in.events != nil {
		in.events.OnEvent(Event{Rank: in.proc.Rank, Kind: EvNet, Op: name, Start: start, End: end, Bytes: bytes})
	}
}

// postReq records an outstanding nonblocking request in the small-slice
// table (appends reuse freed capacity, so steady-state posting is
// allocation-free).
func (in *interp) postReq(id int64, req pendingReq) {
	in.requests = append(in.requests, reqEntry{id: id, req: req})
}

// takeReq removes and returns the request with the given id. Outstanding
// requests are few, so linear scan + swap-remove beats a map.
func (in *interp) takeReq(id int64) (pendingReq, bool) {
	for i := range in.requests {
		if in.requests[i].id == id {
			req := in.requests[i].req
			last := len(in.requests) - 1
			in.requests[i] = in.requests[last]
			in.requests = in.requests[:last]
			return req, true
		}
	}
	return pendingReq{}, false
}

func (in *interp) checkRank(call *minic.CallExpr, r int64) {
	if r < 0 || r >= int64(in.proc.World.P) {
		panic(rtErr(in.proc.Rank, call.Pos(), "%s: rank %d out of range [0,%d)", call.Name, r, in.proc.World.P))
	}
}

func (in *interp) boundCheck(pos minic.Pos, idx int64, n int) {
	if idx < 0 || idx >= int64(n) {
		panic(rtErr(in.proc.Rank, pos, "index %d out of range [0,%d)", idx, n))
	}
}

// ---------- helpers ----------

func truthy(v Value) bool {
	if v.Kind == KFloat {
		return v.F != 0
	}
	return v.I != 0
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// coerce converts a value to a declared type.
func coerce(v Value, t minic.Type) Value {
	switch t {
	case minic.TypeInt:
		return IntVal(v.AsInt())
	case minic.TypeFloat:
		return FloatVal(v.AsFloat())
	}
	return v
}

// coerceLike converts v to the kind of model (for assignments).
func coerceLike(v Value, model Value) Value {
	switch model.Kind {
	case KInt:
		return IntVal(v.AsInt())
	case KFloat:
		return FloatVal(v.AsFloat())
	}
	return v
}

func (in *interp) printf(args []Value, lits []string) {
	if in.cfg.Stdout == nil {
		return
	}
	out := ""
	for i, a := range args {
		if i > 0 {
			out += " "
		}
		if lits[i] != "" {
			out += lits[i]
		} else {
			out += a.String()
		}
	}
	fmt.Fprintf(in.cfg.Stdout, "[rank %d] %s\n", in.proc.Rank, out)
}
