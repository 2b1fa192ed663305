package vm

import (
	"errors"
	"io"
	"strconv"

	"vsensor/internal/cluster"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
	"vsensor/internal/mpisim"
	"vsensor/internal/obs"
	"vsensor/internal/pmu"
	"vsensor/internal/resolve"
)

// Record is one sensor measurement: the virtual wall-time of one execution
// of an instrumented v-sensor on one rank, with PMU readings.
type Record struct {
	Sensor   int
	Rank     int
	Start    int64 // virtual ns
	End      int64
	Instr    int64   // PMU instruction delta (jittered)
	MissRate float64 // synthetic cache miss rate for this execution
}

// Duration returns the record's elapsed virtual time.
func (r Record) Duration() int64 { return r.End - r.Start }

// Sink consumes sensor records on the rank's own goroutine.
type Sink interface {
	OnRecord(Record)
}

// Clock is the rank-local virtual-time view handed to sinks: Now reads the
// rank's clock, AdvanceTo charges time to it. mpisim.Proc implements it.
type Clock interface {
	Now() int64
	AdvanceTo(t int64)
}

// ClockBinder is implemented by sinks (or sink chains) that charge virtual
// time to the rank they serve — e.g. a lossy-transport emitter whose retry
// and backoff delays must show up in the rank's execution time. The VM
// binds the rank's clock once, before execution starts.
type ClockBinder interface {
	BindClock(Clock)
}

// EventKind classifies runtime events for tracer/profiler baselines.
type EventKind uint8

// Event kinds.
const (
	EvComp EventKind = iota // a span of local computation
	EvNet                   // an MPI operation
	EvIO                    // an io_read/io_write
)

// Event is a runtime event for baseline tools (mpiP/ITAC equivalents).
type Event struct {
	Rank  int
	Kind  EventKind
	Op    string // operation name for Net/IO events
	Start int64
	End   int64
	Bytes int64
}

// EventSink consumes events on the rank's own goroutine.
type EventSink interface {
	OnEvent(Event)
}

// Config controls a run.
type Config struct {
	Ranks   int
	Cluster *cluster.Cluster

	// SinkFactory builds the per-rank consumer of sensor records (the
	// on-line detector). Nil discards records.
	SinkFactory func(rank int) Sink

	// EventFactory builds the per-rank consumer of runtime events
	// (profiler/tracer baselines). Nil disables event generation.
	EventFactory func(rank int) EventSink

	// MissRate supplies the synthetic cache-miss-rate signal per sensor
	// execution (paper §5.3 dynamic rules). Nil yields 0.
	MissRate func(rank, sensor int, execIdx int64) float64

	// PMUJitterPct bounds the PMU read error (paper §6.2 validation).
	PMUJitterPct float64

	// ProbeCostNs is the virtual cost charged for each Tick/Tock probe
	// pair; this is what makes instrumentation overhead non-zero.
	ProbeCostNs float64

	// MaxSteps bounds interpreted statements per rank (runaway guard).
	// Zero selects a large default.
	MaxSteps int64

	// Stdout receives print() output; nil discards it. Ranks take turns
	// (mpisim runs one at a time), so writes never interleave.
	Stdout io.Writer

	// Obs attaches the self-observability layer: per-rank execution spans,
	// record/step/probe counters, and event counts by kind. Nil (the
	// default) disables all of it; the simulation's virtual time is
	// identical either way.
	Obs *obs.Obs

	Seed int64
}

// Cost model: nominal nanoseconds charged per interpreted operation.
const (
	stmtCostNs      = 2.0 // per executed statement
	exprCostNs      = 0.8 // per evaluated expression node
	flopCostNs      = 0.5 // per unit of flops(n)
	memCostNs       = 1.0 // per unit of mem(n), charged as memory time
	defaultMaxSteps = int64(2_000_000_000)
)

// RankStats summarizes one rank's run.
type RankStats struct {
	Rank    int
	Total   int64 // final virtual clock
	CompNs  int64 // time in local computation
	NetNs   int64 // time inside MPI operations
	IONs    int64 // time inside IO operations
	Instr   int64 // exact instructions retired
	Records int   // sensor records emitted
	Err     error
}

// Result is the outcome of a run.
type Result struct {
	TotalNs int64 // job execution time (max over ranks)
	Ranks   []RankStats
}

// Err returns the first rank error, if any.
func (r *Result) Err() error {
	for _, s := range r.Ranks {
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// Machine executes a program (instrumented or not) on a simulated cluster.
type Machine struct {
	prog *ir.Program
	ins  *instrument.Instrumented // nil when running uninstrumented
	cfg  Config

	mainFn     *minic.FuncDecl
	numSensors int
	// code is the program compiled to closures, built once here and run
	// read-only by every rank (compile.go).
	code *code
}

// New creates a machine for an uninstrumented program.
func New(prog *ir.Program, cfg Config) *Machine {
	return newMachine(prog, nil, cfg)
}

// NewInstrumented creates a machine that fires Tick/Tock around the
// instrumented sensors.
func NewInstrumented(ins *instrument.Instrumented, cfg Config) *Machine {
	return newMachine(ins.Prog, ins, cfg)
}

func newMachine(prog *ir.Program, ins *instrument.Instrumented, cfg Config) *Machine {
	// ir.Build resolves slots; ASTs constructed some other way get the pass
	// here so the interpreter can assume a resolved program.
	if !prog.AST.Resolved {
		resolve.Resolve(prog.AST)
	}
	m := &Machine{prog: prog, ins: ins, cfg: cfg, mainFn: prog.AST.Func("main")}
	if ins != nil {
		m.numSensors = len(ins.Sensors)
	}
	m.code = compile(m)
	return m
}

// sensorOfLoop returns the sensor ID instrumenting a loop, or -1. Asked
// once per site, at compile time.
func (m *Machine) sensorOfLoop(loopID int) int {
	if m.ins != nil && loopID >= 0 && loopID < len(m.prog.Loops) {
		if s := m.ins.LoopSensor[loopID]; s != nil {
			return s.ID
		}
	}
	return -1
}

// sensorOfCall returns the sensor ID instrumenting a call site, or -1.
func (m *Machine) sensorOfCall(callID int) int {
	if m.ins != nil && callID >= 0 && callID < len(m.prog.Calls) {
		if s := m.ins.CallSensor[callID]; s != nil {
			return s.ID
		}
	}
	return -1
}

// Run executes main() on every rank and returns aggregate results.
func (m *Machine) Run() *Result {
	cfg := m.cfg
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	if cfg.Cluster == nil {
		cfg.Cluster = cluster.New(cluster.Config{Nodes: 1, RanksPerNode: cfg.Ranks})
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	if m.mainFn == nil {
		return &Result{Ranks: []RankStats{{Err: errors.New("vm: program has no main function")}}}
	}

	o := cfg.Obs
	vmMetrics := newRankMetrics(o) // nil-safe: nil obs yields no-op handles
	if o != nil {
		cfg.Cluster.SetObs(o)
		if cfg.EventFactory != nil {
			inner := cfg.EventFactory
			counts := [3]*obs.Counter{
				EvComp: o.Counter("vm_events_total", "kind", "comp"),
				EvNet:  o.Counter("vm_events_total", "kind", "net"),
				EvIO:   o.Counter("vm_events_total", "kind", "io"),
			}
			cfg.EventFactory = func(rank int) EventSink {
				return &countingEventSink{next: inner(rank), counts: counts}
			}
		}
		for r := 0; r < cfg.Ranks; r++ {
			o.NameThread(r+1, "rank "+strconv.Itoa(r))
		}
	}

	world := mpisim.NewWorld(cfg.Ranks, cfg.Cluster)
	world.SetObs(o)
	stats := make([]RankStats, cfg.Ranks)

	total := world.Run(func(p *mpisim.Proc) {
		var sp *obs.Span
		if o != nil {
			sp = o.Span(p.Rank+1, "rank").Arg("rank", strconv.Itoa(p.Rank))
		}
		vmMetrics.active.Add(1)
		in := newInterp(m, p, cfg)
		err := in.runMain()
		in.flush()
		stats[p.Rank] = RankStats{
			Rank:    p.Rank,
			Total:   p.Now(),
			CompNs:  in.compNs,
			NetNs:   in.netNs,
			IONs:    in.ioNs,
			Instr:   in.pmu.Exact(),
			Records: in.records,
			Err:     err,
		}
		vmMetrics.flushRank(&stats[p.Rank], in)
		vmMetrics.active.Add(-1)
		sp.End()
	})
	return &Result{TotalNs: total, Ranks: stats}
}

// rankMetrics holds the vm-level counter handles, resolved once per run.
// Per-statement quantities (steps, probe time) are accumulated locally in
// each interp and flushed here once per rank, keeping the interpreter's
// inner loop free of shared-cache-line traffic.
type rankMetrics struct {
	active  *obs.Gauge
	records *obs.Counter
	steps   *obs.Counter
	probeNs *obs.Counter
	timeNs  [3]*obs.Counter // by EventKind category
}

func newRankMetrics(o *obs.Obs) *rankMetrics {
	return &rankMetrics{
		active:  o.Gauge("vm_active_ranks"),
		records: o.Counter("vm_records_total"),
		steps:   o.Counter("vm_steps_total"),
		probeNs: o.Counter("vm_probe_ns_total"),
		timeNs: [3]*obs.Counter{
			EvComp: o.Counter("vm_time_ns_total", "kind", "comp"),
			EvNet:  o.Counter("vm_time_ns_total", "kind", "net"),
			EvIO:   o.Counter("vm_time_ns_total", "kind", "io"),
		},
	}
}

// flushRank folds one finished rank's locally accumulated totals in.
func (rm *rankMetrics) flushRank(st *RankStats, in *interp) {
	rm.records.Add(int64(st.Records))
	rm.steps.Add(in.steps)
	rm.probeNs.Add(int64(in.probeNs))
	rm.timeNs[EvComp].Add(st.CompNs)
	rm.timeNs[EvNet].Add(st.NetNs)
	rm.timeNs[EvIO].Add(st.IONs)
}

// countingEventSink tees event counts by kind into the registry before the
// baseline sink (profiler/tracer) sees them.
type countingEventSink struct {
	next   EventSink
	counts [3]*obs.Counter
}

func (c *countingEventSink) OnEvent(e Event) {
	if int(e.Kind) < len(c.counts) {
		c.counts[e.Kind].Inc()
	}
	c.next.OnEvent(e)
}

// newPMU builds the per-rank counter.
func (m *Machine) newPMU(rank int) *pmu.Counter {
	return pmu.New(rank, m.cfg.Seed, m.cfg.PMUJitterPct)
}
