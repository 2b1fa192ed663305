// Package vsensor is a full reimplementation of the vSensor system from
// "vSensor: Leveraging Fixed-Workload Snippets of Programs for Performance
// Variance Detection" (PPoPP 2018) as a pure-Go library over a simulated
// HPC substrate.
//
// The pipeline mirrors the paper's workflow (Fig. 2):
//
//	src → Compile → Identify v-sensors → Instrument → Run → Analyze → Visualize
//
// Programs are written in mini-C (internal/minic), a small C-like language
// with MPI-style builtins, standing in for the paper's LLVM front end.
// Execution happens on a virtual cluster with injectable performance
// variance (internal/cluster + internal/mpisim), standing in for Tianhe-2.
//
// Quickstart:
//
//	report, err := vsensor.Run(src, vsensor.Options{Ranks: 64})
//	...
//	matrix := report.Matrices(200 * time.Millisecond)[ir.Computation]
//	fmt.Print(matrix.ASCII(32, 80))
package vsensor

import (
	"fmt"
	"io"
	"sync"
	"time"

	"vsensor/internal/analysis"
	"vsensor/internal/cluster"
	"vsensor/internal/detect"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
	"vsensor/internal/netsrv"
	"vsensor/internal/obs"
	"vsensor/internal/profiler"
	"vsensor/internal/rundata"
	"vsensor/internal/server"
	"vsensor/internal/stats"
	"vsensor/internal/tracer"
	"vsensor/internal/transport"
	"vsensor/internal/vis"
	"vsensor/internal/vm"
)

// Options configures the full pipeline.
type Options struct {
	// Ranks is the number of simulated MPI processes (default 1).
	Ranks int

	// Cluster is the machine model; nil creates a uniform single-node
	// cluster wide enough for Ranks.
	Cluster *cluster.Cluster

	// Analysis configures v-sensor identification (paper §3).
	Analysis analysis.Config

	// Instrument configures sensor selection (paper §4).
	Instrument instrument.Config

	// Detect configures the on-line runtime analysis (paper §5).
	Detect detect.Config

	// Uninstrumented skips instrumentation and detection entirely
	// (baseline runs for overhead measurements).
	Uninstrumented bool

	// ServerShards is the analysis server's ingest shard count (rounded up
	// to a power of two; default server.DefaultShards). Each sender rank's
	// flow state and record sub-log live on one shard, so more shards admit
	// more concurrently ingesting ranks.
	ServerShards int

	// Transport tunes the reliable record link every instrumented run
	// delivers over (batch size, lease); its retry schedule and retransmit
	// buffer are fixed. Nil uses the defaults.
	Transport *transport.Config

	// Faults injects transport faults (drop/dup/reorder/delay/corrupt and
	// server crash-restart) on the record link; retry and backoff delays
	// are charged to the ranks' virtual clocks. Nil is the perfect
	// network: the same link with nothing injected.
	Faults *transport.FaultPlan

	// RunID names this run on a Connect session. Default "local". 1..128
	// printable ASCII bytes — it travels in the vSS1 hello and keys the
	// run's tenant on the service.
	RunID string

	// Connect dials an external analysis service (started with `vsensor
	// serve`) at this address instead of creating a local server.
	// Report.Server is nil — the records, coverage, and outlier verdicts
	// live on the remote service under RunID — and Durability must be nil
	// (the journal belongs to the service's side of the socket).
	Connect string

	// Reconnect tunes the self-healing session a Connect run delivers over
	// (netsrv.ResilientSession, exposed as Report.Resilient): its first
	// dial fails fast on network errors and honors vSE1 retry-after hints
	// within the retry budget; after that it auto-redials on connection
	// loss with jittered exponential backoff and resumes delivery at the
	// durable LSN from the session ack. Only the Retry field is consulted —
	// Addr and Hello are filled from Connect and RunID; the deadlines (5s
	// per connect, 10s per operation), the 5ms→500ms backoff and the
	// 256-frame window are netsrv constants. Nil uses the defaults; setting
	// it without Connect is an error.
	Reconnect *netsrv.ReconnectConfig

	// Durability attaches the analysis server's WAL + snapshot layer
	// (internal/storage-backed). With it, the Faults crash window becomes a
	// real crash: the server's memory is wiped, its disk crashes (losing
	// unsynced tails), and recovery rebuilds state from snapshot + WAL
	// replay before ingest resumes. Nil keeps the purely in-memory server.
	Durability *server.DurabilityConfig

	// ProbeCostNs is the virtual cost of each Tick/Tock probe (what makes
	// overhead non-zero). Default 25ns.
	ProbeCostNs float64

	// PMUJitterPct bounds simulated PMU read error (paper §6.2).
	PMUJitterPct float64

	// MissRate supplies the synthetic cache-miss-rate signal (paper §5.3).
	//vs:option the §5.3 cache-miss signal has no source in the simulated PMU, so only tests supply one (ROADMAP item 4)
	MissRate func(rank, sensor int, execIdx int64) float64

	// CollectRecords retains every raw sensor record for distribution
	// statistics (Figs. 16-17). Costs memory on large runs.
	CollectRecords bool

	// Profile attaches the mpiP-style baseline profiler.
	Profile bool

	// Trace attaches the ITAC-style baseline tracer.
	Trace bool

	// Lineage enables end-to-end record-lineage tracing: a seeded
	// deterministic sampler picks ~1/SampleEvery frames by (rank, seq), and
	// every hop of a sampled record's journey — emit, enqueue, delivery
	// attempts and retries, server ingest, dedup, WAL append/sync,
	// snapshot, epoch close, verdict — derives the same trace ID from the
	// frame header and lands its span in a bounded in-memory flight
	// recorder (obs.FlightRecorder) with per-stage latency histograms +
	// exemplars. Requires Obs; one is created automatically when nil. No
	// byte on the wire or in the journal changes either way; nil disables
	// lineage entirely, and then no hop ever reads the clock.
	Lineage *obs.LineageConfig

	// Obs attaches the self-observability layer (internal/obs): pipeline
	// stage spans, per-rank execution spans, metric families across the
	// vm/detect/server/mpisim/cluster packages, and — via obs.Serve — a
	// live HTTP introspection endpoint whose /status and /records are
	// wired to this run while it executes. Nil disables all of it; the
	// simulated virtual time is identical either way.
	Obs *obs.Obs

	// Stdout receives program print() output.
	Stdout io.Writer

	// MaxSteps bounds interpreted statements per rank.
	MaxSteps int64

	Seed int64
}

// DefaultProbeCostNs is the Tick/Tock virtual cost when unset.
const DefaultProbeCostNs = 25

// Report is the outcome of a pipeline run.
type Report struct {
	Program      *ir.Program
	Analysis     *analysis.Result
	Instrumented *instrument.Instrumented // nil for uninstrumented runs
	Result       *vm.Result
	Server       *server.Server           // nil in Connect mode: the run's server lives on the remote service
	Link         *transport.Link          // the record link; nil only for uninstrumented runs
	Resilient    *netsrv.ResilientSession // non-nil in Connect mode: the self-healing session the link delivers over
	Detectors    []*detect.Detector
	Records      []vm.Record // raw sensor records if collected
	Profiler     *profiler.Profile
	Tracer       *tracer.Trace

	lin *obs.Lineage // record-lineage tracer, nil unless Options.Lineage
}

// Compile parses, resolves, and semantically checks a mini-C program.
// Building the IR also runs the slot-resolution pass (internal/resolve),
// so the returned program's AST carries the frame/global addressing the
// VM's flat-frame interpreter executes over.
func Compile(src string) (*ir.Program, error) {
	ast, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := ir.Build(ast)
	if err != nil {
		return nil, err
	}
	if err := ir.CheckStrict(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// Analyze runs v-sensor identification on source text.
func Analyze(src string, cfg analysis.Config) (*analysis.Result, error) {
	prog, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return analysis.AnalyzeWith(prog, cfg), nil
}

// InstrumentSource returns the instrumented mini-C source with vs_tick /
// vs_tock probes — the paper's "map to source" output.
func InstrumentSource(src string, acfg analysis.Config, icfg instrument.Config) (string, error) {
	res, err := Analyze(src, acfg)
	if err != nil {
		return "", err
	}
	return instrument.Apply(res, icfg).EmitSource(), nil
}

// Run executes the full pipeline on source text.
func Run(src string, opt Options) (*Report, error) {
	sp := opt.Obs.Span(0, "compile")
	prog, err := Compile(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	return RunProgram(prog, opt)
}

// RunProgram executes the full pipeline on a compiled program.
func RunProgram(prog *ir.Program, opt Options) (*Report, error) {
	if opt.Ranks <= 0 {
		opt.Ranks = 1
	}
	if opt.ProbeCostNs == 0 {
		opt.ProbeCostNs = DefaultProbeCostNs
	}
	o := opt.Obs
	if opt.Lineage != nil {
		if o == nil {
			o = obs.New()
			opt.Obs = o
		}
		o.EnableLineage(*opt.Lineage)
	}
	o.NameThread(0, "pipeline")
	o.Gauge("run_ranks").Set(float64(opt.Ranks))
	rep := &Report{Program: prog, lin: o.Lineage()}

	sp := o.Span(0, "identify")
	rep.Analysis = analysis.AnalyzeWith(prog, opt.Analysis)
	sp.End()

	vcfg := vm.Config{
		Ranks:        opt.Ranks,
		Cluster:      opt.Cluster,
		PMUJitterPct: opt.PMUJitterPct,
		MissRate:     opt.MissRate,
		Stdout:       opt.Stdout,
		Seed:         opt.Seed,
		MaxSteps:     opt.MaxSteps,
		Obs:          o,
	}
	if opt.Profile {
		rep.Profiler = profiler.New()
	}
	if opt.Trace {
		rep.Tracer = tracer.New()
	}
	if opt.Profile || opt.Trace {
		vcfg.EventFactory = func(rank int) vm.EventSink {
			var sinks []vm.EventSink
			if rep.Profiler != nil {
				sinks = append(sinks, rep.Profiler.Collector(rank))
			}
			if rep.Tracer != nil {
				sinks = append(sinks, rep.Tracer.Collector(rank))
			}
			if len(sinks) == 1 {
				return sinks[0]
			}
			return multiEventSink(sinks)
		}
	}

	tcfg := transport.Config{}
	if opt.Transport != nil {
		tcfg = *opt.Transport
	}
	var mach *vm.Machine
	var collectors []*recordCollector
	var mu sync.Mutex
	if !opt.Uninstrumented {
		isp := o.Span(0, "instrument")
		rep.Instrumented = instrument.Apply(rep.Analysis, opt.Instrument)
		isp.End()
		if opt.Connect != "" && opt.Durability != nil {
			return nil, fmt.Errorf("vsensor: Options.Durability tunes the local analysis server; a Connect run has none (configure the remote service instead)")
		}
		if opt.Reconnect != nil && opt.Connect == "" {
			return nil, fmt.Errorf("vsensor: Options.Reconnect needs a networked session (set Connect)")
		}
		opt.Detect.Obs = o
		vcfg.ProbeCostNs = opt.ProbeCostNs

		// The one record path: detect → Conn → Link → Medium. The medium is
		// the run's own server, or in Connect mode the self-healing session
		// to the `vsensor serve` that hosts the run's tenant.
		var medium transport.Medium
		if opt.Connect == "" {
			rep.Server = server.NewSharded(opt.ServerShards)
			if opt.Durability != nil {
				rep.Server.AttachDurability(*opt.Durability)
			}
			rep.Server.SetObs(o)
			medium = rep.Server
		} else {
			rc := netsrv.ReconnectConfig{}
			if opt.Reconnect != nil {
				rc = *opt.Reconnect
			}
			rc.Addr = opt.Connect
			rc.Hello = netsrv.Hello{RunID: opt.RunID}
			if rc.Hello.RunID == "" {
				rc.Hello.RunID = "local"
			}
			if rc.Retry.Seed == 0 {
				// Backoff jitter stays reproducible with everything else.
				rc.Retry.Seed = opt.Seed
			}
			rs, err := netsrv.DialResilient(rc)
			if err != nil {
				return nil, err
			}
			defer rs.Close()
			rs.SetObs(o)
			rep.Resilient = rs
			medium = rs
		}

		plan := transport.FaultPlan{}
		if opt.Faults != nil {
			plan = *opt.Faults
		}
		rep.Link = transport.NewLinkOver(medium, plan)
		rep.Link.SetObs(o)
		if opt.Durability != nil {
			// A durable server makes the crash window stateful: entering
			// it wipes the server, leaving it runs WAL recovery.
			srv := rep.Server
			rep.Link.SetCrashHooks(
				//vs:discard Crash errs only without durability, which this branch has.
				func() { _ = srv.Crash() },
				//vs:discard Recover errs only on a missing disk file; the link
				// crashes the server before it ever recovers it.
				func() { _, _ = srv.Recover() },
			)
		}
		meta := make([]detect.Sensor, len(rep.Instrumented.Sensors))
		for i, s := range rep.Instrumented.Sensors {
			meta[i] = detect.Sensor{ID: s.ID, Type: s.Type, ProcessFixed: s.ProcessFixed, Name: s.Name}
		}
		rep.Detectors = make([]*detect.Detector, opt.Ranks)
		conns := make([]*transport.Conn, opt.Ranks)
		vcfg.SinkFactory = func(rank int) vm.Sink {
			conn := rep.Link.NewConn(rank, tcfg)
			d := detect.New(rank, meta, opt.Detect, conn)
			mu.Lock()
			rep.Detectors[rank] = d
			conns[rank] = conn
			mu.Unlock()
			if !opt.CollectRecords {
				return d
			}
			rc := &recordCollector{next: d}
			mu.Lock()
			collectors = append(collectors, rc)
			mu.Unlock()
			return rc
		}
		// Registered after the session closer above, so it runs first: the
		// ranks flush into a medium that is still open.
		defer func() {
			for _, d := range rep.Detectors {
				if d != nil {
					d.Finish()
				}
			}
			for _, c := range conns {
				if c != nil {
					//vs:discard loss is visible in Report.Coverage, or in
					// Connect mode in the service's coverage of the run.
					_ = c.Close()
				}
			}
		}()
		mach = vm.NewInstrumented(rep.Instrumented, vcfg)
	} else {
		mach = vm.New(prog, vcfg)
	}

	if o != nil {
		// Wire the live introspection providers to this run so /status and
		// /records polls observe the job while it executes (paper §2:
		// on-line reporting without waiting for the program to finish).
		// The providers outlive the run (an -http-hold endpoint keeps
		// polling them), so they capture the handles they read, not opt
		// and rep wholesale.
		srv, rs := rep.Server, rep.Resilient
		static := runStatus{Ranks: opt.Ranks, Uninstrumented: opt.Uninstrumented,
			BatchSize: tcfg.BatchSize, ProbeCostNs: opt.ProbeCostNs, Remote: opt.Connect}
		if static.BatchSize <= 0 {
			static.BatchSize = server.DefaultBatchSize
		}
		if rep.Instrumented != nil {
			static.Sensors = len(rep.Instrumented.Sensors)
		}
		if srv != nil {
			static.ServerShards = srv.Shards()
		}
		status := func(v *server.StatusView) any {
			st := static
			st.StatusView = v
			if rs != nil {
				st.Reconnect = ptr(rs.Stats())
			}
			if lin := o.Lineage(); lin != nil {
				st.Lineage = ptr(lin.Stats())
			}
			return st
		}
		if srv != nil {
			// With a server the whole read surface — /status, /records,
			// /outliers, and the CLI's Report.Snapshot — serves from the
			// server's versioned report cache: one render per state change,
			// shared by every poller, revalidated by ETag.
			srv.ServeReport(o, status)
		} else {
			o.SetStatus(func() any { return status(nil) })
		}
	}

	esp := o.Span(0, "execute")
	rep.Result = mach.Run()
	esp.End()
	if err := rep.Result.Err(); err != nil {
		return rep, fmt.Errorf("vsensor: run failed: %w", err)
	}
	fsp := o.Span(0, "finalize")
	if rep.Profiler != nil {
		rep.Profiler.Finalize(rep.Result)
	}
	for _, rc := range collectors {
		rep.Records = append(rep.Records, rc.recs...)
	}
	fsp.End()
	return rep, nil
}

// runStatus is the /status "run" body: the server's view of the current
// generation (nil in Connect mode and on uninstrumented runs, dropping its
// fields) plus the run's shape. BatchSize is the effective batch, the
// default when Options.Transport leaves it unset.
type runStatus struct {
	*server.StatusView
	Ranks          int                    `json:"ranks"`
	Uninstrumented bool                   `json:"uninstrumented"`
	BatchSize      int                    `json:"batch_size"`
	ProbeCostNs    float64                `json:"probe_cost_ns"`
	Sensors        int                    `json:"sensors"`
	ServerShards   int                    `json:"server_shards,omitempty"`
	Remote         string                 `json:"remote,omitempty"`
	Reconnect      *netsrv.ResilientStats `json:"reconnect,omitempty"`
	Lineage        *obs.LineageStats      `json:"lineage,omitempty"`
}

// ptr returns a pointer to a copy of v.
func ptr[T any](v T) *T { return &v }

// recordCollector tees raw records into a slice before the detector.
type recordCollector struct {
	next vm.Sink
	recs []vm.Record
}

func (rc *recordCollector) OnRecord(r vm.Record) {
	rc.recs = append(rc.recs, r)
	rc.next.OnRecord(r)
}

// BindClock forwards the rank clock through the tee so a transport emitter
// behind the detector still charges virtual time.
func (rc *recordCollector) BindClock(c vm.Clock) {
	if b, ok := rc.next.(vm.ClockBinder); ok {
		b.BindClock(c)
	}
}

type multiEventSink []vm.EventSink

func (m multiEventSink) OnEvent(e vm.Event) {
	for _, s := range m {
		s.OnEvent(e)
	}
}

// ---------- report helpers ----------

// SensorTypes maps instrumented sensor IDs to component types.
func (r *Report) SensorTypes() map[int]ir.SnippetType {
	out := make(map[int]ir.SnippetType)
	if r.Instrumented == nil {
		return out
	}
	for _, s := range r.Instrumented.Sensors {
		out[s.ID] = s.Type
	}
	return out
}

// Matrices builds the per-type performance matrices (paper §5.5) at the
// given column resolution. It is nil in Connect mode: the records live on
// the remote service.
func (r *Report) Matrices(col time.Duration) map[ir.SnippetType]*vis.Matrix {
	if r.Server == nil {
		return nil
	}
	ranks := len(r.Result.Ranks)
	return vis.Build(r.Server.Records(), r.SensorTypes(), ranks, col.Nanoseconds())
}

// Distribution computes coverage / frequency / histograms (paper §6.3).
// Requires Options.CollectRecords.
func (r *Report) Distribution() *stats.Distribution {
	return stats.Analyze(r.Records, r.Result.TotalNs)
}

// Events returns all per-process variance events across ranks.
func (r *Report) Events() []detect.VarianceEvent {
	var out []detect.VarianceEvent
	for _, d := range r.Detectors {
		if d != nil {
			out = append(out, d.Events()...)
		}
	}
	return out
}

// DataVolume returns the bytes shipped to the analysis server.
func (r *Report) DataVolume() int64 {
	if r.Server == nil {
		return 0
	}
	return r.Server.Progress().Bytes
}

// Coverage returns the analysis server's delivery coverage: how completely
// its record log reflects what the ranks sent. Over a fault-free link it
// is always complete; under a faulty one it quantifies what was lost to
// backpressure.
func (r *Report) Coverage() server.Coverage {
	if r.Server == nil {
		return server.Coverage{}
	}
	return r.Server.Coverage()
}

// Snapshot returns the server's current versioned report snapshot — the
// same immutable render /status, /records, and /outliers serve, stamped
// with its generation, watermark, and arrival ticket. Nil when the run had
// no server (uninstrumented).
func (r *Report) Snapshot() *server.ReportSnapshot {
	if r.Server == nil {
		return nil
	}
	return r.Server.Snapshot()
}

// Durability returns the analysis server's WAL/snapshot statistics; the
// zero value when durability was not enabled (or the run was
// uninstrumented).
func (r *Report) Durability() server.DurabilityStats {
	if r.Server == nil {
		return server.DurabilityStats{}
	}
	return r.Server.DurabilityStats()
}

// Liveness returns every rank's lease state at the end of the run (empty
// without a server). Ranks that never negotiated a lease are always
// reported alive.
func (r *Report) Liveness() []server.RankLiveness {
	if r.Server == nil {
		return nil
	}
	return r.Server.Liveness()
}

// Lineage returns the run's record-lineage tracer, nil unless
// Options.Lineage enabled it. Use it to snapshot the flight recorder
// (Snapshot), read per-stage latency histograms (StageHistogram), or
// export a sampled record's journey into a Chrome trace
// (obs.Tracer.WriteChromeMerged).
func (r *Report) Lineage() *obs.Lineage { return r.lin }

// TotalSeconds returns the job's virtual execution time in seconds.
func (r *Report) TotalSeconds() float64 {
	return float64(r.Result.TotalNs) / 1e9
}

// Findings diagnoses variance structures from the per-type matrices at the
// given column resolution (paper workflow step 8). It is empty in Connect
// mode, where there are no local matrices: that is no verdict, not a clean
// one.
func (r *Report) Findings(col time.Duration) []vis.Finding {
	return vis.Diagnose(r.Matrices(col))
}

// ReportText renders the user-facing variance report. ranksPerNode > 0
// adds node attribution. In Connect mode it renders the empty Findings, so
// callers print the service's verdict instead.
func (r *Report) ReportText(col time.Duration, ranksPerNode int) string {
	return vis.RenderReport(r.Findings(col), ranksPerNode)
}

// TraceEvents returns the baseline tracer's events (nil unless
// Options.Trace was set).
func (r *Report) TraceEvents() []vm.Event {
	if r.Tracer == nil {
		return nil
	}
	return r.Tracer.AllEvents()
}

// SaveData persists the run's performance data (sensor metadata and slice
// records) so matrices and reports can be regenerated later without
// re-running the job (the paper's "Performance Data" artifact). It refuses
// a Connect run with sensors, writing nothing: its records live on the
// service, and its sensors saved without them would read back as a clean
// verdict.
func (r *Report) SaveData(w io.Writer) error {
	if r.Server == nil && r.Instrumented != nil && len(r.Instrumented.Sensors) > 0 {
		return fmt.Errorf("vsensor: SaveData: the run's records live on the analysis service, not in this process")
	}
	d := &rundata.RunData{
		Ranks:   len(r.Result.Ranks),
		TotalNs: r.Result.TotalNs,
	}
	if r.Instrumented != nil {
		for _, s := range r.Instrumented.Sensors {
			d.Sensors = append(d.Sensors, detect.Sensor{
				ID: s.ID, Type: s.Type, ProcessFixed: s.ProcessFixed, Name: s.Name,
			})
		}
	}
	if r.Server != nil {
		d.Records = r.Server.Records()
	}
	return rundata.Save(w, d)
}
