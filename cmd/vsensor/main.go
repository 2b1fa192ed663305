// Command vsensor is the command-line front end to the vSensor pipeline.
//
// Usage:
//
//	vsensor analyze    [flags] prog.mc   — identify v-sensors, print a table
//	vsensor instrument [flags] prog.mc   — emit instrumented source
//	vsensor run        [flags] prog.mc   — run with on-line detection
//	vsensor serve      [flags]           — host a multi-tenant analysis service over TCP
//	vsensor trace      [flags] run.json  — print sampled record journeys from a trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	vsensor "vsensor"
	"vsensor/internal/analysis"
	"vsensor/internal/cluster"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/netsrv"
	"vsensor/internal/obs"
	"vsensor/internal/rundata"
	"vsensor/internal/server"
	"vsensor/internal/transport"
	"vsensor/internal/validate"
	"vsensor/internal/vis"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: vsensor <command> [flags] <prog.mc | data-file | scenario>

analyze     identify v-sensors and print the identification table
instrument  emit instrumented mini-C source with vs_tick/vs_tock probes
run         execute on the simulated cluster with on-line detection
serve       host a standalone multi-tenant analysis service over TCP ('vsensor serve -h' for its flags)
validate    check fixed-workload property (PMU ratios, message sizes)
scenario    run a built-in evaluation scenario ('scenario list' to list)
report      regenerate the variance report from saved run data
trace       print per-record lineage timelines from a -trace-json file

flags:
`)
	flag.PrintDefaults()
	os.Exit(2)
}

var (
	ranks     = flag.Int("ranks", 8, "number of simulated MPI ranks")
	nodes     = flag.Int("nodes", 0, "cluster nodes (default ranks/8, min 1)")
	maxDepth  = flag.Int("maxdepth", 0, "instrumentation depth cutoff (0 = default 3)")
	staticRls = flag.Bool("staticrules", false, "enable extra static rules (communication peer)")
	slice     = flag.Duration("slice", time.Millisecond, "smoothing time slice")
	col       = flag.Duration("col", 2*time.Millisecond, "matrix column resolution")
	badNode   = flag.Int("badnode", -1, "degrade this node's memory to 55%")
	netWindow = flag.String("netwindow", "", "degrade network to 15% during A,B (fractions of expected run)")
	matrix    = flag.Bool("matrix", false, "print ASCII performance matrices")
	csvOut    = flag.String("csv", "", "write the computation matrix as CSV to this file")
	pngOut    = flag.String("png", "", "write per-type matrix heatmaps as PNG files with this prefix")
	saveOut   = flag.String("save", "", "save the run's performance data for later 'vsensor report'")
	quiet     = flag.Bool("q", false, "suppress program print() output")
	httpAddr  = flag.String("http", "", "serve the live introspection endpoint on this address (/metrics, /status, /records, /outliers)")
	httpHold  = flag.Duration("http-hold", 0, "keep the -http endpoint serving this long after the run finishes (for external pollers)")
	traceJSON = flag.String("trace-json", "", "write pipeline spans as Chrome trace_event JSON to this file")

	serverShards = flag.Int("server-shards", 0, "analysis-server ingest shards, rounded up to a power of two (0 = default 16)")

	faults = flag.String("faults", "", "inject record-transport faults, e.g. "+
		"drop=0.2,dup=0.05,reorder=0.1,corrupt=0.02,delay=20us,seed=7,crashafter=100,crashdown=20")
	batchSize = flag.Int("batch", 0, "records per analysis-server batch/frame (0 = default 64; 1 disables batching)")

	lineage      = flag.Bool("lineage", false, "enable record-lineage tracing: deterministically sample frames and record every hop of their journey in the flight recorder")
	lineageEvery = flag.Uint64("lineage-every", 0, "sample one frame in N for lineage (0 = default 256; 1 traces every frame)")
	traceID      = flag.String("trace-id", "", "restrict 'vsensor trace' to one hex trace ID")

	wal           = flag.Bool("wal", false, "make the analysis server durable: WAL + snapshots; crashafter faults wipe and recover it")
	snapshotEvery = flag.Int("snapshot-every", 0, "frames between automatic server checkpoints; needs -wal (0 = default 256, negative disables)")
	flushEvery    = flag.Int("flush-every", 0, "delivery outcomes per WAL commit group, one write+sync each; needs -wal (0 = default 1: every outcome is its own commit, ack implies durable)")
	lease         = flag.Duration("lease", 0, "rank liveness lease; ranks heartbeat every lease/2, go suspect after 1 lease of silence, dead after 3")

	connectAddr = flag.String("connect", "", "deliver records over TCP to an external 'vsensor serve' analysis service at this address (the run then has no in-process server)")
	runIDFlag   = flag.String("run-id", "", "run identifier for the networked session (needs -connect; default 'local')")

	dialRetryBudget = flag.Duration("dial-retry-budget", 0, "retry budget of the self-healing -connect session: for the first dial (vSE1 retry-after refusals only; network errors fail fast) and per later outage (0 = default 10s; needs -connect)")
)

// applyTransport maps the -faults / batch / lease / server / lineage knobs
// onto the run options, rejecting nonsense values before the pipeline sees
// them.
func applyTransport(opts *vsensor.Options) {
	if *serverShards < 0 {
		fatal(fmt.Errorf("bad -server-shards %d: shard count cannot be negative", *serverShards))
	}
	opts.ServerShards = *serverShards
	if *batchSize < 0 {
		fatal(fmt.Errorf("bad -batch %d: batch size cannot be negative", *batchSize))
	}
	if *snapshotEvery != 0 && !*wal {
		fatal(fmt.Errorf("-snapshot-every %d needs -wal (there is no journal to checkpoint)", *snapshotEvery))
	}
	if *flushEvery < 0 {
		fatal(fmt.Errorf("bad -flush-every %d: commit-group size cannot be negative", *flushEvery))
	}
	if *flushEvery != 0 && !*wal {
		fatal(fmt.Errorf("-flush-every %d needs -wal (there is no journal to tune)", *flushEvery))
	}
	if *lease < 0 {
		fatal(fmt.Errorf("bad -lease %s: lease cannot be negative", *lease))
	}
	if *httpHold < 0 {
		fatal(fmt.Errorf("bad -http-hold %s: hold cannot be negative", *httpHold))
	}
	if *httpHold > 0 && *httpAddr == "" {
		fatal(fmt.Errorf("-http-hold needs -http (there is no endpoint to hold open)"))
	}
	if *runIDFlag != "" && *connectAddr == "" {
		fatal(fmt.Errorf("-run-id needs -connect (there is no networked session to name)"))
	}
	if *connectAddr != "" {
		// A -connect run's records, and so its verdict, live on the
		// service: there is no local server to make durable or to render.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-wal", *wal}, {"-save", *saveOut != ""}, {"-matrix", *matrix},
			{"-csv", *csvOut != ""}, {"-png", *pngOut != ""},
		} {
			if f.set {
				fatal(fmt.Errorf("%s needs the in-process server; a -connect run has none (its records and verdict live on the serve side)", f.name))
			}
		}
	}
	opts.Connect = *connectAddr
	opts.RunID = *runIDFlag
	if *dialRetryBudget < 0 {
		fatal(fmt.Errorf("bad -dial-retry-budget %s: budget cannot be negative", *dialRetryBudget))
	}
	if *dialRetryBudget != 0 {
		if *connectAddr == "" {
			fatal(fmt.Errorf("-dial-retry-budget needs -connect (there is no networked dial to shape)"))
		}
		opts.Reconnect = &netsrv.ReconnectConfig{Retry: netsrv.RetryPolicy{MaxElapsed: *dialRetryBudget}}
	}
	if *faults != "" {
		plan, err := transport.ParsePlan(*faults)
		if err != nil {
			fatal(err)
		}
		opts.Faults = &plan
	}
	opts.Transport = &transport.Config{BatchSize: *batchSize, LeaseNs: lease.Nanoseconds()}
	if *wal {
		opts.Durability = &server.DurabilityConfig{SnapshotEvery: *snapshotEvery, FlushEvery: *flushEvery}
	}
	if *lineageEvery != 0 && !*lineage {
		fatal(fmt.Errorf("-lineage-every needs -lineage"))
	}
	if *lineage {
		opts.Lineage = &obs.LineageConfig{SampleEvery: *lineageEvery}
	}
}

// printLineage reports the flight recorder's view after a lineage-enabled
// run.
func printLineage(rep *vsensor.Report) {
	lin := rep.Lineage()
	if lin == nil {
		return
	}
	if rep.Server != nil {
		// Evaluate the final inter-process verdict so sampled journeys end
		// with their epoch close/verdict spans before the recorder is read
		// (epochs only close when a query passes the watermark over them);
		// the call is made for that side effect, its verdict is not needed.
		rep.Server.InterProcessOutliers(0.8)
	}
	st := lin.Stats()
	fmt.Printf("lineage: sampled %d frames (1 in %d, seed %d), %d spans recorded (flight cap %d)\n",
		st.SampledFrames, st.SampleEvery, st.Seed, st.Spans, st.FlightCap)
}

// runID is the -connect session's run name: -run-id, or the default.
func runID() string {
	if *runIDFlag == "" {
		return "local"
	}
	return *runIDFlag
}

// printVerdict prints the variance report, or, for a -connect run, where
// it lives: the records went to the service, so this process has none to
// diagnose and must not print a clean verdict it never computed.
func printVerdict(rep *vsensor.Report, ranksPerNode int) {
	if rep.Server == nil {
		fmt.Printf("verdict: on the analysis service at %s (run %q); this run holds no records to diagnose\n",
			*connectAddr, runID())
		return
	}
	fmt.Print(rep.ReportText(*col, ranksPerNode))
}

// printCoverage reports delivery coverage for a run with a local server,
// plus durability, liveness, and report-cache summaries when those layers
// were on. Everything reads through the server's versioned snapshot — the
// same render /status and /outliers serve.
func printCoverage(rep *vsensor.Report) {
	snap := rep.Snapshot()
	if snap == nil {
		return // Connect mode: coverage lives on the remote service
	}
	cov := snap.Coverage
	fmt.Printf("transport: plan [%s], coverage %.1f%% (%d/%d records, %d dup frames, %d checksum rejects)\n",
		rep.Link.Plan(), cov.Fraction()*100, cov.IngestedRecords, cov.ExpectedRecords,
		cov.DupFrames, cov.ChecksumErrors)
	if ds := snap.Durability; ds.Enabled {
		fmt.Printf("durability: gen %d, lsn %d, %d WAL entries (%d bytes, %d syncs), %d snapshots, %d recoveries\n",
			ds.Generation, ds.LSN, ds.WALEntries, ds.WALBytes, ds.Syncs, ds.Snapshots, ds.Recoveries)
		if ds.FlushEvery > 1 {
			fmt.Printf("group commit: %d outcomes/group, %d group commits, %d outcomes coalesced\n",
				ds.FlushEvery, ds.GroupCommits, ds.CoalescedEntries)
		}
		if ds.Recoveries > 0 {
			lr := ds.LastRecovery
			fmt.Printf("last recovery: snapshot gen %d + %d WAL entries replayed (%d frames, %d records, %d bytes truncated)\n",
				lr.SnapshotGen, lr.WALEntriesReplayed, lr.FramesReplayed, lr.RecordsRecovered, lr.TruncatedBytes)
		}
	}
	if rep.Server.Heartbeats() > 0 {
		ls := snap.Liveness
		fmt.Printf("liveness: %d alive, %d suspect, %d dead\n", ls.Alive, ls.Suspect, ls.Dead)
		out := snap.Report
		if out.Degraded {
			fmt.Printf("DEGRADED verdict: dead ranks %v excluded from watermark, confidence %.1f%% (coverage %.1f%% x liveness %.1f%%)\n",
				out.DeadRanks, out.Confidence*100, out.Coverage.Fraction()*100, out.LivenessConfidence*100)
		}
	}
	st := rep.Server.SnapshotStats()
	fmt.Printf("report cache: gen %d, %d reads, %d rebuilds (hit rate %.1f%%)\n",
		st.Gen, st.Reads, st.Builds, st.HitRate()*100)
}

// setupObs builds the observability bundle when -http or -trace-json is
// set, starting the HTTP endpoint immediately so it is pollable while the
// run executes. The returned finish func stops the endpoint and writes the
// trace file.
func setupObs() (*obs.Obs, func()) {
	if *httpAddr == "" && *traceJSON == "" {
		return nil, func() {}
	}
	o := obs.New()
	var srv *obs.HTTPServer
	if *httpAddr != "" {
		var err error
		srv, err = obs.Serve(*httpAddr, o)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "introspection: http://%s/ (/metrics /status /records /outliers)\n", srv.Addr())
	}
	return o, func() {
		if *traceJSON != "" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fatal(err)
			}
			// With lineage on, the sampled records' journeys ride along as
			// their own process row in the Chrome trace.
			if err := o.Tracer().WriteChromeMerged(f, o.Lineage()); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			extra := ""
			if flight, _ := o.Lineage().Snapshot(nil, 0); len(flight) > 0 {
				extra = fmt.Sprintf(" + %d lineage spans", len(flight))
			}
			fmt.Printf("wrote %s (%d spans%s)\n", *traceJSON, o.Tracer().Len(), extra)
		}
		if srv != nil {
			if *httpHold > 0 {
				// The run's summary lines are already out (finish is
				// deferred after them); keep serving the final snapshot so
				// external pollers can revalidate against the last ETag.
				time.Sleep(*httpHold)
			}
			srv.Close()
		}
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "serve" {
		doServe(os.Args[2:])
		return
	}
	flag.CommandLine.Parse(os.Args[2:])
	if flag.NArg() != 1 {
		usage()
	}
	if cmd == "report" {
		doReport(flag.Arg(0))
		return
	}
	if cmd == "trace" {
		doTrace(flag.Arg(0))
		return
	}
	if cmd == "scenario" {
		doScenario(flag.Arg(0))
		return
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)

	acfg := analysis.Config{UseStaticRules: *staticRls}
	icfg := instrument.Config{MaxDepth: *maxDepth}

	switch cmd {
	case "analyze":
		doAnalyze(src, acfg, icfg)
	case "instrument":
		out, err := vsensor.InstrumentSource(src, acfg, icfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "run":
		doRun(src, acfg, icfg)
	case "validate":
		doValidate(src, acfg, icfg)
	default:
		usage()
	}
}

// doServe hosts the standalone multi-tenant analysis service: one TCP
// listener multiplexing many concurrent runs, each admitted by its vSS1
// hello into its own sharded server. It serves until SIGINT/SIGTERM, then
// refuses new work and drains cleanly. The bound address is announced on
// stdout as "serving: <addr>" so scripts (and the e2e tests) can dial a
// :0 listener.
func doServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP address to listen on")
	maxWorkers := fs.Int("max-workers", 0, "connections served at once, one goroutine each; one more is refused at once with vSE1 busy (0 = default 8)")
	maxRuns := fs.Int("max-runs", 0, "concurrent run (tenant) cap (0 = unlimited)")
	maxRunSessions := fs.Int("max-run-sessions", 0, "concurrent sessions per run (0 = unlimited)")
	retryAfterMs := fs.Int("retry-after-ms", 0, "retry-after hint carried in vSE1 busy refusals, milliseconds (0 = default 50)")
	idleTimeout := fs.Duration("idle-timeout", 0, "dead-peer reaper: close sessions that do not complete an envelope (data or heartbeat) within this window (0 = disabled)")
	shards := fs.Int("server-shards", 0, "ingest shards per tenant server, rounded up to a power of two (0 = default 16)")
	httpAddr := fs.String("http", "", "serve the live introspection endpoint on this address (/metrics, /status)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fatal(fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args()))
	}
	// A fixed order, so that of several bad flags the error always names
	// the same one.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-max-workers", *maxWorkers}, {"-max-runs", *maxRuns},
		{"-max-run-sessions", *maxRunSessions}, {"-retry-after-ms", *retryAfterMs},
		{"-server-shards", *shards},
	} {
		if f.v < 0 {
			fatal(fmt.Errorf("bad %s %d: cannot be negative", f.name, f.v))
		}
	}
	if int64(*retryAfterMs) > math.MaxUint32 {
		fatal(fmt.Errorf("bad -retry-after-ms %d: above the wire's limit of %d", *retryAfterMs, uint32(math.MaxUint32)))
	}
	if *idleTimeout < 0 {
		fatal(fmt.Errorf("bad -idle-timeout %s: cannot be negative", *idleTimeout))
	}
	svc, err := netsrv.Listen(*listen, netsrv.Config{
		MaxWorkers:     *maxWorkers,
		MaxRuns:        *maxRuns,
		MaxRunSessions: *maxRunSessions,
		RetryAfterMs:   uint32(*retryAfterMs),
		IdleSession:    *idleTimeout,
		Shards:         *shards,
	})
	if err != nil {
		fatal(err)
	}
	if *httpAddr != "" {
		o := obs.New()
		hs, err := obs.Serve(*httpAddr, o)
		if err != nil {
			fatal(err)
		}
		defer hs.Close()
		svc.SetObs(o)
		o.SetStatus(func() any {
			return struct {
				Net  netsrv.Stats `json:"net"`
				Runs []string     `json:"runs"`
			}{svc.Stats(), svc.RunIDs()}
		})
		fmt.Fprintf(os.Stderr, "introspection: http://%s/ (/metrics /status)\n", hs.Addr())
	}
	fmt.Printf("serving: %s\n", svc.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("shutdown: %s after %d sessions over %d runs (%d shed)\n",
		got, st.Sessions, st.Runs, st.Shed)
}

// doValidate runs the §6.2 validation: execute with simulated PMU jitter
// and check that every instrumented computation sensor's instruction counts
// are fixed, and every network operation's message sizes are constant.
func doValidate(src string, acfg analysis.Config, icfg instrument.Config) {
	rep, err := vsensor.Run(src, vsensor.Options{
		Ranks:          *ranks,
		Analysis:       acfg,
		Instrument:     icfg,
		CollectRecords: true,
		PMUJitterPct:   0.005,
		Trace:          true,
	})
	if err != nil {
		fatal(err)
	}
	res := validate.Records(rep.Instrumented, rep.Records, 1.02)
	fmt.Printf("computation sensors: Pm = %.4f (workload max error %.2f%%)\n",
		res.Pm, res.WorkloadMaxError()*100)
	if len(res.Violations) == 0 {
		fmt.Println("no computation sensor exceeded the tolerance")
	}
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION: sensor %d rank %d Ps=%.3f over %d executions\n",
			v.Sensor, v.Rank, v.Ps(), v.Executions)
	}
	// Network sensors: message-size constancy from the traced events.
	fixed, violations := validate.NetSizes(rep.TraceEvents())
	if fixed {
		fmt.Println("network operations: all message sizes constant")
	} else {
		for _, v := range violations {
			fmt.Printf("VIOLATION: varying message size at %s\n", v)
		}
	}
}

// doScenario runs a built-in evaluation scenario end-to-end.
func doScenario(name string) {
	if name == "list" || name == "" {
		fmt.Println("available scenarios:")
		for _, n := range vsensor.ScenarioNames() {
			fmt.Println(" ", n)
		}
		return
	}
	o, finishObs := setupObs()
	opts := vsensor.Options{Obs: o}
	applyTransport(&opts)
	rep, baseline, err := vsensor.RunScenario(name, opts)
	if err != nil {
		fatal(err)
	}
	defer finishObs()
	printCoverage(rep)
	printLineage(rep)
	if baseline != nil {
		fmt.Printf("baseline: %.3f ms, injected: %.3f ms (%.2fx)\n",
			baseline.TotalSeconds()*1e3, rep.TotalSeconds()*1e3,
			rep.TotalSeconds()/baseline.TotalSeconds())
	} else {
		fmt.Printf("run: %.3f ms\n", rep.TotalSeconds()*1e3)
	}
	printVerdict(rep, 8)
	if *matrix {
		for _, typ := range []ir.SnippetType{ir.Computation, ir.Network, ir.IO} {
			if m := rep.Matrices(*col)[typ]; m != nil {
				fmt.Println()
				fmt.Print(m.ASCII(32, 78))
			}
		}
	}
}

// doReport regenerates the variance report from saved performance data.
func doReport(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	d, err := rundata.Load(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("saved run: %d ranks, %.3f ms, %d sensors, %d slice records\n",
		d.Ranks, float64(d.TotalNs)/1e6, len(d.Sensors), len(d.Records))
	if len(d.Sensors) > 0 && len(d.Records) == 0 {
		// Sensors that left no record are no evidence of a clean run.
		fmt.Println("no verdict: the file holds sensors but no slice records")
		return
	}
	mats := vis.Build(d.Records, d.SensorTypes(), d.Ranks, col.Nanoseconds())
	fmt.Print(vis.RenderReport(vis.Diagnose(mats), 0))
	if *matrix {
		for _, typ := range []ir.SnippetType{ir.Computation, ir.Network, ir.IO} {
			if m := mats[typ]; m != nil {
				fmt.Println()
				fmt.Print(m.ASCII(32, 78))
			}
		}
	}
}

// doTrace prints per-record lineage timelines from a Chrome trace_event
// file written by -trace-json on a lineage-enabled run. Events carrying a
// lineage trace ID (the sampled-records process row) are grouped by that ID
// and replayed as a relative-time journey: one line per hop, in order.
func doTrace(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fatal(fmt.Errorf("%s: not a Chrome trace_event file: %w", path, err))
	}
	type hop struct {
		ts, dur float64
		stage   string
		rank    int
		try     float64
		arg     float64
		hasTry  bool
		hasArg  bool
	}
	journeys := make(map[string][]hop)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args == nil {
			continue
		}
		id, ok := ev.Args["trace"].(string)
		if !ok || id == "" {
			continue
		}
		if *traceID != "" && !strings.EqualFold(strings.TrimLeft(id, "0"), strings.TrimLeft(*traceID, "0")) {
			continue
		}
		h := hop{ts: ev.Ts, dur: ev.Dur, stage: ev.Name, rank: ev.Tid}
		if v, ok := ev.Args["try"].(float64); ok {
			h.try, h.hasTry = v, true
		}
		if v, ok := ev.Args["arg"].(float64); ok {
			h.arg, h.hasArg = v, true
		}
		journeys[id] = append(journeys[id], h)
	}
	if len(journeys) == 0 {
		fmt.Printf("%s: no lineage spans (was the run started with -lineage and -trace-json?)\n", path)
		return
	}
	ids := make([]string, 0, len(journeys))
	for id := range journeys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Printf("%d sampled record journey(s) in %s\n", len(ids), path)
	for _, id := range ids {
		hops := journeys[id]
		sort.SliceStable(hops, func(i, j int) bool { return hops[i].ts < hops[j].ts })
		fmt.Printf("\ntrace %s (%d hops)\n", id, len(hops))
		t0 := hops[0].ts
		for _, h := range hops {
			line := fmt.Sprintf("  %+10.1fµs  %-13s rank %d", h.ts-t0, h.stage, h.rank)
			if h.hasTry {
				line += fmt.Sprintf("  try %d", int(h.try))
			}
			if h.dur > 0 {
				line += fmt.Sprintf("  (%.1fµs)", h.dur)
			}
			if h.hasArg {
				line += fmt.Sprintf("  arg %d", int64(h.arg))
			}
			fmt.Println(line)
		}
	}
}

// fatal prints err once prefixed with the program's name (library errors
// already carry it) and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsensor:", strings.TrimPrefix(err.Error(), "vsensor: "))
	os.Exit(1)
}

func doAnalyze(src string, acfg analysis.Config, icfg instrument.Config) {
	res, err := vsensor.Analyze(src, acfg)
	if err != nil {
		fatal(err)
	}
	ins := instrument.Apply(res, icfg)
	fmt.Printf("snippets: %d\nv-sensors: %d\nglobal v-sensors: %d\ninstrumented: %d (%s)\n\n",
		len(res.Snippets), len(res.Sensors), len(res.GlobalSensors), len(ins.Sensors), ins.TypeSummary())
	fmt.Printf("%-5s %-26s %-5s %-6s %-8s %s\n", "ID", "location", "type", "depth", "fixed/ps", "deps")
	for _, s := range ins.Sensors {
		fmt.Printf("%-5d %-26s %-5s %-6d %-8v %s\n",
			s.ID, s.Name, s.Type, s.Snippet.Depth, s.ProcessFixed, s.Snippet.Deps)
	}
}

func doRun(src string, acfg analysis.Config, icfg instrument.Config) {
	nNodes := *nodes
	if nNodes <= 0 {
		nNodes = *ranks / 8
		if nNodes < 1 {
			nNodes = 1
		}
	}
	rpn := (*ranks + nNodes - 1) / nNodes
	if *badNode >= nNodes {
		fatal(fmt.Errorf("conflicting knobs: -badnode %d but the cluster has %d nodes (see -nodes/-ranks)", *badNode, nNodes))
	}
	mk := func() *cluster.Cluster {
		return cluster.New(cluster.Config{Nodes: nNodes, RanksPerNode: rpn})
	}

	opts := vsensor.Options{Ranks: *ranks, Cluster: mk()}
	if !*quiet {
		opts.Stdout = os.Stdout
	}
	opts.Detect.SliceNs = slice.Nanoseconds()
	o, finishObs := setupObs()
	defer finishObs()
	opts.Obs = o
	applyTransport(&opts)

	// Variance injection needs the expected run length: do a quick clean
	// run first when a relative window was requested.
	if *netWindow != "" || *badNode >= 0 {
		base, err := vsensor.Run(src, vsensor.Options{Ranks: *ranks, Cluster: mk(), Uninstrumented: true})
		if err != nil {
			fatal(err)
		}
		cl := mk()
		if *badNode >= 0 {
			cl.SetNodeMemSpeed(*badNode, 0.55)
		}
		if *netWindow != "" {
			parts := strings.SplitN(*netWindow, ",", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad -netwindow %q, want A,B", *netWindow))
			}
			a, err1 := strconv.ParseFloat(parts[0], 64)
			b, err2 := strconv.ParseFloat(parts[1], 64)
			if err1 != nil || err2 != nil || a < 0 || b <= a {
				fatal(fmt.Errorf("bad -netwindow %q", *netWindow))
			}
			total := float64(base.Result.TotalNs)
			cl.AddNetWindow(int64(a*total), int64(b*total), 0.15)
		}
		opts.Cluster = cl
	}

	rep, err := vsensor.Run(src, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("execution time: %.3f ms over %d ranks\n", rep.TotalSeconds()*1e3, *ranks)
	if rep.Server != nil {
		fmt.Printf("sensors: %s, server data: %d bytes in %d messages\n",
			rep.Instrumented.TypeSummary(), rep.DataVolume(), rep.Server.Progress().Messages)
	} else {
		st := rep.Resilient.Stats()
		fmt.Printf("sensors: %s, records delivered to %s (run %q, durable lsn %d, %d reconnects over %d dial attempts)\n",
			rep.Instrumented.TypeSummary(), *connectAddr, runID(), st.LSN, st.Reconnects, st.DialAttempts)
	}
	printCoverage(rep)
	printLineage(rep)
	events := rep.Events()
	fmt.Printf("per-process variance events: %d\n", len(events))
	printVerdict(rep, rpn)

	mats := rep.Matrices(*col)
	if *matrix {
		for _, typ := range []ir.SnippetType{ir.Computation, ir.Network, ir.IO} {
			if m := mats[typ]; m != nil {
				fmt.Println()
				fmt.Print(m.ASCII(32, 78))
			}
		}
	}
	if *csvOut != "" {
		if m := mats[ir.Computation]; m != nil {
			if err := os.WriteFile(*csvOut, []byte(m.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *csvOut)
		}
	}
	if *pngOut != "" {
		for typ, m := range mats {
			path := fmt.Sprintf("%s_%s.png", *pngOut, strings.ToLower(typ.String()))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := m.PNG(f, 4, 4); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *saveOut != "" {
		f, err := os.Create(*saveOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.SaveData(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *saveOut)
	}
}
