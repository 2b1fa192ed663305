package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	vsensor "vsensor"
	"vsensor/internal/analysis"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/detect"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
	"vsensor/internal/transport"
	"vsensor/internal/vis"
	"vsensor/internal/vm"
)

// run-cg256: what a CLI user waits for — mini-C source text in, variance
// findings out, on the badnode-cg scenario with the bad node chosen by the
// seed. The VM spawns a goroutine per rank, so runs go one at a time.

const (
	badNodeMemSpeed = 0.55
	findingsColumn  = 2 * time.Millisecond
)

// cgSize is one sizing of the workload with its golden outputs. Virtual
// time is deterministic and does not depend on which node is slow (every
// collective waits for the slowest rank), so one golden serves every seed.
type cgSize struct {
	scale        apps.Scale
	ranks        int
	ranksPerNode int

	totalNs      int64 // virtual job time of an instrumented run
	sliceRecords int64 // slice records the server ingests
	rawRecords   int64 // sensor records the VM emits
}

var (
	cgFull  = cgSize{scale: apps.Scale{Iters: 100, Work: 100}, ranks: 256, ranksPerNode: 8, totalNs: 18228914, sliceRecords: 29184, rawRecords: 153600}
	cgSmoke = cgSize{scale: apps.Scale{Iters: 40, Work: 40}, ranks: 32, ranksPerNode: 8}
)

type cgFixture struct {
	size cgSize
	src  string
	node int // the seed-chosen slow-memory node
}

func (f *cgFixture) cluster() *cluster.Cluster {
	cl := cluster.New(cluster.Config{Nodes: f.size.ranks / f.size.ranksPerNode, RanksPerNode: f.size.ranksPerNode})
	cl.SetNodeMemSpeed(f.node, badNodeMemSpeed)
	return cl
}

// checkFindings is the verdict oracle: exactly one finding, a persistent
// band of slow ranks in the computation component covering exactly the
// seed-chosen node's ranks.
func (f *cgFixture) checkFindings(got []vis.Finding) error {
	first := f.node * f.size.ranksPerNode
	last := first + f.size.ranksPerNode - 1
	if len(got) != 1 {
		return fmt.Errorf("oracle: %d findings, want exactly one (ranks %d-%d)", len(got), first, last)
	}
	g := got[0]
	if g.Component != ir.Computation || g.Kind != vis.BadRanks || g.FirstRank != first || g.LastRank != last {
		return fmt.Errorf("oracle: finding [%s] %s ranks %d-%d, want [Comp] persistent-slow-ranks ranks %d-%d",
			g.Component, g.Kind, g.FirstRank, g.LastRank, first, last)
	}
	return nil
}

// checkRun compares a run's deterministic outputs with the goldens.
func (f *cgFixture) checkRun(res *vm.Result, sliceRecords int64) error {
	if err := res.Err(); err != nil {
		return err
	}
	var raw int64
	for _, rs := range res.Ranks {
		raw += int64(rs.Records)
	}
	g := f.size
	if g.totalNs != 0 && (res.TotalNs != g.totalNs || raw != g.rawRecords || (sliceRecords >= 0 && sliceRecords != g.sliceRecords)) {
		return fmt.Errorf("oracle: virtual time %d ns, %d sensor records, %d slice records; golden %d, %d, %d",
			res.TotalNs, raw, sliceRecords, g.totalNs, g.rawRecords, g.sliceRecords)
	}
	return nil
}

// facade is the workload itself: Compile, RunProgram, Findings. opt carries
// the rung's options; the lane is nil when untraced.
func (f *cgFixture) facade(opt vsensor.Options, ln *lane, trial int) (out trialOut) {
	out.attempted = 1
	opt.Ranks, opt.Cluster = f.size.ranks, f.cluster()
	root := ln.begin("trial", trial, 0)
	out.meter.start()

	var prog *ir.Program
	var err error
	if ln == nil {
		prog, err = vsensor.Compile(f.src)
	} else {
		// The same three steps Compile takes, one span each.
		id := ln.begin("minic.parse", trial, root)
		ast, perr := minic.Parse(f.src)
		ln.end(id)
		if err = perr; err == nil {
			id = ln.begin("ir.build", trial, root)
			if prog, err = ir.Build(ast); err == nil {
				err = ir.CheckStrict(prog)
			}
			ln.end(id)
		}
	}
	if err != nil {
		out.err = err
		return out
	}
	id := ln.begin("vsensor.run", trial, root)
	t0 := time.Now()
	rep, err := vsensor.RunProgram(prog, opt)
	out.set("vsensor.run_s", time.Since(t0).Seconds())
	ln.end(id)
	if err != nil {
		out.err = err
		return out
	}
	id = ln.begin("vis.findings", trial, root)
	t0 = time.Now()
	findings := rep.Findings(findingsColumn)
	out.set("vis.findings_ms", float64(time.Since(t0))/1e6)
	ln.end(id)
	out.meter.stop()
	ln.end(root)

	// The server's share of producing the verdict, measured on its own.
	t0 = time.Now()
	recs := rep.Server.Records()
	out.set("server.report_ms", float64(time.Since(t0))/1e6)

	out.records = int64(len(recs))
	cov := rep.Coverage()
	if !cov.Complete() || cov.IngestedRecords != out.records {
		out.err = fmt.Errorf("oracle: coverage %d/%d, report holds %d", cov.IngestedRecords, cov.ExpectedRecords, out.records)
	}
	out.err = errors.Join(out.err, f.checkRun(rep.Result, out.records), f.checkFindings(findings))
	if out.err != nil {
		out.failed = 1
	}
	return out
}

// countSink is the null vm.Sink of the probed rung: it keeps the probes'
// record path live without doing anything with the records.
type countSink struct{ n int64 }

func (c *countSink) OnRecord(vm.Record) { c.n++ }

// timedSink wraps a rank's detector at the vm.Sink seam and adds up how
// long its OnRecord calls take.
type timedSink struct {
	next *detect.Detector
	busy time.Duration
}

func (s *timedSink) OnRecord(r vm.Record) {
	t0 := time.Now()
	s.next.OnRecord(r)
	s.busy += time.Since(t0)
}

// nullEmitter is the detect.Emitter of the detect rung: slices go nowhere.
type nullEmitter struct{}

func (nullEmitter) OnSlice(detect.SliceRecord) error { return nil }

// vmRung runs the machine directly, with as much of the record path
// attached as the rung asks for: 0 plain, 1 probes into a null sink,
// 2 probes into per-rank detectors with a null emitter.
func (f *cgFixture) vmRung(level int) (out trialOut) {
	out.attempted = 1
	prog, err := vsensor.Compile(f.src)
	if err != nil {
		out.err = err
		return out
	}
	cfg := vm.Config{Ranks: f.size.ranks, Cluster: f.cluster()}
	var mach *vm.Machine
	var sinks []*timedSink
	var mu sync.Mutex
	if level == 0 {
		mach = vm.New(prog, cfg)
	} else {
		t0 := time.Now()
		res := analysis.AnalyzeWith(prog, analysis.Config{})
		out.set("analysis.analyze_ms", float64(time.Since(t0))/1e6)
		out.set("analysis.snippets", float64(len(res.Snippets)))
		out.set("analysis.sensors", float64(len(res.Sensors)))
		t0 = time.Now()
		ins := instrument.Apply(res, instrument.Config{})
		out.set("instrument.apply_ms", float64(time.Since(t0))/1e6)
		out.set("instrument.sensors", float64(len(ins.Sensors)))

		cfg.ProbeCostNs = vsensor.DefaultProbeCostNs
		cfg.SinkFactory = func(int) vm.Sink { return &countSink{} }
		if level == 2 {
			meta := make([]detect.Sensor, len(ins.Sensors))
			for i, s := range ins.Sensors {
				meta[i] = detect.Sensor{ID: s.ID, Type: s.Type, ProcessFixed: s.ProcessFixed, Name: s.Name}
			}
			cfg.SinkFactory = func(rank int) vm.Sink {
				s := &timedSink{next: detect.New(rank, meta, detect.Config{}, nullEmitter{})}
				mu.Lock()
				sinks = append(sinks, s)
				mu.Unlock()
				return s
			}
		}
		mach = vm.NewInstrumented(ins, cfg)
	}

	out.meter.start()
	res := mach.Run()
	for _, s := range sinks {
		s.next.Finish()
	}
	out.meter.stop()

	out.records = f.size.sliceRecords
	var instr, net, total, raw int64
	for _, rs := range res.Ranks {
		instr += rs.Instr
		net += rs.NetNs
		total += rs.Total
		raw += int64(rs.Records)
	}
	switch level {
	case 0:
		out.err = res.Err()
		out.set("vm.instr_per_s", float64(instr)/out.wall.Seconds())
		out.set("vm.net_virtual_frac", float64(net)/float64(total))
		out.set("vm.alloc_mb_per_run", float64(out.allocBytes)/1e6)
	case 1:
		out.err = f.checkRun(res, -1)
		out.set("vm.records", float64(raw))
	case 2:
		var busy time.Duration
		var slices int64
		for _, s := range sinks {
			busy += s.busy
			slices += s.next.Analyses()
		}
		out.err = f.checkRun(res, slices)
		out.set("detect.onrecord_busy_s", busy.Seconds())
		out.set("detect.slices", float64(slices))
	}
	if out.err != nil {
		out.failed = 1
	}
	return out
}

func setupRunCG(opt options) (*fixture, error) {
	f := &cgFixture{size: cgFull}
	if opt.Smoke {
		f.size = cgSmoke
	}
	app, err := apps.Get("CG", f.size.scale)
	if err != nil {
		return nil, err
	}
	f.src = app.Source
	f.node = rand.New(rand.NewSource(opt.Seed)).Intn(f.size.ranks / f.size.ranksPerNode)

	link := vsensor.Options{Transport: &transport.Config{}}
	fx := &fixture{lanes: 1, variants: []variant{
		{"main", func(tr *tracer, trial int) trialOut { return f.facade(vsensor.Options{}, tr.lane(0), trial) }},
		{"untraced", func(*tracer, int) trialOut { return f.facade(vsensor.Options{}, nil, 0) }},
		{"vm-plain", func(*tracer, int) trialOut { return f.vmRung(0) }},
		{"vm-probed", func(*tracer, int) trialOut { return f.vmRung(1) }},
		{"detect", func(*tracer, int) trialOut { return f.vmRung(2) }},
		{"link", func(*tracer, int) trialOut { return f.facade(link, nil, 0) }},
	}}
	fx.derive = func(res *result, per map[string][]trialOut, spans map[spanID]span) {
		var parse, build, accounted []float64
		for _, names := range rollup(spans) {
			parse = append(parse, float64(names["minic.parse"].Busy)/1e6)
			build = append(build, float64(names["ir.build"].Busy)/1e6)
			root := names["trial"]
			accounted = append(accounted, (1-float64(root.Self)/float64(root.Busy))*100)
		}
		res.putTrials("minic.parse_ms", parse)
		res.putTrials("ir.build_ms", build)
		res.putTrials("host.trace_accounted_pct", accounted)

		for _, rung := range []string{"vm-plain", "vm-probed", "detect"} {
			for n := range per[rung][0].vals {
				res.putTrials(n, valsOf(per[rung], n))
			}
		}
		probed, det := medianOf(per["vm-probed"], wallSeconds), medianOf(per["detect"], wallSeconds)
		runS := func(name string) float64 { return medianSorted(sorted(valsOf(per[name], "vsensor.run_s"))) }
		res.putTrials("vm.plain_run_s", column(per["vm-plain"], wallSeconds))
		res.putTrials("vm.probed_run_s", column(per["vm-probed"], wallSeconds))
		res.put("detect.run_delta_s", det-probed)
		// The facade's run also analyzes and instruments; take that out so
		// the delta is the server client's cost alone.
		frontEnd := (res.Metrics["analysis.analyze_ms"].Median + res.Metrics["instrument.apply_ms"].Median) / 1e3
		res.put("server.client_run_delta_s", runS("untraced")-frontEnd-det)
		res.put("transport.link_run_delta_s", runS("link")-runS("untraced"))
		traceOverhead(res, per)
	}
	if out := f.facade(vsensor.Options{}, nil, -1); out.err != nil {
		return nil, fmt.Errorf("warm-up: %w", out.err)
	}
	return fx, nil
}
