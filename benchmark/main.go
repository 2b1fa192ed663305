// Command benchmark is the repository's one canonical benchmark: four fixed
// workloads driven through the layers' public functions, every output
// checked against an oracle the generator computes itself, every metric
// printed by name and unit. See README.md in this directory.
//
//	go run ./benchmark -workload run-cg256 -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -compare benchmark/out/a benchmark/out/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times the set-up phase runs in an untraced run;
// setup_s is the median, so one slow page-fault storm does not decide it.
const setupRepeats = 3

// options are the knobs of one run.
type options struct {
	Workload string
	Seed     int64
	// Seconds is how long the timed trials run; at least one trial (one
	// round of variants when tracing) always completes.
	Seconds float64
	Trace   bool
	// Smoke shrinks every workload to a size that runs in well under a
	// second, for the tier-1 tests.
	Smoke bool
}

// trialOut is what one timed trial measured.
type trialOut struct {
	meter
	records   int64 // distinct records the final report covers
	attempted int64 // operations: one run, one frame delivery, one HTTP read
	failed    int64
	err       error              // oracle mismatch; fails every operation of the trial
	vals      map[string]float64 // per-trial values of named metrics
}

func (o *trialOut) set(name string, v float64) {
	if o.vals == nil {
		o.vals = make(map[string]float64)
	}
	o.vals[name] = v
}

// variant is one way of running the workload's inputs: the workload itself
// ("main"), or a rung of the ladder with one layer attached or detached.
type variant struct {
	name string
	run  func(tr *tracer, trial int) trialOut
}

// fixture is a workload after set-up: its variants (main first) and how
// many tracer lanes its goroutines need.
type fixture struct {
	variants []variant
	lanes    int
	// derive turns per-variant medians and the recorded spans into the
	// workload's per-layer metrics (traced runs only).
	derive func(r *result, per map[string][]trialOut, spans map[spanID]span)
}

// workload names a set-up function; the table is in workloads.go.
type workload struct {
	name  string
	setup func(opt options) (*fixture, error)
}

// result is everything a run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Trials    int                `json:"trials"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Noisy     []int              `json:"noisy_trials,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// put records a metric measured once per run.
func (r *result) put(name string, v float64) {
	r.Metrics[name] = summary{Median: v, Q1: v, Q3: v, N: 1}
}

// putTrials records a metric measured once per trial.
func (r *result) putTrials(name string, vals []float64) {
	if len(vals) > 0 {
		r.Metrics[name] = summarize(vals)
	}
}

func main() {
	var opt options
	var trace int
	var out, spec string
	var compare bool
	flag.StringVar(&opt.Workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opt.Seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&opt.Seconds, "seconds", 20, "how long the timed trials run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and runs the variant ladder; prints the per-layer metrics")
	flag.BoolVar(&opt.Smoke, "smoke", false, "tiny sizes, for tests")
	flag.StringVar(&out, "out", "", "also write the full result (quartiles, counts, notes) to this file")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "the benchmark's metric list")
	flag.BoolVar(&compare, "compare", false, "compare two result files or directories: -compare A B")
	flag.Parse()
	opt.Trace = trace != 0

	sp, err := loadSpec(spec)
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files or directories"))
		}
		worse, err := compareResults(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(opt.Workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %v)", opt.Workload, workloadNames()))
	}
	tracePath := ""
	if opt.Trace && out != "" {
		tracePath = filepath.Join(filepath.Dir(out), "trace-spans-"+opt.Workload+".json")
	}
	res, err := runWorkload(w, opt, tracePath)
	if err != nil {
		fatal(err)
	}
	if err := sp.fill(res); err != nil {
		fatal(err)
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fatal(err)
		}
	}
	printResult(os.Stdout, sp, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload sets the workload up, runs its trials for opt.Seconds, and
// folds what they measured into a result. Untraced, only the main variant
// runs and the end-to-end metrics come out; traced, every variant runs
// round-robin (interleaved, so host drift hits all of them alike) and the
// per-layer metrics come out.
func runWorkload(w workload, opt options, tracePath string) (*result, error) {
	res := &result{
		Workload: w.name, Seed: opt.Seed, Trace: opt.Trace, Seconds: opt.Seconds,
		Correct: true, Metrics: make(map[string]summary),
	}

	// Set-up: everything before the first timed trial — generating the
	// inputs from the seed, building listeners and sessions, compiling,
	// warm-up trials. Repeated so its median is steady; the last fixture
	// is the one the trials use.
	repeats := setupRepeats
	if opt.Trace || opt.Smoke {
		repeats = 1
	}
	var fx *fixture
	var setups []float64
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if fx, err = w.setup(opt); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.putTrials("setup_s", setups)

	variants := fx.variants[:1]
	var tr *tracer
	if opt.Trace {
		variants = fx.variants
		tr = newTracer(fx.lanes)
	}

	per := make(map[string][]trialOut)
	runtime.GC()
	calib := []float64{calibrate()}
	start := time.Now()
	for trial := 0; trial == 0 || time.Since(start).Seconds() < opt.Seconds; trial++ {
		for _, v := range variants {
			out := v.run(tr, trial)
			per[v.name] = append(per[v.name], out)
			if v.name == "main" {
				// Only the workload itself counts as operations; the ladder
				// rungs are measurements about it.
				res.Attempted += out.attempted
				res.Failed += out.failed
			}
			if out.err != nil {
				res.Correct = false
				res.Errors = append(res.Errors, fmt.Sprintf("%s trial %d: %v", v.name, trial, out.err))
				if v.name == "main" {
					res.Failed += out.attempted - out.failed
				}
			}
			runtime.GC()
		}
		calib = append(calib, calibrate())
		res.Trials++
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	endToEnd(res, per["main"])
	hostMetrics(res, calib, per["main"])
	if opt.Trace {
		spans := tr.all()
		fx.derive(res, per, spans)
		if tracePath != "" {
			if err := writeSpans(tracePath, spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// column extracts one per-trial quantity.
func column(trials []trialOut, f func(trialOut) float64) []float64 {
	out := make([]float64, len(trials))
	for i, t := range trials {
		out[i] = f(t)
	}
	return out
}

// valsOf collects the per-trial values of a named metric.
func valsOf(trials []trialOut, name string) []float64 {
	var out []float64
	for _, t := range trials {
		if v, ok := t.vals[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func wallSeconds(t trialOut) float64 { return t.wall.Seconds() }
func recordsPerSecond(t trialOut) float64 {
	return float64(t.records) / t.wall.Seconds()
}

// medianOf is the median of one per-trial quantity; 0 with no trials.
func medianOf(trials []trialOut, f func(trialOut) float64) float64 {
	return medianSorted(sorted(column(trials, f)))
}

// endToEnd folds the main variant's trials into the metrics a user of the
// system would see, plus every named per-trial value the workload set.
func endToEnd(res *result, trials []trialOut) {
	res.putTrials("verdict_s", column(trials, wallSeconds))
	res.putTrials("records_per_s", column(trials, recordsPerSecond))
	res.putTrials("allocs_per_krec", column(trials, func(t trialOut) float64 {
		return float64(t.mallocs) / float64(t.records) * 1000
	}))
	res.putTrials("alloc_bytes_per_rec", column(trials, func(t trialOut) float64 {
		return float64(t.allocBytes) / float64(t.records)
	}))
	names := make(map[string]bool)
	for _, t := range trials {
		for n := range t.vals {
			names[n] = true
		}
	}
	for n := range names {
		res.putTrials(n, valsOf(trials, n))
	}
}

// hostMetrics reports the host v-sensor and the runtime's view of the run.
func hostMetrics(res *result, calib []float64, trials []trialOut) {
	c := summarize(calib)
	res.Metrics["host.calib_ms"] = c
	res.put("host.calib_spread_pct", c.spread()*100)
	res.Noisy = noisyTrials(calib)
	res.put("host.noisy_trials", float64(len(res.Noisy)))
	res.put("host.peak_rss_mb", peakRSSMB())
	res.put("host.nproc", float64(runtime.NumCPU()))
	res.putTrials("host.gc_cycles", column(trials, func(t trialOut) float64 { return float64(t.gcCycles) }))
	res.putTrials("host.gc_pause_ms", column(trials, func(t trialOut) float64 { return float64(t.gcPauseNs) / 1e6 }))
}

// traceOverhead reports how much slower the traced main variant ran than
// the untraced one beside it, as a share of the untraced wall time.
func traceOverhead(res *result, per map[string][]trialOut) {
	plain := medianOf(per["untraced"], wallSeconds)
	if plain > 0 {
		res.put("host.trace_overhead_pct", (medianOf(per["main"], wallSeconds)-plain)/plain*100)
	}
}

// printResult prints every metric as "name value unit", then the one-line
// JSON object the driver reads: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func printResult(w *os.File, sp *benchSpec, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %v %s   (q1 %v q3 %v n %d)\n", n, m.Median, m.Unit, m.Q1, m.Q3, m.N)
	}
	if len(res.Noisy) > 0 {
		fmt.Fprintf(w, "noisy trials (host calibration more than %.0f%% above the run median): %v\n", calibTolerance*100, res.Noisy)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(w, "FAILED:", e)
	}
	fmt.Fprintf(w, "trials %d attempted %d failed %d failed_ops_frac %v\n",
		res.Trials, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := sp.EndToEnd
	if res.Trace {
		list = sp.PerLayer
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		metrics[m.Name] = value{Value: res.Metrics[m.Name].Median, Unit: m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}
