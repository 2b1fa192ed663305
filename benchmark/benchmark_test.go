package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/transport"
)

const specPath = "../BENCHMARK.json"

func scheduleDigest(t *testing.T, sh shape, seed int64) [32]byte {
	t.Helper()
	s, err := buildSchedule(sh, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, lane := range s.lanes {
		for _, r := range lane {
			_ = binary.Write(h, binary.LittleEndian, []int64{int64(r.Sensor), int64(r.Group), int64(r.Rank), r.SliceNs, int64(r.Count)})
			_ = binary.Write(h, binary.LittleEndian, []float64{r.AvgNs, r.AvgInstr})
		}
	}
	_ = binary.Write(h, binary.LittleEndian, int64(len(s.Stragglers)))
	for _, r := range s.Stragglers {
		_ = binary.Write(h, binary.LittleEndian, int64(r))
	}
	return [32]byte(h.Sum(nil))
}

func TestScheduleDeterministic(t *testing.T) {
	for _, sh := range []shape{
		{Ranks: 64, Slices: 16, Sensors: 8, Lanes: 2, Phase: 1},
		{Ranks: 64, Slices: 16, Sensors: 8, Lanes: 1, Phase: 8},
	} {
		a, b, c := scheduleDigest(t, sh, 7), scheduleDigest(t, sh, 7), scheduleDigest(t, sh, 8)
		if a != b {
			t.Errorf("%+v: same seed gave different schedules", sh)
		}
		if a == c {
			t.Errorf("%+v: different seeds gave the same schedule", sh)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	sh := shape{Ranks: 64, Slices: 16, Sensors: 8, Lanes: 1, Phase: 8}
	s, err := buildSchedule(sh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(s.lanes[0])); got != sh.records() {
		t.Fatalf("schedule holds %d records, want %d", got, sh.records())
	}
	// Every rank sends its slices in order, each slice exactly once.
	next := make(map[int]int64)
	for v := 0; v < s.visits(0); v++ {
		recs := s.visit(0, v)
		rank := recs[0].Rank
		if recs[0].SliceNs != next[rank] {
			t.Fatalf("rank %d visit has slice %d, want %d", rank, recs[0].SliceNs, next[rank])
		}
		next[rank] += sliceNs
	}
	if len(s.Stragglers) != stragglerCount {
		t.Fatalf("%d stragglers, want %d", len(s.Stragglers), stragglerCount)
	}
	if _, err := buildSchedule(shape{Ranks: 8, Slices: 1, Sensors: 1, Lanes: 1, Phase: 1}, 1); err == nil {
		t.Error("8 ranks cannot hide 4 stragglers from the median; want an error")
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python, exclusive method.
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 1, 1.5, 2}, // Python extrapolates to 0.75 and 2.25
	} {
		s := summarize(tc.in)
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 || s.N != len(tc.in) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v n %d, want %v %v %v", tc.in, s.Q1, s.Median, s.Q3, s.N, tc.q1, tc.med, tc.q3)
		}
	}
	if got := (summary{Median: 10, Q1: 9, Q3: 11.5}).spread(); got != 0.25 {
		t.Errorf("spread = %v, want 0.25", got)
	}
}

func TestReliablePercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		p    float64
	}{
		{19, 0.99, 0.5},    // 9.5 beyond the median: not even ten
		{20, 0.99, 0.5},    // ten beyond the median, two beyond p90
		{100, 0.99, 0.9},   // ten beyond p90, five beyond p95
		{200, 0.99, 0.95},  // ten beyond p95, two beyond p99
		{1000, 0.99, 0.99}, // ten beyond p99
		{1000, 0.999, 0.99},
		{10000, 0.999, 0.999},
		{10000, 0.95, 0.95}, // never above what was asked for
	} {
		if got := reliableP(tc.n, tc.want); got != tc.p {
			t.Errorf("reliableP(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.p)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i)
	}
	if v, p := tail(samples, 0.99); v != 990 || p != 0.99 {
		t.Errorf("tail p99 of 1..1000 = %v at p%v, want 990 at 0.99", v, p)
	}
	if v, p := tail(samples[:100], 0.99); v != 90 || p != 0.9 {
		t.Errorf("tail p99 of 100 samples = %v at p%v, want the p90 (90)", v, p)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(3)
	l0, l1, l2 := tr.lane(0), tr.lane(1), tr.lane(2)
	at := func(l *lane, name string, trial int, parent spanID, start, end int64) spanID {
		id := l.begin(name, trial, parent)
		sp := &l.spans[len(l.spans)-1]
		sp.Start, sp.End = start, end
		return id
	}
	// Trial 0: a root of 100 with two generators overlapping on separate
	// lanes (10..60 and 40..90) and a report after them (90..98).
	root := at(l0, "trial", 0, 0, 0, 100)
	g1 := at(l1, "gen", 0, root, 10, 60)
	at(l2, "gen", 0, root, 40, 90)
	at(l0, "report", 0, root, 90, 98)
	// Children of g1 on its own lane: 20..30 and 35..45.
	at(l1, "recv", 0, g1, 20, 30)
	at(l1, "recv", 0, g1, 35, 45)
	// Trial 1 reuses the names; a span that names trial 0's root as parent
	// from another trial must not be counted as its child.
	root1 := at(l0, "trial", 1, 0, 200, 260)
	at(l1, "gen", 1, root1, 200, 250)
	at(l2, "gen", 1, root, 0, 100)

	got := rollup(tr.all())
	want0 := map[string]spanTimes{
		"trial":  {Count: 1, Busy: 100, Self: 100 - 88}, // union of 10..90 and 90..98
		"gen":    {Count: 2, Busy: 100, Self: 100 - 20}, // g1 loses its two children
		"report": {Count: 1, Busy: 8, Self: 8},
		"recv":   {Count: 2, Busy: 20, Self: 20},
	}
	if !reflect.DeepEqual(got[0], want0) {
		t.Errorf("trial 0 roll-up = %+v, want %+v", got[0], want0)
	}
	want1 := map[string]spanTimes{
		"trial": {Count: 1, Busy: 60, Self: 10},
		"gen":   {Count: 2, Busy: 150, Self: 150},
	}
	if !reflect.DeepEqual(got[1], want1) {
		t.Errorf("trial 1 roll-up = %+v, want %+v", got[1], want1)
	}

	var nilLane *lane
	if id := nilLane.begin("x", 0, 0); id != 0 {
		t.Errorf("nil lane returned span %d", id)
	}
	nilLane.end(0)

	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := writeSpans(path, tr.all()); err != nil {
		t.Fatal(err)
	}
}

func TestNoisyTrials(t *testing.T) {
	// calib[i] is taken before trial i; trial 2 sits between 1.0 and 1.3.
	calib := []float64{1.0, 1.02, 0.98, 1.3, 1.0, 1.01}
	if got, want := noisyTrials(calib), []int{2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("noisyTrials = %v, want %v", got, want)
	}
	if got := noisyTrials([]float64{1, 1, 1}); got != nil {
		t.Errorf("steady host flagged trials %v", got)
	}
	if calibrate() <= 0 {
		t.Error("calibration snippet took no time")
	}
}

type nullEmitterCloser struct{ n int }

func (e *nullEmitterCloser) OnSlice(detect.SliceRecord) error { e.n++; return nil }
func (e *nullEmitterCloser) Close() error                     { return nil }

func TestGeneratorsDoNotAllocate(t *testing.T) {
	s, err := buildSchedule(shape{Ranks: 64, Slices: 16, Sensors: 8, Lanes: 2, Phase: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink := &nullEmitterCloser{}
	emitters := make([]emitter, s.Ranks)
	for i := range emitters {
		emitters[i] = sink
	}
	fail := func(error) {}
	if n := testing.AllocsPerRun(10, func() { emitVisits(s, 1, 0, s.visits(1), emitters, fail) }); n != 0 {
		t.Errorf("the record generator allocates %v times per lane sweep, want 0", n)
	}
	// AllocsPerRun calls the function once to warm up, then ten times.
	if want := 11 * s.visits(1) * s.Sensors; sink.n != want {
		t.Errorf("emitter saw %d records, want %d", sink.n, want)
	}

	// The HTTP poller against canned responses on an in-memory pipe: a 304,
	// then a chunked 200, forever.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		r := bufio.NewReader(server)
		replies := [][]byte{
			[]byte("HTTP/1.1 304 Not Modified\r\nEtag: \"7\"\r\nDate: x\r\n\r\n"),
			[]byte("HTTP/1.1 200 OK\r\nEtag: \"8\"\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n3\r\nabc\r\n0\r\n\r\n"),
		}
		for i := 0; ; i++ {
			for { // consume one request: lines up to the blank one
				line, err := r.ReadSlice('\n')
				if err != nil {
					return
				}
				if len(line) == 2 {
					break
				}
			}
			if _, err := server.Write(replies[i%2]); err != nil {
				return
			}
		}
	}()
	c := &pollClient{conn: client, r: bufio.NewReaderSize(client, 4096), req: make([]byte, 0, 256), etag: make([]byte, 0, 32)}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.poll(); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("the HTTP poller allocates %v times per poll, want 0", n)
	}
	if c.n200 == 0 || c.n304 == 0 || c.bodyBytes != 8*c.n200 || !bytes.Equal(c.etag, []byte(`"8"`)) && !bytes.Equal(c.etag, []byte(`"7"`)) {
		t.Errorf("poller counted %d x 200, %d x 304, %d body bytes, etag %s", c.n200, c.n304, c.bodyBytes, c.etag)
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSmokeEndToEnd runs every workload at smoke size, untraced and traced,
// through the same runWorkload the command uses, and holds the results
// against BENCHMARK.json: every end-to-end metric present and non-zero on
// every workload, nothing measured that the file does not list, and every
// per-layer metric the file lists produced by at least one workload.
func TestSmokeEndToEnd(t *testing.T) {
	sp := loadTestSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	produced := make(map[string]bool)
	for _, wl := range sp.Workloads {
		w, ok := findWorkload(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, the harness has %v", wl.Name, workloadNames())
		}
		for _, trace := range []bool{false, true} {
			opt := options{Workload: w.name, Seed: 11, Seconds: 0.02, Trace: trace, Smoke: true}
			tracePath := ""
			if trace {
				tracePath = filepath.Join(t.TempDir(), "spans.json")
			}
			res, err := runWorkload(w, opt, tracePath)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed: %v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			if err := sp.fill(res); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, name, m.Median)
				}
				produced[name] = true
			}
			if !trace {
				for _, m := range sp.EndToEnd {
					if res.Metrics[m.Name].Median <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, res.Metrics[m.Name].Median)
					}
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !produced[m.Name] {
			t.Errorf("BENCHMARK.json lists per-layer metric %s, no workload produces it", m.Name)
		}
	}
}

// dropNth acknowledges its nth frame without delivering it: a lost frame
// the sender believes arrived.
type dropNth struct {
	inner transport.Medium
	n     int
}

func (d *dropNth) Receive(b []byte) error {
	if d.n--; d.n == 0 {
		return nil
	}
	return d.inner.Receive(b)
}

func TestOracleCatchesDroppedFrame(t *testing.T) {
	sched, err := buildSchedule(shape{Ranks: 64, Slices: 16, Sensors: 8, Lanes: 1, Phase: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := &ingestFixture{sched: sched, seed: 5}
	v := ingestVariant{name: "main", path: pathLink}
	if out := f.trial(v, nil, 0); out.err != nil || out.failed != 0 {
		t.Fatalf("undisturbed trial failed: %v", out.err)
	}
	// Dropping a rank's last frame leaves the headers' own expected count
	// short too, so only the generator's count can notice; dropping an
	// early one shows up as a coverage gap. Both must fail the trial.
	frames := int(sched.shape.framesPerRank()) * sched.Ranks
	for _, n := range []int{3, frames} {
		f.wrap = func(m transport.Medium) transport.Medium { return &dropNth{inner: m, n: n} }
		w := workload{name: "drop", setup: func(options) (*fixture, error) {
			return &fixture{lanes: 1, variants: []variant{{"main", func(tr *tracer, trial int) trialOut {
				return f.trial(v, tr, trial)
			}}}}, nil
		}}
		res, err := runWorkload(w, options{Seconds: 0, Smoke: true}, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Failed == 0 || len(res.Errors) == 0 {
			t.Errorf("dropped frame %d: correct=%v, failed %d of %d, errors %v; want every operation of the trial failed",
				n, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "verdict_s", Better: "lower", Bound: 0.07}
	higher := specMetric{Name: "records_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 10} }
	for _, tc := range []struct {
		name string
		m    specMetric
		a, b summary
		want string
	}{
		{"inside the bound, tight", lower, tight(2.0), tight(2.05), "same"},
		{"slower beyond the bound", lower, tight(2.0), tight(2.3), "worse"},
		{"faster beyond the bound", lower, tight(2.0), tight(1.7), "better"},
		{"higher is better: a drop is worse", higher, tight(100), tight(80), "worse"},
		{"higher is better: a rise is better", higher, tight(100), tight(120), "better"},
		{"inside the bound but the base is too noisy to say", lower, wide(2.0), tight(2.05), "unresolved"},
		{"beyond the bound but the ranges overlap", lower, wide(2.0), wide(2.3), "unresolved"},
		{"no base", lower, summary{}, tight(1), "unresolved"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareAgainstItself(t *testing.T) {
	sp := loadTestSpec(t)
	dir := t.TempDir()
	w, _ := findWorkload("ingest-inproc")
	res, err := runWorkload(w, options{Workload: w.name, Seed: 2, Seconds: 0.05, Smoke: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.fill(res); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ingest-inproc.json")
	if err := writeJSON(path, res); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	worse, err := compareResults(&buf, sp, path, path)
	if err != nil || worse {
		t.Fatalf("comparing a result with itself: worse=%v err=%v\n%s", worse, err, buf.String())
	}
	for _, m := range sp.EndToEnd {
		if !bytes.Contains(buf.Bytes(), []byte(m.Name)) {
			t.Errorf("comparison does not mention %s:\n%s", m.Name, buf.String())
		}
	}
	if bytes.Contains(buf.Bytes(), []byte("worse ")) || bytes.Contains(buf.Bytes(), []byte("better ")) {
		t.Errorf("a result differs from itself:\n%s", buf.String())
	}
}
