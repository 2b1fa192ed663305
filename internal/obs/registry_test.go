package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
	// Same name+labels returns the same handle.
	if r.Counter("reqs_total") != c {
		t.Error("re-registration returned a different handle")
	}
	// Different labels are distinct children.
	a := r.Counter("by_rank_total", "rank", "0")
	b := r.Counter("by_rank_total", "rank", "1")
	if a == b {
		t.Error("distinct labels should give distinct handles")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Error("labeled children share state")
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m_total", "a", "1", "b", "2")
	b := r.Counter("m_total", "b", "2", "a", "1")
	if a != b {
		t.Error("label order should not matter for identity")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on type mismatch")
		}
	}()
	r.Gauge("x_total")
}

// TestFuncBackedFamilies: a function-backed child is read at every scrape,
// a Source is read once per scrape for all its families, re-registering
// replaces a function, and a family never mixes handles with functions.
func TestFuncBackedFamilies(t *testing.T) {
	r := NewRegistry()
	n := int64(3)
	r.CounterFunc("owned_total", func() int64 { return n })
	r.GaugeFunc("owned", func() int64 { return 1 }, "shard", "0")
	r.GaugeFunc("owned", func() int64 { return 2 }, "shard", "0")
	reads := 0
	src := NewSource(r, func() [2]int64 { reads++; return [2]int64{n, 10 * n} })
	src.Gauge("pair_low", func(p [2]int64) int64 { return p[0] })
	src.Counter("pair_high_total", func(p [2]int64) int64 { return p[1] })
	n = 5
	for scrape := 1; scrape <= 2; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"# TYPE owned_total counter\nowned_total 5\n",
			"# TYPE owned gauge\nowned{shard=\"0\"} 2\n",
			"# TYPE pair_low gauge\npair_low 5\n",
			"# TYPE pair_high_total counter\npair_high_total 50\n",
		} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("exposition lacks %q:\n%s", want, sb.String())
			}
		}
		if reads != scrape {
			t.Errorf("after %d scrapes the source was read %d times", scrape, reads)
		}
	}
	for name, register := range map[string]func(){
		"handle onto function": func() { r.Counter("owned_total") },
		"function onto handle": func() { r.Counter("pushed_total"); r.CounterFunc("pushed_total", func() int64 { return 0 }) },
		"gauge onto counter":   func() { r.GaugeFunc("owned_total", func() int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			register()
		}()
	}
	var nilReg *Registry
	nilReg.CounterFunc("x", func() int64 { return 0 })
	var nilObs *Obs
	nilObs.GaugeFunc("x", func() int64 { return 0 })
	NewSource(nilObs.Registry(), func() int64 { return 0 }).Counter("x", func(v int64) int64 { return v })
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temp")
	g.Set(2.5)
	g.Add(1.5)
	if g.Value() != 4 {
		t.Fatalf("gauge = %v, want 4", g.Value())
	}
	g.Add(-6)
	if g.Value() != -2 {
		t.Fatalf("gauge = %v, want -2", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("lat", []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5+10+11+99+5000 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// le semantics: v <= bound lands in the bucket.
	if got := h.counts[0].Load(); got != 2 { // 5, 10
		t.Errorf("bucket le=10 = %d, want 2", got)
	}
	if got := h.counts[1].Load(); got != 2 { // 11, 99
		t.Errorf("bucket le=100 = %d, want 2", got)
	}
	if got := h.counts[3].Load(); got != 1 { // 5000 → +Inf
		t.Errorf("bucket +Inf = %d, want 1", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v", b)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe("reqs_total", "Requests seen.")
	r.Counter("reqs_total", "rank", "0").Add(7)
	r.Gauge("load").Set(1.5)
	h := r.HistogramWith("size_bytes", []float64{8, 64})
	h.Observe(4)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP reqs_total Requests seen.",
		"# TYPE reqs_total counter",
		`reqs_total{rank="0"} 7`,
		"# TYPE load gauge",
		"load 1.5",
		"# TYPE size_bytes histogram",
		`size_bytes_bucket{le="8"} 1`,
		`size_bytes_bucket{le="64"} 1`,
		`size_bytes_bucket{le="+Inf"} 2`,
		"size_bytes_sum 104",
		"size_bytes_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" — parseable
	// line-by-line (acceptance criterion).
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "path", `a"b\c`+"\n").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\n"} 1`) {
		t.Errorf("bad escaping:\n%s", sb.String())
	}
}

// TestConcurrentIncrements hammers one counter, one gauge, and one
// histogram from many goroutines while snapshots are being taken — the
// go test -race workhorse for the lock-free hot paths.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h")

	const goroutines = 16
	const perG = 5000
	// Snapshot continuously while writers run.
	stop := make(chan struct{})
	var snap sync.WaitGroup
	snap.Add(1)
	go func() {
		defer snap.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 1000))
			}
		}()
	}
	writers.Wait()
	close(stop)
	snap.Wait()

	if c.Value() != goroutines*perG {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	if g.Value() != goroutines*perG {
		t.Errorf("gauge = %v, want %d", g.Value(), goroutines*perG)
	}
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
}

// TestConcurrentRegistration registers overlapping families from many
// goroutines; identical name+labels must converge on one handle.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	handles := make([]*Counter, 8)
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i] = r.Counter("shared_total", "k", "v")
			handles[i].Inc()
		}(i)
	}
	wg.Wait()
	for _, h := range handles[1:] {
		if h != handles[0] {
			t.Fatal("concurrent registration returned distinct handles")
		}
	}
	if handles[0].Value() != int64(len(handles)) {
		t.Errorf("value = %d, want %d", handles[0].Value(), len(handles))
	}
}

// TestHotPathAllocationFree pins the acceptance criterion: Inc/Observe/Add
// allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total")
	g := r.Gauge("alloc_g")
	h := r.Histogram("alloc_h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}

// TestNilSafety: every hot-path method must be callable through nil
// handles and a nil registry/bundle.
func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var o *Obs
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveInt(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles should read zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry should return nil handles")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Error(err)
	}
	if o.Counter("x") != nil || o.Span(0, "x") != nil || o.Registry() != nil || o.Tracer() != nil {
		t.Error("nil Obs should return nil handles")
	}
	o.Span(0, "x").Arg("k", "v").End()
	o.NameThread(0, "x")
	o.SetStatus(nil)
}
