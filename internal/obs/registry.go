// Package obs is vSensor's self-observability layer: a stdlib-only metrics
// registry (counters, gauges, exponential-bucket histograms with lock-free
// atomic hot paths), a hierarchical span tracer exportable as Chrome
// trace_event JSON, and an opt-in HTTP introspection endpoint serving
// /metrics (Prometheus text exposition), /status (JSON snapshot), and
// /records (incremental slice-record polling).
//
// The paper's whole argument is that performance tools must themselves be
// cheap and always-on (§2: the report updates while the job runs; Table 1:
// <4% overhead). This package applies the same discipline to the vSensor
// pipeline itself: a counter increment is a single uncontended atomic add,
// registration happens once at setup time, and everything degrades to a
// no-op when observability is not requested (all hot-path methods are
// nil-receiver safe).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, mirroring the Prometheus exposition TYPE keywords.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families. Registration (Counter/Gauge/Histogram) is
// synchronized and idempotent — the same name+labels returns the same
// handle — while the returned handles are lock-free. CounterFunc/GaugeFunc
// and a Source register function-backed children instead, read at scrape
// time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family with zero or more labeled children.
type family struct {
	name string
	typ  string
	help string
	// byFunc marks a family whose children are functions read at scrape time
	// rather than handles; a family is one or the other, never both.
	byFunc bool
	// children maps the canonical rendered label string (no braces) to the
	// child metric. Guarded by the registry mutex.
	children map[string]*child
}

// child is one labeled instance inside a family.
type child struct {
	labels string // canonical "k=\"v\",k2=\"v2\"" (empty for no labels)
	c      *Counter
	g      *Gauge
	h      *Histogram
	// fn backs a function-backed counter or gauge: it maps src's reading
	// (nil when src is nil) to the child's value.
	src *source
	fn  func(any) int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Describe sets the HELP text for a family (shown in /metrics). It may be
// called before or after the family's first registration.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, children: make(map[string]*child)}
		r.families[name] = f
	}
	f.help = help
}

// getFamily returns (creating if needed) the family, checking that its type
// and backing (handles or functions) match the request.
func (r *Registry) getFamily(name, typ string, byFunc bool) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, children: make(map[string]*child)}
		r.families[name] = f
	}
	if f.typ == "" {
		f.typ, f.byFunc = typ, byFunc // new, or pre-created by Describe
	}
	if f.typ != typ || f.byFunc != byFunc {
		panic(fmt.Sprintf("obs: metric %q registered as %s (function-backed %t), requested as %s (function-backed %t)",
			name, f.typ, f.byFunc, typ, byFunc))
	}
	return f
}

// Counter returns the counter for name with the given label key/value pairs,
// registering it on first use. The returned handle's Inc/Add are single
// atomic operations.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, typeCounter, false)
	ch := f.children[key]
	if ch == nil {
		ch = &child{labels: key, c: &Counter{}}
		f.children[key] = ch
	}
	return ch.c
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, typeGauge, false)
	ch := f.children[key]
	if ch == nil {
		ch = &child{labels: key, g: &Gauge{}}
		f.children[key] = ch
	}
	return ch.g
}

// CounterFunc registers a counter whose value is fn(), called at every
// scrape: the way to export a number its owner already keeps without a
// second copy to update. fn must not block on I/O or sleep. Registering the
// same name and labels again replaces fn.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...string) {
	r.setFunc(name, typeCounter, nil, func(any) int64 { return fn() }, labels)
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {
	r.setFunc(name, typeGauge, nil, func(any) int64 { return fn() }, labels)
}

// Source is one owner's scrape-time reading. Its read runs at most once per
// scrape, and every family registered through the Source takes its value
// from that one result: the owner's locks are taken once, and families read
// together (ranks alive, suspect and dead) agree with each other. read must
// not block on I/O or sleep.
type Source[T any] struct {
	r   *Registry
	src *source
}

// source is a Source with its type erased: the key a scrape memoizes by.
type source struct{ read func() any }

// NewSource returns a Source over read; it registers nothing by itself. A
// nil r gives a Source whose registrations are no-ops.
func NewSource[T any](r *Registry, read func() T) Source[T] {
	return Source[T]{r: r, src: &source{read: func() any { return read() }}}
}

// Counter registers name+labels as a counter whose value is fn of the
// scrape's reading. Registering the same name and labels again replaces it.
func (s Source[T]) Counter(name string, fn func(T) int64, labels ...string) {
	s.r.setFunc(name, typeCounter, s.src, func(v any) int64 { return fn(v.(T)) }, labels)
}

// Gauge is Counter for a gauge.
func (s Source[T]) Gauge(name string, fn func(T) int64, labels ...string) {
	s.r.setFunc(name, typeGauge, s.src, func(v any) int64 { return fn(v.(T)) }, labels)
}

func (r *Registry) setFunc(name, typ string, src *source, fn func(any) int64, labels []string) {
	if r == nil {
		return
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	// A fresh child, never a mutated one: a scrape reads the child it
	// snapshotted outside the lock.
	r.getFamily(name, typ, true).children[key] = &child{labels: key, src: src, fn: fn}
}

// DefaultHistogramBuckets: exponential base-4 bounds from 64 up — a good
// fit for nanosecond durations and byte sizes, the two quantities the
// pipeline observes.
var defaultBuckets = expBuckets(64, 4, 16)

// Histogram returns the histogram for name+labels using the default
// exponential buckets, registering it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.HistogramWith(name, nil, labels...)
}

// HistogramWith is Histogram with explicit ascending upper bounds (+Inf is
// implicit). Nil bounds selects the defaults. Bounds are fixed at first
// registration; later calls reuse the existing child.
func (r *Registry) HistogramWith(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = defaultBuckets
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, typeHistogram, false)
	ch := f.children[key]
	if ch == nil {
		ch = &child{labels: key, h: newHistogram(bounds)}
		f.children[key] = ch
	}
	return ch.h
}

// ExpBuckets returns n exponential upper bounds start, start*factor, ... —
// the standard shape for latency/size histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	return expBuckets(start, factor, n)
}

func expBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: exponential buckets need start>0, factor>1, n>0")
	}
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// ---------- handles ----------

// Counter is a monotonically increasing value. The zero value is ready to
// use; all methods are nil-receiver safe no-ops so uninstrumented runs pay
// only a predicted branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0 for the value to stay monotonic; this is not
// enforced on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta with a CAS loop (still lock-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe is lock-free
// and allocation-free: one bucket scan plus three atomic operations.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	// ex holds one exemplar per bucket (last trace ID that landed there),
	// published under a tiny per-slot seqlock so readers never see a trace
	// paired with another observation's value. Only ObserveExemplar touches
	// it; plain Observe costs nothing extra.
	ex []exemplarSlot
}

// exemplarSlot pairs a trace ID with the observed value that put it in the
// bucket. ver is a seqlock: even = stable, odd = write in progress.
type exemplarSlot struct {
	ver   atomic.Uint64
	trace uint64
	bits  uint64 // float64 bits of the observed value
}

// Exemplar is one bucket's exported exemplar.
type Exemplar struct {
	Bucket     int     `json:"bucket"`
	UpperBound float64 `json:"le"` // +Inf rendered as math.Inf(1)
	Count      int64   `json:"count"`
	Trace      uint64  `json:"trace"`
	Value      float64 `json:"value"`
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		ex:     make([]exemplarSlot, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveInt records one integer value (convenience for ns / byte counts).
func (h *Histogram) ObserveInt(v int64) { h.Observe(float64(v)) }

// ObserveExemplar records one value and, when trace is nonzero, stamps it
// as the bucket's exemplar — the trace ID a latency outlier in that bucket
// resolves to. The exemplar write is a short per-slot seqlock, taken only
// on this (sampled) path.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			break
		}
	}
	if trace == 0 {
		return
	}
	e := &h.ex[i]
	for {
		ver := e.ver.Load()
		if ver&1 != 0 {
			continue // another sampled writer holds the slot; rare
		}
		if !e.ver.CompareAndSwap(ver, ver+1) {
			continue
		}
		e.trace = trace
		e.bits = math.Float64bits(v)
		e.ver.Add(1)
		return
	}
}

// Exemplars returns the stable exemplars of every non-empty bucket,
// ascending by bucket. Slots mid-write are skipped rather than returned
// torn.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	out := make([]Exemplar, 0, len(h.ex))
	for i := range h.ex {
		e := &h.ex[i]
		v1 := e.ver.Load()
		if v1&1 != 0 {
			continue
		}
		trace, bits := e.trace, e.bits
		if e.ver.Load() != v1 || trace == 0 {
			continue
		}
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out = append(out, Exemplar{
			Bucket:     i,
			UpperBound: bound,
			Count:      h.counts[i].Load(),
			Trace:      trace,
			Value:      math.Float64frombits(bits),
		})
	}
	return out
}

// TopExemplar returns the exemplar of the highest non-empty bucket that has
// one — the trace ID behind the worst observed latency.
func (h *Histogram) TopExemplar() (Exemplar, bool) {
	ex := h.Exemplars()
	if len(ex) == 0 {
		return Exemplar{}, false
	}
	return ex[len(ex)-1], true
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramExemplars sweeps one histogram family and returns each child's
// exemplars keyed by its canonical label string (e.g. `stage="wal_sync"`).
// Children with no exemplars are omitted.
func (r *Registry) HistogramExemplars(name string) map[string][]Exemplar {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.families[name]
	var hs map[string]*Histogram
	if f != nil && f.typ == typeHistogram {
		hs = make(map[string]*Histogram, len(f.children))
		for key, ch := range f.children {
			hs[key] = ch.h
		}
	}
	r.mu.Unlock()
	if len(hs) == 0 {
		return nil
	}
	out := make(map[string][]Exemplar, len(hs))
	for key, h := range hs {
		if ex := h.Exemplars(); len(ex) > 0 {
			out[key] = ex
		}
	}
	return out
}

// ---------- exposition ----------

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot each family's children under the lock; values — atomics and
	// functions — are read after it is released, so a function may take its
	// owner's locks without ordering against registration.
	type famSnap struct {
		name, typ, help string
		kids            []*child
	}
	snaps := make([]famSnap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		kids := make([]*child, 0, len(f.children))
		for _, ch := range f.children {
			kids = append(kids, ch)
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].labels < kids[j].labels })
		snaps = append(snaps, famSnap{name: f.name, typ: f.typ, help: f.help, kids: kids})
	}
	r.mu.Unlock()

	var sb strings.Builder
	readings := make(map[*source]any) // each Source read once per scrape
	for _, f := range snaps {
		if len(f.kids) == 0 {
			continue // Describe'd but never registered
		}
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, ch := range f.kids {
			key := ch.labels
			switch {
			case ch.fn != nil:
				v, ok := readings[ch.src]
				if !ok && ch.src != nil {
					v = ch.src.read()
					readings[ch.src] = v
				}
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, wrapLabels(key), ch.fn(v))
			case ch.c != nil:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, wrapLabels(key), ch.c.Value())
			case ch.g != nil:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, wrapLabels(key), formatFloat(ch.g.Value()))
			default:
				h := ch.h
				var cum int64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&sb, "%s_bucket%s %d\n",
						f.name, wrapLabels(joinLabels(key, fmt.Sprintf("le=%q", formatFloat(bound)))), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(&sb, "%s_bucket%s %d\n",
					f.name, wrapLabels(joinLabels(key, `le="+Inf"`)), cum)
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name, wrapLabels(key), formatFloat(h.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name, wrapLabels(key), h.Count())
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// renderLabels canonicalizes k/v pairs: sorted by key, values escaped.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	return sb.String()
}

func wrapLabels(inner string) string {
	if inner == "" {
		return ""
	}
	return "{" + inner + "}"
}

func joinLabels(inner, extra string) string {
	if inner == "" {
		return extra
	}
	return inner + "," + extra
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// formatFloat renders a float the way Prometheus clients expect: integral
// values without an exponent where possible.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
