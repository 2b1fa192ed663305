package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records hierarchical spans — facade pipeline stages and per-rank
// executions — and exports them in the Chrome trace_event format so a run
// can be inspected in chrome://tracing or Perfetto. Spans on the same
// thread id (tid) nest by time containment, which is exactly how the
// Chrome viewer draws hierarchy.
//
// Unlike the rest of the simulator, span timestamps are real wall-clock
// time: the tracer observes the reproduction itself (where does the
// pipeline spend host time), not the virtual cluster.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []spanRecord
	threads map[int]string
}

// spanRecord is one completed span.
type spanRecord struct {
	name    string
	tid     int
	startUs float64
	durUs   float64
	args    map[string]string
}

// Span is one in-flight span; End completes it. All methods are nil-safe.
type Span struct {
	t     *Tracer
	name  string
	tid   int
	begin time.Time
	args  map[string]string
}

// NewTracer creates an empty tracer. The epoch (ts=0 in the export) is the
// creation time.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), threads: make(map[int]string)}
}

// NameThread assigns a display name to a tid (e.g. 0 → "pipeline",
// r+1 → "rank r"), emitted as trace metadata.
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// Grow pre-reserves capacity for n additional spans, so a caller that knows
// its span volume up front (benchmarks, bounded replays) avoids the
// amortized slice-doubling copies that End would otherwise pay.
func (t *Tracer) Grow(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	if free := cap(t.spans) - len(t.spans); free < n {
		grown := make([]spanRecord, len(t.spans), len(t.spans)+n)
		copy(grown, t.spans)
		t.spans = grown
	}
	t.mu.Unlock()
}

// Start opens a span on the given tid. Safe to call from any goroutine.
func (t *Tracer) Start(tid int, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, tid: tid, begin: time.Now()}
}

// Arg attaches a key/value annotation; chainable.
func (s *Span) Arg(k, v string) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]string, 4)
	}
	s.args[k] = v
	return s
}

// End completes the span, recording it in the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	t := s.t
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		name:    s.name,
		tid:     s.tid,
		startUs: float64(s.begin.Sub(t.epoch)) / float64(time.Microsecond),
		durUs:   float64(end.Sub(s.begin)) / float64(time.Microsecond),
		args:    s.args,
	})
	t.mu.Unlock()
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpanNames returns the distinct names of completed spans (sorted), for
// tests and summaries.
func (t *Tracer) SpanNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	set := make(map[string]bool, len(t.spans))
	for _, s := range t.spans {
		set[s.name] = true
	}
	t.mu.Unlock()
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// chromeEvent is one entry of the trace_event JSON array.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the object form of the format ({"traceEvents": [...]});
// both chrome://tracing and Perfetto load it.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// lineagePid is the Chrome-trace process id under which lineage spans are
// grouped (pipeline spans live under pid 1, one row per rank under pid 2).
const lineagePid = 2

// WriteChromeMerged exports every completed span (and thread-name
// metadata) as Chrome trace_event JSON plus, when lin is non-nil, every
// stable span in the lineage flight recorder: each sampled record's
// journey appears as stage slices on the emitting rank's row of a separate
// "lineage" process, with the trace ID in the args so rows correlate with
// /debug/flight and histogram exemplars.
func (t *Tracer) WriteChromeMerged(w io.Writer, lin *Lineage) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans)+len(t.threads))
	tids := make([]int, 0, len(t.threads))
	for tid := range t.threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  1,
			Tid:  tid,
			Args: map[string]string{"name": t.threads[tid]},
		})
	}
	for _, s := range t.spans {
		dur := s.durUs
		events = append(events, chromeEvent{
			Name: s.name,
			Ph:   "X",
			Ts:   s.startUs,
			Dur:  &dur,
			Pid:  1,
			Tid:  s.tid,
			Args: s.args,
		})
	}
	epochNs := t.epoch.UnixNano()
	t.mu.Unlock()

	if flight, _ := lin.Snapshot(nil, 0); len(flight) > 0 {
		events = append(events, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  lineagePid,
			Args: map[string]string{"name": "lineage (sampled records)"},
		})
		for _, sp := range flight {
			dur := float64(sp.DurNs) / float64(time.Microsecond)
			args := map[string]string{
				"trace": fmt.Sprintf("%016x", sp.Trace),
			}
			if sp.Try != 0 {
				args["try"] = fmt.Sprintf("%d", sp.Try)
			}
			if sp.Arg != 0 {
				args["arg"] = fmt.Sprintf("%d", sp.Arg)
			}
			events = append(events, chromeEvent{
				Name: sp.Stage.String(),
				Ph:   "X",
				Ts:   float64(sp.StartNs-epochNs) / float64(time.Microsecond),
				Dur:  &dur,
				Pid:  lineagePid,
				Tid:  int(sp.Rank),
				Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
