package obs

import (
	"sync"
	"testing"
)

// TestFlightRecorderBasic checks ordered recording and cursor resumption
// below the wrap point.
func TestFlightRecorderBasic(t *testing.T) {
	f := NewFlightRecorder(64)
	if f.Cap() != 64 {
		t.Fatalf("Cap() = %d, want 64", f.Cap())
	}
	for i := 0; i < 10; i++ {
		f.Record(FlightSpan{Trace: uint64(i + 1), Stage: StageEmit, StartNs: int64(i)})
	}
	spans, next := f.Snapshot(nil, 0)
	if len(spans) != 10 || next != 10 {
		t.Fatalf("Snapshot = %d spans, cursor %d; want 10, 10", len(spans), next)
	}
	for i, sp := range spans {
		if sp.Trace != uint64(i+1) {
			t.Fatalf("span %d trace = %d, want %d", i, sp.Trace, i+1)
		}
	}
	// Resume from the cursor: only new spans appear.
	f.Record(FlightSpan{Trace: 11, Stage: StageIngest})
	spans, next2 := f.Snapshot(spans, next)
	if len(spans) != 1 || spans[0].Trace != 11 || next2 != 11 {
		t.Fatalf("resumed Snapshot = %+v cursor %d, want 1 span trace 11 cursor 11", spans, next2)
	}
}

// TestFlightRecorderCapRounding checks power-of-two rounding and the
// minimum capacity.
func TestFlightRecorderCapRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}, {4096, 4096},
	} {
		if got := NewFlightRecorder(tc.in).Cap(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestFlightRecorderWraparound fills the ring several laps over and checks
// overwrite-oldest semantics: the snapshot holds exactly the last cap spans
// in order.
func TestFlightRecorderWraparound(t *testing.T) {
	const capacity = 32
	f := NewFlightRecorder(capacity)
	const total = capacity*4 + 7
	for i := 0; i < total; i++ {
		f.Record(FlightSpan{Trace: uint64(i + 1), StartNs: int64(i)})
	}
	spans, next := f.Snapshot(nil, 0)
	if next != total {
		t.Fatalf("cursor = %d, want %d", next, total)
	}
	if len(spans) != capacity {
		t.Fatalf("snapshot holds %d spans, want cap %d", len(spans), capacity)
	}
	for i, sp := range spans {
		want := uint64(total - capacity + i + 1)
		if sp.Trace != want {
			t.Fatalf("span %d trace = %d, want %d (oldest must be overwritten)", i, sp.Trace, want)
		}
	}
	// A cursor that lags more than one capacity is clamped, not an error.
	spans, _ = f.Snapshot(spans, 3)
	if len(spans) != capacity {
		t.Fatalf("lagged snapshot holds %d spans, want %d", len(spans), capacity)
	}
}

// TestFlightRecorderNilSafe checks the lineage-off path.
func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightSpan{Trace: 1})
	spans, next := f.Snapshot(nil, 5)
	if len(spans) != 0 || next != 5 || f.Cap() != 0 || f.Head() != 0 {
		t.Fatalf("nil recorder must no-op: spans=%v next=%d", spans, next)
	}
	var l *Lineage
	l.Record(1, StageEmit, 0, 0, 0, 0, 0)
	if l.TraceID(3, 9) != 0 || l.SampleEvery() != 0 {
		t.Fatal("nil lineage must never sample")
	}
	if s := l.Stats(); s != (LineageStats{}) {
		t.Fatalf("nil lineage stats = %+v, want zero", s)
	}
}

// TestFlightRecorderConcurrentNoTears is the wraparound-under-writers gate:
// many writers lap a tiny ring while readers continuously snapshot. Every
// span a snapshot returns must be internally consistent (the writer encodes
// a checksum-like relation between its fields), i.e. overwrite-oldest never
// tears a span and cursors never surface a partially overwritten entry.
func TestFlightRecorderConcurrentNoTears(t *testing.T) {
	const (
		writers   = 8
		perWriter = 20000
	)
	f := NewFlightRecorder(64) // tiny ring => constant lapping
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: validate the field relation on every returned span.
	readerErr := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []FlightSpan
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf, cursor = f.Snapshot(buf, cursor)
				for _, sp := range buf {
					// Writer invariant: StartNs = Trace*3, Arg = -int64(Trace),
					// DurNs = Trace+Try. Any torn mix of two writes breaks it.
					if sp.StartNs != int64(sp.Trace)*3 || sp.Arg != -int64(sp.Trace) ||
						sp.DurNs != int64(sp.Trace)+int64(sp.Try) {
						select {
						case readerErr <- "torn span":
						default:
						}
						return
					}
				}
			}
		}()
	}

	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				trace := uint64(w*perWriter + i + 1)
				try := uint16(i & 7)
				f.Record(FlightSpan{
					Trace:   trace,
					Rank:    int32(w),
					Stage:   Stage(i % int(numStages)),
					Try:     try,
					StartNs: int64(trace) * 3,
					DurNs:   int64(trace) + int64(try),
					Arg:     -int64(trace),
				})
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	select {
	case msg := <-readerErr:
		t.Fatal(msg)
	default:
	}
	if head := f.Head(); head != writers*perWriter {
		t.Fatalf("head = %d, want %d (every Record claims an index)", head, writers*perWriter)
	}
	// Post-quiescence snapshot: a full ring of stable spans.
	spans, _ := f.Snapshot(nil, 0)
	if len(spans) != f.Cap() {
		t.Fatalf("quiescent snapshot holds %d spans, want full ring %d", len(spans), f.Cap())
	}
}

// TestLineageSamplerDeterminism is the sampler-determinism gate: the same
// seed and workload must pick the identical set of sampled frame IDs across
// repeated runs, across goroutine interleavings, and regardless of how the
// frames would later be sharded. Table-driven over seeds and periods.
func TestLineageSamplerDeterminism(t *testing.T) {
	const ranks, frames = 32, 64
	cases := []struct {
		name  string
		cfg   LineageConfig
		every uint64
	}{
		{"default", LineageConfig{}, DefaultSampleEvery},
		{"every-16-seed-7", LineageConfig{SampleEvery: 16, Seed: 7}, 16},
		{"every-1", LineageConfig{SampleEvery: 1, Seed: 3}, 1},
		{"every-16-seed-8", LineageConfig{SampleEvery: 16, Seed: 8}, 16},
	}
	type frameID struct {
		rank int
		seq  uint64
	}
	sample := func(l *Lineage) map[frameID]uint64 {
		// Walk the workload from concurrent per-rank goroutines to prove
		// the decision is interleaving-independent (run under -race).
		var mu sync.Mutex
		out := make(map[frameID]uint64)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				local := make(map[frameID]uint64)
				for seq := uint64(1); seq <= frames; seq++ {
					if id := l.TraceID(r, seq); id != 0 {
						local[frameID{r, seq}] = id
					}
				}
				mu.Lock()
				for k, v := range local {
					out[k] = v
				}
				mu.Unlock()
			}(r)
		}
		wg.Wait()
		return out
	}
	sets := make([]map[frameID]uint64, len(cases))
	for i, tc := range cases {
		tc := tc
		i := i
		t.Run(tc.name, func(t *testing.T) {
			first := sample(NewLineage(tc.cfg))
			sets[i] = first
			if tc.every == 1 && len(first) != ranks*frames {
				t.Fatalf("SampleEvery=1 sampled %d of %d frames", len(first), ranks*frames)
			}
			if tc.every > 1 {
				if len(first) == 0 {
					t.Fatalf("no frames sampled out of %d (period %d)", ranks*frames, tc.every)
				}
				if len(first) == ranks*frames {
					t.Fatalf("all frames sampled; period %d should thin them", tc.every)
				}
			}
			for k, id := range first {
				if id == 0 {
					t.Fatalf("sampled frame %+v has zero trace ID", k)
				}
			}
			// Second independent run: identical set and identical IDs.
			second := sample(NewLineage(tc.cfg))
			if len(second) != len(first) {
				t.Fatalf("run 2 sampled %d frames, run 1 sampled %d", len(second), len(first))
			}
			for k, id := range first {
				if second[k] != id {
					t.Fatalf("frame %+v: run 1 id %d, run 2 id %d", k, id, second[k])
				}
			}
		})
	}
	// Different seeds must (for these parameters) pick different sets —
	// the seed genuinely perturbs selection.
	a, b := sets[1], sets[3]
	if a != nil && b != nil {
		same := len(a) == len(b)
		if same {
			for k := range a {
				if _, ok := b[k]; !ok {
					same = false
					break
				}
			}
		}
		if same && len(a) > 0 {
			t.Error("seeds 7 and 8 sampled the identical frame set; seed has no effect")
		}
	}
}

// TestLineageRecordAndStats checks the span → ring → histogram-exemplar
// plumbing end to end within the obs package.
func TestLineageRecordAndStats(t *testing.T) {
	o := New()
	l := o.EnableLineage(LineageConfig{SampleEvery: 1, Seed: 5})
	if got := o.Lineage(); got != l {
		t.Fatal("Obs.Lineage() must return the enabled tracer")
	}
	tr := l.TraceID(2, 1)
	if tr == 0 {
		t.Fatal("SampleEvery=1 must sample every frame")
	}
	l.Record(tr, StageIngest, 2, 0, 100, 5_000_000, 0) // 5ms => a high bucket
	l.Record(tr, StageWALSync, 2, 0, 200, 1000, 0)
	l.Record(0, StageEmit, 2, 0, 1, 1, 0) // unsampled: must be dropped
	spans, _ := l.Snapshot(nil, 0)
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans, want 2 (trace 0 must not record)", len(spans))
	}
	st := l.Stats()
	if st.Spans != 2 || st.SampleEvery != 1 || st.FlightCap != flightCap || st.Seed != 5 {
		t.Fatalf("Stats = %+v", st)
	}
	h := l.StageHistogram(StageIngest)
	if h.Count() != 1 {
		t.Fatalf("ingest histogram count = %d, want 1", h.Count())
	}
	top, ok := h.TopExemplar()
	if !ok || top.Trace != tr || top.Value != 5_000_000 {
		t.Fatalf("TopExemplar = %+v ok=%v, want trace %d value 5e6", top, ok, tr)
	}
	ex := o.Registry().HistogramExemplars("lineage_stage_ns")
	if len(ex) != 2 {
		t.Fatalf("registry exemplar sweep found %d children, want 2: %v", len(ex), ex)
	}
	if _, ok := ex[`stage="server_ingest"`]; !ok {
		t.Fatalf("sweep missing server_ingest child: %v", ex)
	}
}

// TestStageStrings pins the stage labels — they are wire-adjacent (metric
// labels, /debug/flight JSON, trace output) and must not drift silently.
func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageEmit:        "emit",
		StageEnqueue:     "enqueue",
		StageAttempt:     "attempt",
		StageRetry:       "retry",
		StageIngest:      "server_ingest",
		StageDedup:       "dedup",
		StageWALAppend:   "wal_append",
		StageWALSync:     "wal_sync",
		StageSnapshot:    "snapshot",
		StageEpochReopen: "epoch_reopen",
		StageEpochClose:  "epoch_close",
		StageVerdict:     "verdict",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
		j, err := s.MarshalJSON()
		if err != nil || string(j) != `"`+name+`"` {
			t.Errorf("Stage(%d).MarshalJSON() = %s, %v", s, j, err)
		}
	}
	if Stage(200).String() != "stage(200)" {
		t.Errorf("out-of-range stage String = %q", Stage(200).String())
	}
}

// TestStageUnmarshalJSON pins the label → Stage decoder that lets
// /debug/flight payloads round-trip through the producing types.
func TestStageUnmarshalJSON(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		j, _ := s.MarshalJSON()
		var got Stage
		if err := got.UnmarshalJSON(j); err != nil || got != s {
			t.Errorf("round-trip of %v: got %v, err %v", s, got, err)
		}
	}
	var s Stage
	if err := s.UnmarshalJSON([]byte(`"warp"`)); err == nil {
		t.Error("unknown stage label accepted")
	}
	if err := s.UnmarshalJSON([]byte(`7`)); err == nil {
		t.Error("non-string stage accepted")
	}
}

// TestLineageNilSafety pins the "nil *Lineage is lineage off" contract:
// every method must be a safe no-op so call sites need only one check.
func TestLineageNilSafety(t *testing.T) {
	var l *Lineage
	if l.SampleEvery() != 0 || l.TraceID(1, 2) != 0 || l.SampledFrames() != 0 {
		t.Error("nil lineage reports sampling")
	}
	l.FrameSampled()
	l.Record(1, StageIngest, 0, 0, 0, 0, 0)
	if l.Ring() != nil || l.StageHistogram(StageIngest) != nil {
		t.Error("nil lineage exposes a ring or histogram")
	}
	if spans, cur := l.Snapshot(nil, 7); len(spans) != 0 || cur != 7 {
		t.Error("nil lineage snapshot not a no-op")
	}
	if st := l.Stats(); st != (LineageStats{}) {
		t.Errorf("nil lineage stats = %+v", st)
	}
}

// TestLineageAccessors covers the live-side accessors end to end on a
// standalone tracer.
func TestLineageAccessors(t *testing.T) {
	l := NewLineage(LineageConfig{SampleEvery: 2, Seed: 5})
	if l.SampleEvery() != 2 {
		t.Errorf("SampleEvery = %d", l.SampleEvery())
	}
	if l.Ring() == nil || l.Ring().Cap() != flightCap {
		t.Fatal("ring missing or mis-sized")
	}
	l.FrameSampled()
	l.FrameSampled()
	if l.SampledFrames() != 2 {
		t.Errorf("SampledFrames = %d", l.SampledFrames())
	}
	l.Record(42, StageDedup, 3, 1, 100, 9, 0)
	if h := l.StageHistogram(StageDedup); h == nil || h.Count() == 0 {
		t.Error("stage histogram did not observe the span")
	}
	if l.StageHistogram(numStages) != nil {
		t.Error("out-of-range stage histogram not nil")
	}
	st := l.Stats()
	if st.SampleEvery != 2 || st.Seed != 5 || st.FlightCap != flightCap || st.Spans != 1 || st.SampledFrames != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTracerGrow pins that Grow pre-reserves span capacity (the fix for
// the alloc-free hot-span contract) and is nil/negative safe.
func TestTracerGrow(t *testing.T) {
	var nilT *Tracer
	nilT.Grow(100) // must not panic
	tr := NewTracer()
	tr.Grow(-1)
	tr.Grow(1000)
	allocs := testing.AllocsPerRun(200, func() {
		tr.Start(0, "hot").End()
	})
	if allocs != 0 {
		t.Errorf("Start/End after Grow allocates %.1f per op", allocs)
	}
}
