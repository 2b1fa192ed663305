package transport

import (
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// lineageLink builds a server + link pair with lineage enabled on both
// (SetObs attaches the same obs bundle to each, as the facade does).
func lineageLink(t *testing.T, plan FaultPlan, cfg obs.LineageConfig) (*server.Server, *Link, *obs.Lineage) {
	t.Helper()
	srv := server.New()
	o := obs.New()
	lin := o.EnableLineage(cfg)
	srv.SetObs(o)
	link := NewLink(srv, plan)
	link.SetObs(o)
	return srv, link, lin
}

// TestLineageSpansAcrossLossyLink drives a dropping link with every frame
// sampled and checks the client-side hops land in the flight recorder:
// enqueue on flush, one attempt span per delivery try, and a retry span
// (carrying the charged backoff) between failed tries.
func TestLineageSpansAcrossLossyLink(t *testing.T) {
	_, link, lin := lineageLink(t, FaultPlan{Seed: 3, Drop: 0.5}, obs.LineageConfig{SampleEvery: 1})
	conn := link.NewConn(2, Config{BatchSize: 4})
	conn.BindClock(&fakeClock{})
	const n = 40
	for i := 0; i < n; i++ {
		if err := conn.OnSlice(rec(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	spans, _ := lin.Snapshot(nil, 0)
	var enq, attempts, retries, acked int
	for _, sp := range spans {
		switch sp.Stage {
		case obs.StageEnqueue:
			enq++
			if sp.Rank != 2 {
				t.Fatalf("enqueue span rank %d, want 2", sp.Rank)
			}
		case obs.StageAttempt:
			attempts++
			if sp.Try == 0 {
				t.Fatal("attempt span with try 0; tries are 1-based")
			}
			if sp.Arg == 1 {
				acked++
			}
		case obs.StageRetry:
			retries++
			if sp.Arg <= 0 {
				t.Fatalf("retry span charged %d ns, want > 0", sp.Arg)
			}
		}
	}
	frames := n / 4
	if enq != frames {
		t.Fatalf("enqueue spans = %d, want %d (one per flushed frame)", enq, frames)
	}
	if acked != frames {
		t.Fatalf("acked attempt spans = %d, want %d", acked, frames)
	}
	// A 50% drop rate over 10 frames fails some attempts with overwhelming
	// probability; each failure records one attempt(arg=0) and one retry.
	if retries == 0 || attempts <= frames {
		t.Fatalf("attempts=%d retries=%d: fault injection produced no retried deliveries", attempts, retries)
	}
	if attempts != frames+retries {
		t.Fatalf("attempts=%d != acked(%d)+failed(%d): span accounting leaks", attempts, frames, retries)
	}
}

// TestLineageParkedFrameKeepsTrace exhausts retries so a sampled frame
// parks, then heals the link: the drain's attempts must re-derive the trace
// from the parked bytes and continue the same journey.
func TestLineageParkedFrameKeepsTrace(t *testing.T) {
	srv, link, lin := lineageLink(t, FaultPlan{Seed: 1, Drop: 1.0}, obs.LineageConfig{SampleEvery: 1})
	conn := link.NewConn(0, Config{BatchSize: 2})
	conn.BindClock(&fakeClock{})
	for i := 0; i < 2; i++ {
		if err := conn.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(srv.Records()); got != 0 {
		t.Fatalf("%d records delivered through a 100%% lossy link", got)
	}
	trace := lin.TraceID(0, 1)
	if trace == 0 {
		t.Fatal("frame 1 unsampled at SampleEvery=1")
	}

	spans, _ := lin.Snapshot(nil, 0)
	parkAttempts := 0
	for _, sp := range spans {
		if sp.Trace == trace && sp.Stage == obs.StageAttempt {
			parkAttempts++
		}
	}
	if parkAttempts != 1+maxRetries {
		t.Fatalf("attempt spans before parking = %d, want %d (first + maxRetries)", parkAttempts, 1+maxRetries)
	}

	// Heal the link and flush: drainParked retries the parked frame under
	// the same trace.
	link.plan.Drop = 0
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != 2 {
		t.Fatalf("records after heal = %d, want 2", got)
	}
	spans, _ = lin.Snapshot(nil, 0)
	var drainAcked, ingested bool
	for _, sp := range spans {
		if sp.Trace != trace {
			continue
		}
		if sp.Stage == obs.StageAttempt && sp.Arg == 1 {
			drainAcked = true
		}
		if sp.Stage == obs.StageIngest {
			ingested = true
		}
	}
	if !drainAcked {
		t.Fatalf("no acked attempt span for parked trace %#x after heal", trace)
	}
	if !ingested {
		t.Fatalf("no server ingest span for parked trace %#x: trace lost across the park", trace)
	}
}

// TestLineageOffAddsNoSpansOrBytes pins the zero-overhead-when-off
// contract at the transport level: without lineage the wire carries vSF1
// frames and the ring stays empty even with obs attached.
func TestLineageOffAddsNoSpansOrBytes(t *testing.T) {
	srv := server.New()
	o := obs.New() // obs on, lineage off
	srv.SetObs(o)
	link := NewLink(srv, FaultPlan{})
	link.SetObs(o)
	conn := link.NewConn(0, Config{BatchSize: 4})
	for i := 0; i < 8; i++ {
		if err := conn.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if o.Lineage() != nil {
		t.Fatal("lineage enabled without EnableLineage")
	}
	if tr := conn.NextTrace(); tr != 0 {
		t.Fatalf("NextTrace = %#x with lineage off, want 0", tr)
	}

	// Same workload with lineage on but SampleEvery so large nothing is
	// sampled: bytes on the wire must match the lineage-off run exactly.
	srv2, link2, lin := lineageLink(t, FaultPlan{}, obs.LineageConfig{SampleEvery: 1 << 62})
	conn2 := link2.NewConn(0, Config{BatchSize: 4})
	for i := 0; i < 8; i++ {
		if err := conn2.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn2.Close(); err != nil {
		t.Fatal(err)
	}
	if a, b := srv.Progress().Bytes, srv2.Progress().Bytes; a != b {
		t.Fatalf("unsampled lineage changed wire bytes: %d vs %d", a, b)
	}
	if n := lin.SampledFrames(); n != 0 {
		t.Fatalf("%d frames sampled at SampleEvery=2^62", n)
	}
	if spans, _ := lin.Snapshot(nil, 0); len(spans) != 0 {
		t.Fatalf("%d spans recorded with nothing sampled", len(spans))
	}
}

// TestLineageConnNextTraceMatchesWire pins the TraceSource contract on the
// transport path: NextTrace called before records buffer predicts the trace
// the wire frame actually carries (including when OnSlice itself triggers
// the flush).
func TestLineageConnNextTraceMatchesWire(t *testing.T) {
	_, link, lin := lineageLink(t, FaultPlan{}, obs.LineageConfig{SampleEvery: 2, Seed: 11})
	conn := link.NewConn(5, Config{BatchSize: 3})
	for seq := uint64(1); seq <= 12; seq++ {
		predicted := conn.NextTrace()
		if want := lin.TraceID(5, seq); predicted != want {
			t.Fatalf("before frame %d: NextTrace = %#x, want %#x", seq, predicted, want)
		}
		for i := 0; i < 3; i++ {
			if err := conn.OnSlice(rec(5, int(seq)*3+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every odd-or-even half of the 12 frames is sampled at SampleEvery=2;
	// the exact set is the sampler's business, but it must be non-empty.
	if lin.SampledFrames() == 0 {
		t.Fatal("no frames sampled at SampleEvery=2 over 12 frames")
	}
}

// TestLineageFaultDeterminismUnchanged pins that enabling lineage does not
// perturb the fault schedule or anything delivered: frames are the same
// bytes either way, so the seeded fault dice — the corrupt dice's bit pick
// included — roll the same, and the record log, the bytes and coverage the
// server saw, and the conn's own accounting are equal.
func TestLineageFaultDeterminismUnchanged(t *testing.T) {
	plan := FaultPlan{Seed: 9, Drop: 0.2, Dup: 0.1, Reorder: 0.1, Corrupt: 0.05}
	type outcome struct {
		recs  []detect.SliceRecord
		bytes int64
		cov   server.Coverage
		conn  ConnStats
	}
	run := func(withLineage bool) outcome {
		srv := server.New()
		o := obs.New()
		if withLineage {
			o.EnableLineage(obs.LineageConfig{SampleEvery: 2})
		}
		srv.SetObs(o)
		link := NewLink(srv, plan)
		link.SetObs(o)
		conn := link.NewConn(0, Config{BatchSize: 4})
		conn.BindClock(&fakeClock{})
		for i := 0; i < 256; i++ {
			if err := conn.OnSlice(rec(0, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		recs := srv.Records()
		sortRecords(recs)
		return outcome{recs, srv.Progress().Bytes, srv.Coverage(), conn.Stats()}
	}
	off, on := run(false), run(true)
	if off.cov.ChecksumErrors == 0 {
		t.Fatalf("plan corrupted nothing: %+v", off.cov)
	}
	if len(off.recs) != len(on.recs) {
		t.Fatalf("record counts diverge: lineage-off %d, lineage-on %d", len(off.recs), len(on.recs))
	}
	for i := range off.recs {
		if off.recs[i] != on.recs[i] {
			t.Fatalf("record %d diverges: %+v vs %+v", i, off.recs[i], on.recs[i])
		}
	}
	if off.bytes != on.bytes || off.cov != on.cov || off.conn != on.conn {
		t.Fatalf("lineage perturbed delivery:\n off: %d B %+v %+v\n  on: %d B %+v %+v",
			off.bytes, off.cov, off.conn, on.bytes, on.cov, on.conn)
	}
}
