package transport

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/server"
)

// sortRecords orders a record log canonically so logs can be compared
// independently of delivery order.
func sortRecords(recs []detect.SliceRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.SliceNs != b.SliceNs {
			return a.SliceNs < b.SliceNs
		}
		if a.Sensor != b.Sensor {
			return a.Sensor < b.Sensor
		}
		return a.Group < b.Group
	})
}

// fakeClock implements vm.Clock for charge accounting.
type fakeClock struct{ now int64 }

func (f *fakeClock) Now() int64        { return f.now }
func (f *fakeClock) AdvanceTo(t int64) { f.now = t }

func rec(rank, i int) detect.SliceRecord {
	return detect.SliceRecord{
		Sensor: i % 7, Group: i % 3, Rank: rank,
		SliceNs: int64(i) * 1_000_000, Count: 1, AvgNs: float64(100 + i%13),
	}
}

func TestPerfectLinkDelivery(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{})
	conn := link.NewConn(0, Config{BatchSize: 8})
	const n = 50
	for i := 0; i < n; i++ {
		if err := conn.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != n {
		t.Fatalf("records = %d, want %d", got, n)
	}
	cov := srv.Coverage()
	if !cov.Complete() || cov.ExpectedRecords != n {
		t.Errorf("coverage = %+v", cov)
	}
	st := conn.Stats()
	if st.RecordsSent != n || st.Retries != 0 || st.LostRecords != 0 || st.WaitNs != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// A dropping link forces retries; each failed attempt charges timeout plus
// growing backoff to the bound virtual clock.
func TestRetryChargesClock(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{Seed: 1, Drop: 0.5})
	clk := &fakeClock{}
	conn := link.NewConn(0, Config{BatchSize: 4})
	conn.BindClock(clk)
	for i := 0; i < 64; i++ {
		conn.OnSlice(rec(0, i))
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	st := conn.Stats()
	if st.Retries == 0 {
		t.Fatal("50% drop produced no retries")
	}
	if st.WaitNs == 0 || clk.now != st.WaitNs {
		t.Errorf("wait=%d clock=%d; retry time not charged to the clock", st.WaitNs, clk.now)
	}
	// Minimum charge: every retry waits out at least the ack timeout.
	if st.WaitNs < st.Retries*ackTimeoutNs {
		t.Errorf("wait %d < retries %d * timeout", st.WaitNs, st.Retries)
	}
	if got := len(srv.Records()); got != 64 {
		t.Errorf("records = %d, want 64 (drops must be retried)", got)
	}
}

// With the link permanently down, frames park; flush intervals pack while
// the park queue is blocked, and once the packed buffer reaches
// bufferCap*BatchSize records a frame is cut anyway — beyond the parked cap
// the oldest frame is evicted and reported as an explicit error, so memory
// stays bounded under unbounded backpressure.
func TestBufferCapDropOldest(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{Seed: 2, Drop: 1})
	const batch = 2
	conn := link.NewConn(3, Config{BatchSize: batch})
	// The first frame parks at one batch, every later one at the pack
	// limit: the (bufferCap+1)-th parked frame evicts, and one more batch
	// runs past it.
	const n = batch + bufferCap*bufferCap*batch + batch
	var evictErr error
	for i := 0; i < n; i++ {
		if err := conn.OnSlice(rec(3, i)); err != nil && evictErr == nil {
			evictErr = err
		}
	}
	if evictErr == nil {
		t.Fatal("no backpressure error after overfilling the retransmit buffer")
	}
	if !strings.Contains(evictErr.Error(), "retransmit buffer full") {
		t.Errorf("err = %v", evictErr)
	}
	st := conn.Stats()
	if st.Parked != bufferCap {
		t.Errorf("parked = %d, want cap %d", st.Parked, bufferCap)
	}
	if st.PackedFlushes == 0 {
		t.Error("no flush intervals packed while the park queue was blocked")
	}
	if st.LostFrames == 0 {
		t.Error("no evictions despite overflowing the cap")
	}
	if err := conn.Close(); err == nil {
		t.Error("close on a dead link should report abandoned frames")
	}
	st = conn.Stats()
	if st.Parked != 0 {
		t.Errorf("parked after close = %d", st.Parked)
	}
	// Every record was either evicted or abandoned: nothing arrived, and
	// the loss accounting covers all n.
	if st.LostRecords != n {
		t.Errorf("lost records = %d, want %d", st.LostRecords, n)
	}
	if got := len(srv.Records()); got != 0 {
		t.Errorf("dead link delivered %d records", got)
	}
}

// Close's final drain gives a parked frame closeAttempts+1 attempts after
// the last flush's maxRetries+1: a frame the medium answers on the very
// last of them lands, one attempt later it is abandoned as lost.
func TestCloseDrainAttempts(t *testing.T) {
	// One record parks after a transmit's tries, Close's flush spends one
	// more drain on it, then the final drain.
	const budget = 2*(maxRetries+1) + closeAttempts + 1
	for _, tc := range []struct {
		name   string
		failed int // leading attempts the medium fails
		lost   int64
	}{
		{"lands-on-last", budget - 1, 0},
		{"abandoned", budget, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			attempts := 0
			m := mediumFunc(func([]byte) error {
				if attempts++; attempts <= tc.failed {
					return errors.New("medium down")
				}
				return nil
			})
			conn := NewLinkOver(m, FaultPlan{}).NewConn(0, Config{BatchSize: 1})
			if err := conn.OnSlice(rec(0, 0)); err != nil {
				t.Fatal(err)
			}
			if st := conn.Stats(); st.Parked != 1 || attempts != maxRetries+1 {
				t.Fatalf("after the first transmit: parked %d after %d attempts, want 1 after %d", st.Parked, attempts, maxRetries+1)
			}
			err := conn.Close()
			if (err != nil) != (tc.lost > 0) {
				t.Fatalf("close error = %v, want one only when a frame is abandoned", err)
			}
			if attempts != min(tc.failed+1, budget) {
				t.Errorf("attempts = %d, want %d", attempts, min(tc.failed+1, budget))
			}
			if st := conn.Stats(); st.LostRecords != tc.lost || st.Parked != 0 {
				t.Errorf("stats = %+v, want %d lost and nothing parked", st, tc.lost)
			}
		})
	}
}

// The packed-record cap is bufferCap*BatchSize, but never more than one
// frame can carry.
func TestPackLimitCappedByFrame(t *testing.T) {
	link := NewLink(server.New(), FaultPlan{})
	small := link.NewConn(0, Config{BatchSize: 2})
	if got := small.packLimit(); got != bufferCap*2 {
		t.Errorf("packLimit = %d, want %d", got, bufferCap*2)
	}
	huge := link.NewConn(1, Config{BatchSize: server.MaxFrameRecords/bufferCap + 1})
	if got := huge.packLimit(); got != server.MaxFrameRecords {
		t.Errorf("packLimit = %d, want frame cap %d", got, server.MaxFrameRecords)
	}
}

// Backpressure packing, deterministically: during the server's crash
// window the first undelivered frame parks, later flush intervals defer
// instead of cutting frames behind it, and the first flush after recovery
// delivers the parked frame plus ONE packed frame carrying every deferred
// interval.
func TestBackpressurePackedFlushes(t *testing.T) {
	srv := server.New()
	// Each transmit or drain makes exactly maxRetries+1 attempts, so the
	// schedule below is fully deterministic: attempt 1 lands, the next three
	// tries' attempts hit the down window, and every later attempt lands.
	const tries = maxRetries + 1
	link := NewLink(srv, FaultPlan{CrashAfterFrames: 1, CrashDownFrames: 3 * tries})
	conn := link.NewConn(1, Config{BatchSize: 64})
	flushN := func(k int) {
		for i := 0; i < 2; i++ {
			if err := conn.OnSlice(rec(1, k*2+i)); err != nil {
				t.Fatal(err)
			}
		}
		_ = conn.Flush()
	}
	flushN(0) // attempt 1: delivered
	flushN(1) // the next tries attempts: down, frame parks
	flushN(2) // the next tries attempts on the parked frame fail; interval defers
	flushN(3) // likewise
	flushN(4) // parked frame lands; packed frame (6 records) lands
	st := conn.Stats()
	if st.PackedFlushes != 2 {
		t.Errorf("packed flushes = %d, want 2", st.PackedFlushes)
	}
	if st.FramesSent != 3 {
		t.Errorf("frames sent = %d, want 3 (1 clean + 1 parked + 1 packed)", st.FramesSent)
	}
	if st.LostFrames != 0 || st.LostRecords != 0 {
		t.Errorf("lost frames=%d records=%d, want none", st.LostFrames, st.LostRecords)
	}
	if got := len(srv.Records()); got != 10 {
		t.Errorf("records = %d, want all 10", got)
	}
	cov := srv.Coverage()
	if cov.IngestedRecords != 10 || cov.Fraction() != 1 {
		t.Errorf("coverage = %+v, want complete", cov)
	}
}

// Frames rejected during the server's crash window are retried and land
// after the restart: nothing is lost across a crash-restart.
func TestCrashRestartRecovery(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{CrashAfterFrames: 5, CrashDownFrames: 10})
	conn := link.NewConn(0, Config{BatchSize: 2})
	const n = 40
	for i := 0; i < n; i++ {
		if err := conn.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != n {
		t.Fatalf("records = %d, want %d", got, n)
	}
	st := conn.Stats()
	if st.Retries == 0 {
		t.Error("crash window produced no retries")
	}
	if cov := srv.Coverage(); !cov.Complete() {
		t.Errorf("coverage = %+v", cov)
	}
}

// An always-duplicating link delivers every frame twice; the server's
// sequence dedup keeps the log exactly-once.
func TestDuplicatesAbsorbed(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{Dup: 1})
	conn := link.NewConn(0, Config{BatchSize: 4})
	const n = 20
	for i := 0; i < n; i++ {
		conn.OnSlice(rec(0, i))
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != n {
		t.Fatalf("records = %d, want %d exactly-once", got, n)
	}
	cov := srv.Coverage()
	if cov.DupFrames != 5 {
		t.Errorf("dup frames = %d, want 5 (one per frame)", cov.DupFrames)
	}
}

// An always-reordering link holds each frame until the next one passes it;
// the log still ends up complete, with the server having seen sequences out
// of order.
func TestReorderEventuallyDelivers(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{Reorder: 1})
	conn := link.NewConn(0, Config{BatchSize: 2})
	const n = 10
	for i := 0; i < n; i++ {
		conn.OnSlice(rec(0, i))
	}
	// Frame 1 is still held in flight until close releases it.
	if got := len(srv.Records()); got != n-2 {
		t.Fatalf("records before close = %d, want %d (one frame in flight)", got, n-2)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != n {
		t.Fatalf("records = %d, want %d", got, n)
	}
	if cov := srv.Coverage(); !cov.Complete() {
		t.Errorf("coverage = %+v", cov)
	}
}

// Corrupted frames reach the server, fail the CRC, and are retried intact.
func TestCorruptionRetried(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{Seed: 3, Corrupt: 0.5})
	conn := link.NewConn(0, Config{BatchSize: 4})
	const n = 40
	for i := 0; i < n; i++ {
		conn.OnSlice(rec(0, i))
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != n {
		t.Fatalf("records = %d, want %d", got, n)
	}
	if cov := srv.Coverage(); cov.ChecksumErrors == 0 {
		t.Error("50% corruption produced no checksum rejects")
	}
}

// chaosPlan is the kitchen-sink fault plan the acceptance criteria name:
// heavy drop, duplication, reordering, corruption, and one crash-restart.
var chaosPlan = FaultPlan{
	Seed: 11, Drop: 0.25, Dup: 0.1, Reorder: 0.15, Corrupt: 0.05,
	CrashAfterFrames: 60, CrashDownFrames: 20,
}

// runRanks pushes the same synthetic workload through a link from concurrent
// rank goroutines and returns the server.
func runRanks(t *testing.T, plan FaultPlan, ranks, perRank int) *server.Server {
	t.Helper()
	srv := server.New()
	link := NewLink(srv, plan)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			conn := link.NewConn(rank, Config{
				BatchSize: 8,
			})
			for i := 0; i < perRank; i++ {
				if err := conn.OnSlice(rec(rank, i)); err != nil {
					errs[rank] = err
					return
				}
			}
			errs[rank] = conn.Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return srv
}

// TestChaosExactlyOnce is the acceptance chaos test: under seeded drops,
// duplicates, reordering, corruption, and a server crash-restart, the
// server's final record log must equal the fault-free log after sorting —
// exactly-once delivery of every record, from concurrent rank goroutines
// (run under -race in CI).
func TestChaosExactlyOnce(t *testing.T) {
	const ranks, perRank = 8, 200
	faulty := runRanks(t, chaosPlan, ranks, perRank)
	clean := runRanks(t, FaultPlan{}, ranks, perRank)

	got := faulty.Records()
	want := clean.Records()
	sortRecords(got)
	sortRecords(want)
	if len(got) != len(want) {
		t.Fatalf("faulty log has %d records, clean has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after sorting: %+v vs %+v", i, got[i], want[i])
		}
	}
	cov := faulty.Coverage()
	if !cov.Complete() {
		t.Errorf("coverage incomplete: %+v", cov)
	}
	if cov.DupFrames == 0 || cov.ChecksumErrors == 0 {
		t.Errorf("chaos plan injected no dups/corruption? coverage = %+v", cov)
	}
}

// The per-rank fault streams are keyed by (seed, rank) only, so a rank's
// delivery accounting is identical across runs regardless of interleaving.
func TestFaultStreamDeterminism(t *testing.T) {
	run := func() ConnStats {
		srv := server.New()
		link := NewLink(srv, FaultPlan{Seed: 5, Drop: 0.3, Corrupt: 0.1, DelayNs: 100})
		conn := link.NewConn(2, Config{BatchSize: 4})
		for i := 0; i < 80; i++ {
			conn.OnSlice(rec(2, i))
		}
		conn.Close()
		return conn.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different stats:\n%+v\n%+v", a, b)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "drop=0.2,dup=0.05,reorder=0.1,corrupt=0.02,delay=20us,seed=7,crashafter=100,crashdown=20"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{
		Seed: 7, Drop: 0.2, Dup: 0.05, Reorder: 0.1, Corrupt: 0.02,
		DelayNs: 20_000, CrashAfterFrames: 100, CrashDownFrames: 20,
	}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	// String renders back into parseable syntax.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Errorf("string round trip: %+v vs %+v", p2, p)
	}
	if got, err := ParsePlan(""); err != nil || !got.Zero() {
		t.Errorf("empty spec: %+v, %v", got, err)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"drop", "drop=x", "drop=1.5", "drop=-0.1", "bogus=1", "delay=5xs",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestConnFlushAllocs pins what a flush allocates, with every record staged
// in the Conn's own frame buffer and the frame sealed and sent from it in
// place. Over the in-process server, a warm Conn's steady-state flush
// allocates nothing: AllocsPerRun rounds the server's amortized growth (a
// log chunk every 1024 records, the segment index's doublings) down to 0,
// while a single allocation per flush would read 1. A fresh Conn's first
// batch allocates only its frame buffer; its frame repeats a sequence the
// server already holds, so the server drops it as a duplicate and
// allocates nothing either.
func TestConnFlushAllocs(t *testing.T) {
	const batch = 8
	srv := server.New()
	link := NewLink(srv, FaultPlan{})
	fill := func(c *Conn) {
		for i := range batch {
			if err := c.OnSlice(rec(3, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm := link.NewConn(3, Config{BatchSize: batch})
	for range 64 {
		fill(warm)
	}
	if avg := testing.AllocsPerRun(1000, func() { fill(warm) }); avg != 0 {
		t.Errorf("a warm Conn's flush allocates %v objects, want 0", avg)
	}

	const runs = 100
	fresh := make([]*Conn, runs+1) // AllocsPerRun calls once more to warm up
	for i := range fresh {
		fresh[i] = link.NewConn(3, Config{BatchSize: batch})
	}
	next := 0
	if avg := testing.AllocsPerRun(runs, func() { fill(fresh[next]); next++ }); avg != 1 {
		t.Errorf("a fresh Conn's first batch allocates %v objects, want 1 (its frame buffer)", avg)
	}
	if st := fresh[0].Stats(); st.FramesSent != 1 || st.RecordsSent != batch {
		t.Errorf("fresh Conn stats = %+v, want one frame of %d records", st, batch)
	}
}
