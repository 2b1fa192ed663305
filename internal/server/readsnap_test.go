package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/obs"
	"vsensor/internal/storage"
)

// wireReadReport serves a server's versioned snapshot over an obs HTTP
// handler through the same installer the facade uses, minus the facade's
// static run fields. The payloads are fully deterministic (no clocks), so
// two responses at the same generation must be byte-identical.
func wireReadReport(s *Server) http.Handler {
	o := obs.New()
	s.SetObs(o)
	s.ServeReport(o, nil)
	return o.Handler()
}

func httpGet(t *testing.T, h http.Handler, path, inm string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// The snapshot cache's contract: generations are monotone, every state
// change invalidates, and an unchanged server serves the identical snapshot
// pointer (a cache hit) forever.
func TestSnapshotInvalidation(t *testing.T) {
	s := NewSharded(4)
	deliverAll(s, feed.Trial{Seed: 1, Shape: feed.Shape{Ranks: 3, Sensors: 2, Slices: 4}})

	sn1 := s.Snapshot()
	if sn1.Gen == 0 {
		t.Fatalf("first snapshot gen = 0")
	}
	if sn2 := s.Snapshot(); sn2 != sn1 {
		t.Fatalf("unchanged server rebuilt the snapshot (gen %d -> %d)", sn1.Gen, sn2.Gen)
	}

	// A new frame invalidates.
	f := AppendFrame(nil, FrameHeader{Rank: 9, Seq: 1, CumRecords: 1}, []detect.SliceRecord{snapRecord(9, 0)})
	if err := s.Receive(f); err != nil {
		t.Fatal(err)
	}
	sn3 := s.Snapshot()
	if sn3.Gen <= sn1.Gen {
		t.Fatalf("gen did not advance after ingest: %d -> %d", sn1.Gen, sn3.Gen)
	}
	if sn3.Total() != sn1.Total()+1 {
		t.Fatalf("total = %d, want %d", sn3.Total(), sn1.Total()+1)
	}

	// A duplicate frame still invalidates (dup counters are served state).
	if err := s.Receive(f); err != nil {
		t.Fatal(err)
	}
	sn4 := s.Snapshot()
	if sn4.Gen <= sn3.Gen {
		t.Fatalf("gen did not advance after duplicate: %d -> %d", sn3.Gen, sn4.Gen)
	}

	// A heartbeat invalidates (liveness is served state).
	if err := s.Receive(AppendHeartbeat(nil, 1, 5_000_000, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	sn5 := s.Snapshot()
	if sn5.Gen <= sn4.Gen {
		t.Fatalf("gen did not advance after heartbeat: %d -> %d", sn4.Gen, sn5.Gen)
	}

	st := s.SnapshotStats()
	if st.Gen != sn5.Gen || st.Builds < 4 || st.Reads != st.Hits+st.Builds {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestSnapshotRecordsWindow(t *testing.T) {
	s := NewSharded(2)
	deliverAll(s, feed.Trial{Seed: 1, Shape: feed.Shape{Ranks: 4, Sensors: 2, Slices: 8}})
	sn := s.Snapshot()
	all := s.Records()
	if sn.Total() != len(all) {
		t.Fatalf("total = %d, want %d", sn.Total(), len(all))
	}
	if got := sn.Records(); !reflect.DeepEqual(got, all) {
		t.Fatalf("snapshot records differ from server log")
	}
	for cursor := 0; cursor <= sn.Total(); cursor++ {
		recs, next, base, ok := sn.RecordsWindow(cursor)
		if !ok || base != 0 || next != sn.Total() {
			t.Fatalf("cursor %d: ok=%v next=%d base=%d", cursor, ok, next, base)
		}
		if !reflect.DeepEqual(recs, all[cursor:]) {
			t.Fatalf("cursor %d: window differs from log suffix", cursor)
		}
	}
	if recs, _, _, ok := sn.RecordsWindow(sn.Total() + 1); ok || len(recs) != 0 {
		t.Fatalf("cursor past end accepted")
	}
	if _, _, _, ok := sn.RecordsWindow(-1); ok {
		t.Fatalf("negative cursor accepted")
	}
}

// The pinned /records regression: before this PR an out-of-range cursor was
// silently clamped, so a client resuming after a crash recovery that lost
// an unsynced WAL tail could not tell its cursor now pointed past the end
// of a shorter log. The snapshot window must reject it and the HTTP layer
// must answer with truncated=true plus the base cursor to restart from.
func TestRecordsWindowAfterRecoveryTruncation(t *testing.T) {
	s := NewSharded(4)
	// A commit group that never fills (the trial stages far fewer than
	// flushBytes) means nothing reaches the device: the crash loses the whole
	// staged tail and recovery comes back with an empty (shorter) log.
	s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{}), FlushEvery: 1 << 20})
	h := wireReadReport(s)
	deliverAll(s, feed.Trial{Seed: 1, Shape: feed.Shape{Ranks: 3, Sensors: 2, Slices: 6}})
	pre := s.Snapshot()
	if pre.Total() == 0 {
		t.Fatalf("no records before crash")
	}
	cursor := pre.Total() // a fully caught-up client

	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	post := s.Snapshot()
	if post.Gen <= pre.Gen {
		t.Fatalf("gen not monotone across crash/recover: %d -> %d", pre.Gen, post.Gen)
	}
	if post.Total() >= cursor {
		t.Fatalf("recovery kept %d records, expected fewer than %d (unsynced tail should be lost)", post.Total(), cursor)
	}
	if _, _, _, ok := post.RecordsWindow(cursor); ok {
		t.Fatalf("stale cursor %d accepted against total %d", cursor, post.Total())
	}

	rr := httpGet(t, h, fmt.Sprintf("/records?cursor=%d", cursor), "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/records stale cursor: code %d", rr.Code)
	}
	var body recordsPage
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Truncated || body.Cursor != 0 || body.Base != 0 || body.Records == nil || len(body.Records) != 0 {
		t.Fatalf("truncation response = %+v, want records []", body)
	}
}

func TestWaitSnapshot(t *testing.T) {
	s := NewSharded(2)
	deliverAll(s, feed.Trial{Seed: 1, Shape: feed.Shape{Ranks: 2, Sensors: 2, Slices: 2}})
	sn := s.Snapshot()

	// Timeout path: nothing changes, WaitSnapshot returns the same gen.
	start := time.Now()
	got := s.WaitSnapshot(sn.Gen, 30*time.Millisecond)
	if got.Gen != sn.Gen {
		t.Fatalf("timeout wait returned gen %d, want %d", got.Gen, sn.Gen)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatalf("wait returned before timeout")
	}

	// Wakeup path: an ingest while parked produces the next generation.
	done := make(chan *ReportSnapshot, 1)
	go func() { done <- s.WaitSnapshot(sn.Gen, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	f := AppendFrame(nil, FrameHeader{Rank: 7, Seq: 1, CumRecords: 1}, []detect.SliceRecord{snapRecord(7, 0)})
	if err := s.Receive(f); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got.Gen <= sn.Gen {
			t.Fatalf("woken wait returned gen %d, want > %d", got.Gen, sn.Gen)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("WaitSnapshot never woke")
	}
}

// A waiter whose Snapshot was served a stale render — another reader holds
// the rebuild lock through its throttle sleep — parks behind that rebuild
// instead of spinning back into Snapshot, where every pass counts as a
// cache hit.
func TestWaitSnapshotParksBehindRebuild(t *testing.T) {
	s := NewSharded(2)
	deliverAll(s, feed.Trial{Seed: 1, Shape: feed.Shape{Ranks: 2, Sensors: 2, Slices: 2}})
	sn := s.Snapshot()

	s.snap.mu.Lock() // the other reader's rebuild, mid-throttle
	f := AppendFrame(nil, FrameHeader{Rank: 7, Seq: 1, CumRecords: 1}, []detect.SliceRecord{snapRecord(7, 0)})
	if err := s.Receive(f); err != nil {
		s.snap.mu.Unlock()
		t.Fatal(err)
	}
	hits := s.SnapshotStats().Hits
	done := make(chan *ReportSnapshot, 1)
	go func() { done <- s.WaitSnapshot(sn.Gen, 5*time.Second) }()
	for s.SnapshotStats().Hits == hits { // the waiter was served the stale render
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond) // the window a spinning waiter fills with hits
	during := s.SnapshotStats().Hits - hits
	s.snap.mu.Unlock()

	got := <-done
	if during > 4 {
		t.Errorf("waiter took %d cache hits while the rebuild lock was held, want a handful: it spun instead of parking", during)
	}
	if got.Gen <= sn.Gen {
		t.Fatalf("wait returned gen %d, want > %d", got.Gen, sn.Gen)
	}
}

// recordsPage is a /records response body.
type recordsPage struct {
	Cursor    int               `json:"cursor"`
	Base      int               `json:"base"`
	Truncated bool              `json:"truncated"`
	Records   []json.RawMessage `json:"records"`
}

// normalizeStatus strips the per-request uptime stamp (the one field
// outside the generation contract) and re-marshals; two /status bodies at
// one generation must normalize to identical bytes.
func normalizeStatus(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad /status JSON: %v", err)
	}
	delete(m, "uptime_seconds")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

var readSnapshotSpec = feed.Spec{
	Seed: 0xBEEF, Step: 9973, Trials: 200,
	Ranks: [2]int{3, 12}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 5},
	Events: map[feed.Kind][]float64{
		feed.Drop: {0, 0.1}, feed.Dup: {0, 0.15}, feed.Corrupt: {0, 0.1}, feed.Shuffle: {0.75},
		feed.Heartbeat: {0, 0, 0.3, feed.LeaseRound}, feed.Crash: {0, 0, 0, 0, 0, 1},
	},
}

// TestReadSnapshotConformance is the read-path acceptance gate: for ANY
// trial — shard count, faults, leased ranks going dead, a crash and
// recovery mid-stream, racing pollers hammering the HTTP surface during
// ingest — every cached response must equal a fresh uncached recompute at
// the same generation, byte for byte, and generations observed by any
// poller must be monotone with no torn reads. Extends
// TestRecordsSnapshotUnderIngest to the whole cached read surface.
func TestReadSnapshotConformance(t *testing.T) {
	var degraded int
	if feed.Run(t, readSnapshotSpec, readSnapshot(&degraded)) != readSnapshotSpec.Trials {
		return
	}
	t.Logf("%d trials served a degraded report", degraded)
	if degraded < 32 {
		t.Errorf("only %d of %d trials served a degraded report (a dead rank), want >= 32", degraded, readSnapshotSpec.Trials)
	}
}

// readSnapshot is the property; it counts the trials whose final report
// was degraded by a dead rank.
func readSnapshot(degraded *int) feed.Property {
	return func(t *testing.T, tr feed.Trial) error {
		r := tr.Rand("server")
		s := NewSharded(1 << r.IntN(5))
		threshold := DefaultSnapshotThreshold
		steps := tr.Schedule(wire)
		crash := slices.ContainsFunc(steps, func(s feed.Step) bool { return s.Crash })
		if crash || r.IntN(5) == 0 {
			s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{})})
		}
		h := wireReadReport(s)

		// Racing pollers: each walks /status, /outliers, /records and
		// /metrics (whose server families are read from its state at scrape
		// time) during ingest, asserting monotone generations and gap-free
		// cursors (resetting on an explicit truncation, never silently).
		var torn atomic.Int32
		polls := make([]func(), 1+r.IntN(3))
		for p := range polls {
			var lastGen uint64
			cursor := 0
			polls[p] = func() {
				var st struct {
					Gen uint64 `json:"gen"`
				}
				if err := json.Unmarshal(httpGet(t, h, "/status", "").Body.Bytes(), &st); err != nil || st.Gen < lastGen {
					torn.Add(1)
				}
				lastGen = st.Gen
				var rb recordsPage
				if err := json.Unmarshal(httpGet(t, h, fmt.Sprintf("/records?cursor=%d", cursor), "").Body.Bytes(), &rb); err != nil {
					torn.Add(1)
					return
				}
				if rb.Truncated {
					cursor = rb.Base
					return
				}
				// No skip, no dup: the chunk length must bridge exactly
				// from our cursor to the served next cursor.
				if rb.Cursor < cursor || len(rb.Records) != rb.Cursor-cursor {
					torn.Add(1)
					return
				}
				cursor = rb.Cursor
				httpGet(t, h, "/outliers", "")
				if rr := httpGet(t, h, "/metrics", ""); rr.Code != http.StatusOK {
					torn.Add(1)
				}
			}
		}
		stop := feed.Race(polls...)
		defer stop()

		// Senders split the schedule and each builds a snapshot at its
		// part's midpoint; the crash step crashes the server, reads the
		// last-known-good snapshot while it is down, and recovers it while
		// the other senders go on: a trial that crashes has two senders at
		// least.
		parts := 1 + r.IntN(3)
		if crash {
			parts = max(parts, 2)
		}
		err := driveParts(parts, steps, func(_ int, f []byte) error {
			_ = s.Receive(f) // corrupt copies error; frames refused while down are re-sent below
			return nil
		}, func() { s.Snapshot() }, func(delivered int) (int, error) {
			if err := s.Crash(); err != nil {
				return 0, err
			}
			_ = s.Snapshot()
			_, err := s.Recover()
			return delivered, err
		})
		if err != nil {
			return err
		}
		if crash {
			// Frames refused while down (and any unsynced tail) are re-sent,
			// exactly as real clients would; dedup absorbs the rest,
			// converging on the full schedule applied once.
			deliverAll(s, tr)
		}
		stop()
		if n := torn.Load(); n != 0 {
			return fmt.Errorf("%d poll(s) observed a torn read or non-monotone generation", n)
		}

		// Quiescent verification: the cached snapshot against fresh
		// uncached recomputes of every surface it serves.
		sn := s.Snapshot()
		if sn.Report.Degraded {
			*degraded++
		}
		if err := errors.Join(
			tr.ExactlyOnce(s.Records()),
			feed.Same("outlier", sn.Report.Outliers, batchOutliers(s.Records(), threshold)),
			feed.Same("outlier against a fresh query", sn.Report.Outliers, s.InterProcessOutliers(threshold)),
			feed.Same("snapshot record", sn.Records(), s.Records()),
			feed.Equal("progress", sn.Progress, s.Progress()),
			feed.Same("per-rank progress", sn.PerRank, s.PerRankProgress()),
			feed.Equal("coverage", sn.Coverage, s.Coverage()),
			feed.Same("per-shard coverage", sn.PerShard, s.PerShardCoverage()),
			feed.Equal("epochs", sn.Epochs, s.EpochStats()),
			feed.Equal("liveness", sn.Liveness, s.LivenessSummary()),
		); err != nil {
			return err
		}
		if !reflect.DeepEqual(sn.Report, s.InterProcessReport(threshold)) {
			return errors.New("outlier report differs from fresh recompute")
		}

		// Byte identity: two GETs at one generation are identical (modulo
		// the uptime stamp on /status), a conditional GET revalidates with
		// 304, and the served body matches a render built directly from the
		// server-side snapshot.
		st1, st2 := httpGet(t, h, "/status", ""), httpGet(t, h, "/status", "")
		if normalizeStatus(t, st1.Body.Bytes()) != normalizeStatus(t, st2.Body.Bytes()) {
			return errors.New("two /status GETs at one generation differ")
		}
		etag := st1.Header().Get("ETag")
		if etag != fmt.Sprintf("%q", fmt.Sprint(sn.Gen)) {
			return fmt.Errorf("ETag %s, want gen %d", etag, sn.Gen)
		}
		if rr := httpGet(t, h, "/status", etag); rr.Code != http.StatusNotModified || rr.Body.Len() != 0 {
			return fmt.Errorf("revalidation got code %d, body %d bytes", rr.Code, rr.Body.Len())
		}
		o1, o2 := httpGet(t, h, "/outliers", ""), httpGet(t, h, "/outliers", "")
		want, err := json.Marshal(sn.OutliersView())
		if err != nil {
			return err
		}
		if o1.Body.String() != o2.Body.String() || o1.Body.String() != string(want)+"\n" {
			return fmt.Errorf("/outliers bodies differ from each other or from a fresh render\n got: %s\nwant: %s", o1.Body.String(), want)
		}
		r1, r2 := httpGet(t, h, "/records", ""), httpGet(t, h, "/records", "")
		if r1.Body.String() != r2.Body.String() {
			return errors.New("two /records GETs at one generation differ")
		}
		var rb recordsPage
		if err := json.Unmarshal(r1.Body.Bytes(), &rb); err != nil {
			return err
		}
		if rb.Cursor != sn.Total() || rb.Base != 0 {
			return fmt.Errorf("/records cursor=%d base=%d, want total=%d base=0", rb.Cursor, rb.Base, sn.Total())
		}
		return nil
	}
}

// TestSnapshotIsOneInstant builds snapshots and scrapes /metrics while
// senders race them, half of them heartbeating with a lease and one leased
// rank going silent early so it dies. Every number one generation (or one
// scrape) publishes must describe the same state of the shards: the totals,
// the per-rank and per-shard sums, the liveness counts and the watermark
// agree with each other.
func TestSnapshotIsOneInstant(t *testing.T) {
	const (
		senders  = 8
		frames   = 3000
		perFrame = 4
		step     = int64(1000) // virtual ns between a sender's frames
		lease    = 64 * step
		silent   = 0   // a leased rank that stops early and dies
		silentAt = 300 // frames rank silent sends
	)
	s := NewSharded(8)
	o := obs.New()
	s.SetObs(o)
	h := o.Handler()

	var wg sync.WaitGroup
	for rank := 0; rank < senders; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n := frames
			if rank == silent {
				n = silentAt
			}
			recs := make([]detect.SliceRecord, perFrame)
			var enc []byte
			for seq := 1; seq <= n; seq++ {
				now := int64(seq) * step
				for i := range recs {
					recs[i] = detect.SliceRecord{Sensor: i, Rank: rank, SliceNs: now, Count: 1, AvgNs: 100}
				}
				enc = AppendFrame(enc[:0], FrameHeader{Rank: rank, Seq: uint64(seq), CumRecords: uint64(seq * perFrame)}, recs)
				if err := s.Receive(enc); err != nil {
					t.Error(err)
					return
				}
				if rank%2 == 0 && seq%16 == 1 {
					if err := s.Receive(AppendHeartbeat(nil, rank, now, lease)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	scrapes := make(chan error, 1)
	go func() {
		var err error
		for n := 0; err == nil; n++ {
			select {
			case <-done:
				if n > 0 {
					scrapes <- nil
					return
				}
			default:
			}
			sums := map[string]int64{}
			for _, line := range strings.Split(httpGet(t, h, "/metrics", "").Body.String(), "\n") {
				name, val, ok := strings.Cut(line, " ")
				if !ok || strings.HasPrefix(line, "#") {
					continue
				}
				name, _, _ = strings.Cut(name, "{")
				v, _ := strconv.ParseInt(val, 10, 64)
				sums[name] += v
			}
			if got, want := sums["server_records_ingested"], sums["server_shard_records"]; got != want {
				err = fmt.Errorf("scrape %d: server_records_ingested %d, Σ server_shard_records %d", n, got, want)
			}
		}
		scrapes <- err
	}()

	check := func(sn *ReportSnapshot) {
		t.Helper()
		var perRank, perShard int64
		for _, rp := range sn.PerRank {
			perRank += int64(rp.Records)
		}
		for _, sc := range sn.PerShard {
			perShard += sc.Records
		}
		if rec := int64(sn.Progress.Records); rec != sn.Coverage.IngestedRecords || rec != perRank || rec != perShard {
			t.Fatalf("records: progress %d, coverage %d, Σ per-rank %d, Σ per-shard %d",
				rec, sn.Coverage.IngestedRecords, perRank, perShard)
		}
		l := sn.Liveness
		if l.Alive+l.Suspect+l.Dead != len(sn.Report.Liveness) {
			t.Fatalf("liveness %+v counts %d ranks, the list %d", l, l.Alive+l.Suspect+l.Dead, len(sn.Report.Liveness))
		}
		dead := map[int]bool{}
		for _, rl := range sn.Report.Liveness {
			dead[rl.Rank] = rl.State == Dead
		}
		var wm int64
		have := false
		for _, rp := range sn.PerRank {
			if !dead[rp.Rank] && (!have || rp.LatestSliceNs < wm) {
				wm, have = rp.LatestSliceNs, true
			}
		}
		if have != sn.HaveWatermark || wm != sn.WatermarkNs {
			t.Fatalf("watermark %d (have %v), want %d (have %v): the minimum over the per-rank list's live ranks",
				sn.WatermarkNs, sn.HaveWatermark, wm, have)
		}
	}
	builds := 0
	for {
		select {
		case <-done:
		default:
			check(s.buildSnapshot())
			builds++
			continue
		}
		break
	}
	sn := s.buildSnapshot()
	check(sn)
	if err := <-scrapes; err != nil {
		t.Fatal(err)
	}
	if sn.Liveness.Dead != 1 || sn.Progress.Records != (senders-1)*frames*perFrame+silentAt*perFrame {
		t.Fatalf("final generation: liveness %+v, %d records", sn.Liveness, sn.Progress.Records)
	}
	t.Logf("%d generations checked while ingest ran", builds)
}
