package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsensor/internal/detect"
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

// feedFrames delivers a small deterministic workload.
func feedFrames(t *testing.T, s *Server, ranks, perRank int) {
	t.Helper()
	for rank := 0; rank < ranks; rank++ {
		var recs []detect.SliceRecord
		for i := 0; i < perRank; i++ {
			recs = append(recs, snapRecord(rank, i))
		}
		f := AppendFrame(nil, FrameHeader{Rank: rank, Seq: 1, CumRecords: uint64(perRank)}, recs)
		if err := s.Receive(f); err != nil {
			t.Fatalf("receive rank %d: %v", rank, err)
		}
	}
}

// The snapshot cache's contract: generations are monotone, every state
// change invalidates, and an unchanged server serves the identical snapshot
// pointer (a cache hit) forever.
func TestSnapshotInvalidation(t *testing.T) {
	s := NewSharded(4)
	feedFrames(t, s, 3, 4)

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
	feedFrames(t, s, 4, 8)
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
	// A commit group that never fills means nothing reaches the device: the
	// crash loses the whole staged tail and recovery comes back with an empty
	// (shorter) log.
	s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{}), FlushEvery: 1 << 20, FlushBytes: 1 << 30})
	h := wireReadReport(s)
	feedFrames(t, s, 3, 6)
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
	var body struct {
		Cursor    int             `json:"cursor"`
		Base      int             `json:"base"`
		Truncated bool            `json:"truncated"`
		Records   json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Truncated || body.Cursor != 0 || body.Base != 0 || string(body.Records) != "[]" {
		t.Fatalf("truncation response = %+v (records %s)", body, body.Records)
	}
}

func TestWaitSnapshot(t *testing.T) {
	s := NewSharded(2)
	feedFrames(t, s, 2, 2)
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
	feedFrames(t, s, 2, 2)
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

// TestReadSnapshotConformance is the read-path acceptance gate: for ANY
// randomized scenario — shard count, fault plan, dead ranks, crash/recover
// mid-stream, racing pollers hammering the HTTP surface during ingest —
// every cached response must equal a fresh uncached recompute at the same
// generation, byte for byte, and generations observed by any poller must be
// monotone with no torn reads. Extends PR 4's TestRecordsSnapshotUnderIngest
// to the whole cached read surface.
func TestReadSnapshotConformance(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBEEF + int64(trial)*9973))
			ranks := 3 + rng.Intn(10)
			shards := 1 << rng.Intn(5)
			sensors := 1 + rng.Intn(3)
			slices := 2 + rng.Intn(4)
			// The render threshold is DefaultSnapshotThreshold; the draw
			// that once picked it stays, so every later seeded draw is the
			// one it always was.
			rng.Intn(3)
			threshold := DefaultSnapshotThreshold
			durable := trial%3 == 0
			crash := durable && trial%6 == 0
			liveness := trial%4 == 0
			plan := conformancePlan{
				drop:    []float64{0, 0.1}[rng.Intn(2)],
				dup:     []float64{0, 0.15}[rng.Intn(2)],
				corrupt: []float64{0, 0.1}[rng.Intn(2)],
				shuffle: rng.Intn(4) != 0,
			}

			frames := buildConformanceFrames(rng, ranks, sensors, slices)
			schedule := applyPlan(rng, frames, plan)
			if liveness {
				// Every rank heartbeats at the frontier except one, whose
				// stale stamp puts it past the dead threshold — the degraded
				// path the cached report must agree with recompute on.
				deadRank := rng.Intn(ranks)
				const lease = 1_000_000
				for rank := 0; rank < ranks; rank++ {
					stamp := int64(100 * lease)
					if rank == deadRank {
						stamp = 10 * lease
					}
					schedule = append(schedule, AppendHeartbeat(nil, rank, stamp, lease))
				}
				rng.Shuffle(len(schedule), func(i, j int) {
					schedule[i], schedule[j] = schedule[j], schedule[i]
				})
			}

			s := NewSharded(shards)
			if durable {
				s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{})})
			}
			h := wireReadReport(s)

			// Racing pollers: each walks /status, /outliers, /records and
			// /metrics (whose server families are read from its state at
			// scrape time) during ingest, asserting monotone generations and
			// gap-free cursors (resetting on an explicit truncation, never
			// silently).
			stop := make(chan struct{})
			var torn atomic.Int32
			var pwg sync.WaitGroup
			pollers := 1 + rng.Intn(3)
			for p := 0; p < pollers; p++ {
				pwg.Add(1)
				go func() {
					defer pwg.Done()
					var lastGen uint64
					cursor, seen := 0, 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						rr := httpGet(t, h, "/status", "")
						var st struct {
							Gen uint64 `json:"gen"`
						}
						if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || st.Gen < lastGen {
							torn.Add(1)
							return
						}
						lastGen = st.Gen
						rr = httpGet(t, h, fmt.Sprintf("/records?cursor=%d", cursor), "")
						var rb struct {
							Cursor    int               `json:"cursor"`
							Base      int               `json:"base"`
							Truncated bool              `json:"truncated"`
							Records   []json.RawMessage `json:"records"`
						}
						if err := json.Unmarshal(rr.Body.Bytes(), &rb); err != nil {
							torn.Add(1)
							return
						}
						if rb.Truncated {
							cursor, seen = rb.Base, rb.Base
							continue
						}
						// No skip, no dup: the chunk length must bridge
						// exactly from our cursor to the served next cursor.
						if rb.Cursor < cursor || len(rb.Records) != rb.Cursor-cursor {
							torn.Add(1)
							return
						}
						cursor = rb.Cursor
						seen += len(rb.Records)
						httpGet(t, h, "/outliers", "")
						if rr := httpGet(t, h, "/metrics", ""); rr.Code != http.StatusOK {
							torn.Add(1)
							return
						}
					}
				}()
			}

			var wg sync.WaitGroup
			workers := 1 + rng.Intn(3)
			chunk := (len(schedule) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(schedule) {
					hi = len(schedule)
				}
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(frames [][]byte) {
					defer wg.Done()
					for i, f := range frames {
						_ = s.Receive(f) // corrupt frames error; down drops are re-sent below
						if i == len(frames)/2 {
							_ = s.Snapshot()
						}
					}
				}(schedule[lo:hi])
			}
			if crash {
				wg.Add(1)
				go func() {
					defer wg.Done()
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					if err := s.Crash(); err != nil {
						t.Error(err)
						return
					}
					_ = s.Snapshot() // exercise the last-known-good path while down
					if _, err := s.Recover(); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if crash {
				// Frames rejected while down (and any unsynced tail) are
				// re-sent, exactly as real clients would; dedup absorbs the
				// rest, converging on the full schedule applied once.
				for _, f := range schedule {
					_ = s.Receive(f)
				}
			}
			close(stop)
			pwg.Wait()
			if n := torn.Load(); n != 0 {
				t.Fatalf("%d poller(s) observed a torn read or non-monotone generation", n)
			}

			// Quiescent verification: the cached snapshot against fresh
			// uncached recomputes of every surface it serves.
			sn := s.Snapshot()
			outliersEqual(t, trial, sn.Report.Outliers, batchOutliers(s.Records(), threshold))
			outliersEqual(t, trial, sn.Report.Outliers, s.InterProcessOutliers(threshold))
			if !reflect.DeepEqual(sn.Records(), s.Records()) {
				t.Fatalf("trial %d: snapshot records differ from server log", trial)
			}
			if got, want := sn.Progress, s.Progress(); got != want {
				t.Fatalf("trial %d: progress %+v != %+v", trial, got, want)
			}
			if got, want := sn.PerRank, s.PerRankProgress(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: per-rank progress differs", trial)
			}
			if got, want := sn.Coverage, s.Coverage(); got != want {
				t.Fatalf("trial %d: coverage %+v != %+v", trial, got, want)
			}
			if got, want := sn.PerShard, s.PerShardCoverage(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: per-shard coverage differs", trial)
			}
			if got, want := sn.Epochs, s.EpochStats(); got != want {
				t.Fatalf("trial %d: epochs %+v != %+v", trial, got, want)
			}
			if got, want := sn.Liveness, s.LivenessSummary(); got != want {
				t.Fatalf("trial %d: liveness %+v != %+v", trial, got, want)
			}
			if !reflect.DeepEqual(sn.Report, s.InterProcessReport(threshold)) {
				t.Fatalf("trial %d: outlier report differs from fresh recompute", trial)
			}

			// Byte identity: two GETs at one generation are identical
			// (modulo the uptime stamp on /status), a conditional GET
			// revalidates with 304, and the served body matches a render
			// built directly from the server-side snapshot.
			st1 := httpGet(t, h, "/status", "")
			st2 := httpGet(t, h, "/status", "")
			if normalizeStatus(t, st1.Body.Bytes()) != normalizeStatus(t, st2.Body.Bytes()) {
				t.Fatalf("trial %d: two /status GETs at one generation differ", trial)
			}
			etag := st1.Header().Get("ETag")
			if etag != fmt.Sprintf("%q", fmt.Sprint(sn.Gen)) {
				t.Fatalf("trial %d: ETag %s, want gen %d", trial, etag, sn.Gen)
			}
			if rr := httpGet(t, h, "/status", etag); rr.Code != http.StatusNotModified || rr.Body.Len() != 0 {
				t.Fatalf("trial %d: revalidation got code %d, body %d bytes", trial, rr.Code, rr.Body.Len())
			}
			o1 := httpGet(t, h, "/outliers", "")
			o2 := httpGet(t, h, "/outliers", "")
			if o1.Body.String() != o2.Body.String() {
				t.Fatalf("trial %d: two /outliers GETs at one generation differ", trial)
			}
			want, err := json.Marshal(sn.OutliersView())
			if err != nil {
				t.Fatal(err)
			}
			if o1.Body.String() != string(want)+"\n" {
				t.Fatalf("trial %d: /outliers body differs from fresh render\n got: %s\nwant: %s", trial, o1.Body.String(), want)
			}
			r1 := httpGet(t, h, "/records", "")
			r2 := httpGet(t, h, "/records", "")
			if r1.Body.String() != r2.Body.String() {
				t.Fatalf("trial %d: two /records GETs at one generation differ", trial)
			}
			var rb struct {
				Cursor int `json:"cursor"`
				Base   int `json:"base"`
			}
			if err := json.Unmarshal(r1.Body.Bytes(), &rb); err != nil {
				t.Fatal(err)
			}
			if rb.Cursor != sn.Total() || rb.Base != 0 {
				t.Fatalf("trial %d: /records cursor=%d base=%d, want total=%d base=0", trial, rb.Cursor, rb.Base, sn.Total())
			}
		})
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
