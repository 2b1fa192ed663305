package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/obs"
)

// sameOutliersBits reports whether a and b are equal field for field, Perf
// compared by bit pattern.
func sameOutliersBits(a, b []Outlier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Sensor != y.Sensor || x.SliceNs != y.SliceNs || x.Rank != y.Rank ||
			math.Float64bits(x.Perf) != math.Float64bits(y.Perf) {
			return false
		}
	}
	return true
}

// partitionRun is what one server made of a trial's schedule: every poll's
// outliers and epoch counts, and the reopens.
type partitionRun struct {
	polls   [][]Outlier
	stats   []EpochStats
	reopens int64
}

// replayPartitioned drives the trial's schedule into a fresh server with the
// given shard count from one goroutine, then polls once more.
func replayPartitioned(tr feed.Trial, steps []feed.Step, shards int, threshold float64) (partitionRun, error) {
	s := NewSharded(shards)
	o := obs.New()
	s.SetObs(o)
	var run partitionRun
	poll := func() {
		run.polls = append(run.polls, s.InterProcessOutliers(threshold))
		run.stats = append(run.stats, s.EpochStats())
	}
	_ = feed.Drive(steps, func(_ int, f []byte) error {
		_ = s.Receive(f) // corrupt copies are rejected; that is their job
		return nil
	}, poll, nil)
	poll()
	run.reopens = o.Counter("server_epoch_reopens_total").Value()
	if got, want := run.polls[len(run.polls)-1], batchOutliers(s.Records(), threshold); !sameOutliersBits(got, want) {
		return run, fmt.Errorf("shards=%d: final query differs from the batch recompute", shards)
	}
	return run, tr.ExactlyOnce(s.Records())
}

var partitionSpec = feed.Spec{
	Seed: 0x9A27, Step: 1, Trials: 6,
	Ranks: [2]int{80, 80}, Sensors: [2]int{3, 3}, Slices: [2]int{5, 5},
	Events: map[feed.Kind][]float64{
		feed.Dup: {0.15}, feed.Corrupt: {0.05}, feed.Shuffle: {1}, feed.HoldBack: {0.1}, feed.Poll: {1.0 / 37},
	},
}

// TestVerdictIndependentOfPartitioning replays each trial's schedule —
// reordered, duplicated and corrupted frames, polls throughout, and a
// held-back tenth of the frames delivered after the poll that closes the
// epochs they belong to — through servers with 1, 16 and 64 epoch
// partitions. Every poll's outliers (bit for bit), every poll's epoch
// counts and the reopen counter must agree: the verdict, and the
// one-reopen-per-key accounting, cannot depend on how epochs are
// partitioned. Every trial must reopen an epoch, or the late-frame path
// went unexercised.
func TestVerdictIndependentOfPartitioning(t *testing.T) {
	reopened := 0
	if feed.Run(t, partitionSpec, partitioning(&reopened)) == partitionSpec.Trials && reopened != partitionSpec.Trials {
		t.Errorf("only %d of %d trials reopened an epoch: the late-frame path went unexercised", reopened, partitionSpec.Trials)
	}
}

// partitioning is the property; it counts the trials that reopened an epoch.
func partitioning(reopened *int) feed.Property {
	return func(t *testing.T, tr feed.Trial) error {
		threshold := []float64{0.7, 0.8, 0.9}[tr.Rand("server").IntN(3)]
		steps := tr.Schedule(wire)
		ref, err := replayPartitioned(tr, steps, 1, threshold)
		if err != nil {
			return err
		}
		for _, shards := range []int{16, 64} {
			got, err := replayPartitioned(tr, steps, shards, threshold)
			if err != nil {
				return err
			}
			for i := range ref.polls {
				if !sameOutliersBits(got.polls[i], ref.polls[i]) {
					return fmt.Errorf("shards=%d poll %d: outliers differ from shards=1\n got: %+v\nwant: %+v", shards, i, got.polls[i], ref.polls[i])
				}
			}
			if err := errors.Join(feed.Same(fmt.Sprintf("shards=%d poll's EpochStats", shards), got.stats, ref.stats),
				feed.Equal(fmt.Sprintf("shards=%d reopen count", shards), got.reopens, ref.reopens)); err != nil {
				return err
			}
		}
		if ref.reopens > 0 {
			*reopened++
		}
		return nil
	}
}

// workersSpec draws the one trial TestQueryIndependentOfWorkers replays:
// enough records that a query over all of them splits two ways, in a
// shuffled order with a few frames held back past a poll.
var workersSpec = feed.Spec{
	Seed: 0x40, Step: 1, Trials: 1,
	Ranks: [2]int{400, 400}, Sensors: [2]int{8, 8}, Slices: [2]int{24, 24},
	Events: map[feed.Kind][]float64{feed.Shuffle: {1}, feed.HoldBack: {0.002}, feed.Poll: {1.0 / 6000}},
}

// pollThresholds are the thresholds of even and odd polls.
var pollThresholds = [2]float64{0.8, 0.9}

// replayOnWorkers drives steps into a fresh server from one goroutine under
// GOMAXPROCS procs, polling at thresholds that alternate from poll to poll,
// so each poll also recomputes the epochs the poll before it closed, then
// polls once more at each threshold.
func replayOnWorkers(steps []feed.Step, procs int) (partitionRun, *Server) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s := NewSharded(DefaultShards)
	o := obs.New()
	s.SetObs(o)
	var run partitionRun
	poll := func() {
		run.polls = append(run.polls, s.InterProcessOutliers(pollThresholds[len(run.polls)%2]))
		run.stats = append(run.stats, s.EpochStats())
	}
	_ = feed.Drive(steps, func(_ int, f []byte) error { return s.Receive(f) }, poll, nil)
	poll()
	poll()
	run.reopens = o.Counter("server_epoch_reopens_total").Value()
	return run, s
}

// TestQueryIndependentOfWorkers replays one trial whose late frames reopen
// closed epochs under GOMAXPROCS 1 and 4. A query splits its candidates
// over up to GOMAXPROCS workers, so the two runs evaluate the same epochs
// on one goroutine and, once enough of them are candidates, on two. Every
// poll's outliers (bit for bit), every poll's epoch counts and the reopen
// count must be identical, and the final queries must equal the batch
// recompute.
func TestQueryIndependentOfWorkers(t *testing.T) {
	tr := workersSpec.Trial(0)
	steps := tr.Schedule(wire)
	one, s := replayOnWorkers(steps, 1)
	if n := len(s.Records()); n < 2*evalMinEntries {
		t.Fatalf("the trial holds %d records: a query over all of them does not split (%d a worker)", n, evalMinEntries)
	}
	for i := len(one.polls) - 2; i < len(one.polls); i++ {
		if threshold := pollThresholds[i%2]; !sameOutliersBits(one.polls[i], batchOutliers(s.Records(), threshold)) {
			t.Fatalf("final query at %v differs from the batch recompute", threshold)
		}
	}
	if one.reopens == 0 || len(one.polls) < 4 {
		t.Fatalf("%d polls reopened %d epochs: the late-frame path went unexercised", len(one.polls), one.reopens)
	}
	four, _ := replayOnWorkers(steps, 4)
	for i := range one.polls {
		if !sameOutliersBits(four.polls[i], one.polls[i]) {
			t.Fatalf("poll %d: outliers under GOMAXPROCS 4 differ from GOMAXPROCS 1", i)
		}
	}
	if err := errors.Join(feed.Same("poll's EpochStats", four.stats, one.stats), feed.Equal("reopen count", four.reopens, one.reopens)); err != nil {
		t.Fatal(err)
	}
}

// TestEpochStatsNeverNegative polls the epoch counts — directly and through
// the shared report snapshot — while concurrent senders keep creating
// epochs and queries keep closing them. Every poll must satisfy
// 0 <= Open <= Open+Closed: the two numbers are one consistent reading.
func TestEpochStatsNeverNegative(t *testing.T) {
	const senders, frames = 4, 400
	s := NewSharded(8)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs := make([]detect.SliceRecord, 8)
			for seq := 1; seq <= frames; seq++ {
				for i := range recs {
					recs[i] = detect.SliceRecord{
						Sensor: i, Rank: g, SliceNs: int64(seq) * 1000, Count: 1, AvgNs: 100 + float64(g),
					}
				}
				f := AppendFrame(nil, FrameHeader{Rank: g, Seq: uint64(seq), CumRecords: uint64(seq * len(recs))}, recs)
				if err := s.Receive(f); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func(where string, st EpochStats) {
		if st.Open < 0 || st.Closed < 0 {
			t.Fatalf("%s: EpochStats %+v has a negative count", where, st)
		}
	}
	for polls := 0; ; polls++ {
		select {
		case <-done:
			check("final", s.EpochStats())
			return
		default:
		}
		check(fmt.Sprintf("poll %d", polls), s.EpochStats())
		check(fmt.Sprintf("snapshot %d", polls), s.Snapshot().Epochs)
		if polls%4 == 0 {
			s.InterProcessOutliers(0.9)
		}
	}
}

// oneRecordFrame is a frame from rank carrying one record for sensor 0 in slice
// sliceNs, with the given sequence number.
func oneRecordFrame(rank int, seq uint64, sliceNs int64, avg float64) []byte {
	recs := []detect.SliceRecord{{Sensor: 0, Rank: rank, SliceNs: sliceNs, Count: 1, AvgNs: avg}}
	return AppendFrame(nil, FrameHeader{Rank: rank, Seq: seq, CumRecords: seq}, recs)
}

// TestQueryRacingLateRecord stops a query between its snapshot pass and
// its seal pass and delivers a late record for an epoch the query is
// sealing: into a part the snapshot counted, into a partition that had no
// part of the epoch yet, and into a sealed part while the query re-caches a
// closed epoch at another threshold. The racing query answers for its own
// snapshot; the epoch must not be cached without the late record, so every
// later query equals the batch recompute over Records().
func TestQueryRacingLateRecord(t *testing.T) {
	cases := []struct {
		name      string
		lateRank  int
		preClose  bool // close slice 0 at threshold 0.9 before the racing query
		threshold float64
	}{
		{name: "counted part grows", lateRank: 8, threshold: 0.9},
		{name: "new partition joins", lateRank: 3, threshold: 0.9},
		{name: "sealed part at another threshold", lateRank: 8, preClose: true, threshold: 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSharded(8)
			o := obs.New()
			s.SetObs(o)
			// Ranks 0..2 report slices 0 and 1, so slice 0 is behind the
			// watermark; rank 2 is slow.
			for r := 0; r < 3; r++ {
				for sl := int64(0); sl < 2; sl++ {
					if err := s.Receive(oneRecordFrame(r, uint64(sl)+1, sl*1_000_000, 100+100*float64(r/2))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.preClose {
				s.InterProcessOutliers(0.9)
				if st := s.EpochStats(); st.Closed != 1 {
					t.Fatalf("EpochStats %+v, want slice 0 closed", st)
				}
			}
			want := batchOutliers(s.Records(), tc.threshold)

			a := s.an
			v := s.read(0)
			wm, have := v.watermarkNs, v.haveWatermark
			a.qmu.Lock()
			out := a.snapshot(tc.threshold, wm, have)
			a.evaluate(tc.threshold)
			// Rank 8 shares rank 0's partition; rank 3 has one of its own.
			if err := s.Receive(oneRecordFrame(tc.lateRank, 1, 0, 400)); err != nil {
				a.qmu.Unlock()
				t.Fatal(err)
			}
			out = a.commit(out, tc.threshold, wm)
			a.qmu.Unlock()
			sortOutliers(out)
			if !sameOutliersBits(out, want) {
				t.Fatalf("racing query = %+v, want its snapshot's %+v", out, want)
			}

			if st := s.EpochStats(); st.Open != 2 || st.Closed != 0 {
				t.Fatalf("after the race EpochStats = %+v, want both epochs open", st)
			}
			wantReopens := int64(0)
			if tc.preClose {
				wantReopens = 1
			}
			if got := o.Counter("server_epoch_reopens_total").Value(); got != wantReopens {
				t.Fatalf("%d reopens, want %d", got, wantReopens)
			}
			for _, th := range []float64{tc.threshold, 0.9, tc.threshold} {
				if got, want := s.InterProcessOutliers(th), batchOutliers(s.Records(), th); !sameOutliersBits(got, want) {
					t.Fatalf("threshold %v after the race: %+v, want %+v", th, got, want)
				}
			}
		})
	}
}

// TestQueriesRacingLateRecords is the concurrent form: one sender delivers a
// shuffled schedule, whose held-back half lands in epochs the watermark has
// long passed, while another goroutine queries in a loop. Once both stop, a
// query must equal the batch recompute — no query cached a verdict that
// missed a record.
func TestQueriesRacingLateRecords(t *testing.T) {
	tr := feed.Spec{
		Seed: 35, Trials: 1, Ranks: [2]int{8, 8}, Sensors: [2]int{4, 4}, Slices: [2]int{16, 16},
		Events: map[feed.Kind][]float64{feed.Shuffle: {1}, feed.HoldBack: {0.5}},
	}.Trial(0)
	s := NewSharded(4)
	stop := feed.Race(func() { s.InterProcessOutliers(0.8) })
	deliverAll(s, tr)
	stop()
	if got, want := s.InterProcessOutliers(0.8), batchOutliers(s.Records(), 0.8); !sameOutliersBits(got, want) {
		t.Fatalf("after the race: %d outliers, batch recompute %d", len(got), len(want))
	}
}

// TestInOrderIngestNeverReopens races a query loop against ranks that each
// deliver their frames in slice order. An epoch then closes only once every
// rank has sent a later slice, so all of its records are in already: a
// query must never close one early and leave a fold to reopen it. That
// holds only while a rank's advanced slice and the fold of the frame that
// advanced it are published together. Every rank reports the same time, so
// no outlier work lengthens a query: short queries hit that window most.
func TestInOrderIngestNeverReopens(t *testing.T) {
	const ranks, frames, slicesPer, sensors = 8, 400, 4, 2
	s := NewSharded(4)
	o := obs.New()
	s.SetObs(o)
	send := func(rank, f int) error {
		recs := make([]detect.SliceRecord, 0, slicesPer*sensors)
		for sl := f * slicesPer; sl < (f+1)*slicesPer; sl++ {
			for sn := 0; sn < sensors; sn++ {
				recs = append(recs, detect.SliceRecord{Sensor: sn, Rank: rank, SliceNs: int64(sl) * 1_000_000, Count: 1, AvgNs: 100})
			}
		}
		h := FrameHeader{Rank: rank, Seq: uint64(f + 1), CumRecords: uint64((f + 1) * len(recs))}
		return s.Receive(AppendFrame(nil, h, recs))
	}
	for r := 0; r < ranks; r++ {
		if err := send(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	var senders sync.WaitGroup
	for r := 0; r < ranks; r++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for f := 1; f < frames; f++ {
				if err := send(r, f); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { senders.Wait(); close(done) }()
	for querying := true; querying; {
		select {
		case <-done:
			querying = false
		default:
			s.InterProcessOutliers(0.8)
		}
	}
	if got := o.Counter("server_epoch_reopens_total").Value(); got != 0 {
		t.Fatalf("in-order ingest reopened %d epochs, want 0", got)
	}
}

// TestFoldAllocsAmortized pins the fold's allocation behaviour: folding N
// 64-record frames over K keys allocates the arenas' chunks — after the
// doublings, at most one per full-size chunk of entries or of block links —
// and O(K) objects for the keys themselves, never an allocation per record.
func TestFoldAllocsAmortized(t *testing.T) {
	const frames, keys, perFrame = 512, 64, 64
	sh := newShard(0)
	a := newAnalyzer([]*shard{sh})
	recs := make([][]byte, frames)
	for f := range recs {
		frame := make([]detect.SliceRecord, perFrame)
		for i := range frame {
			k := (f*perFrame + i) % keys
			frame[i] = detect.SliceRecord{Sensor: k % 8, Group: k / 8, Rank: f, SliceNs: 0, AvgNs: 100}
		}
		for _, r := range frame {
			recs[f] = AppendRecord(recs[f], r)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, r := range recs {
		a.fold(sh, r, 0, false)
	}
	runtime.ReadMemStats(&ms)
	got := ms.Mallocs - before

	// chunks bounds the chunks an arena needs for n units: the doublings
	// from lo to hi, one per hi units after them, and one for a run that
	// did not fit the rest of a chunk.
	chunks := func(n, lo, hi int) int {
		c := 1
		for ; lo < hi; lo *= 2 {
			c++
		}
		return c + n/hi + 1
	}
	perKey := frames * perFrame / keys
	links := keys * ((perKey - firstBlockLen + blockLen - 1) / blockLen)
	arenaChunks := chunks(keys*firstBlockLen+links*blockLen, entryChunkMin, entryChunkMax) +
		chunks(links, blockChunkMin, blockChunkMax)
	t.Logf("folding %d records over %d keys allocated %d objects", frames*perFrame, keys, got)
	if bound := uint64(arenaChunks + 4*keys); got > bound {
		t.Errorf("folding %d records over %d keys allocated %d objects, want <= %d (%d arena chunks + 4 per key)",
			frames*perFrame, keys, got, bound, arenaChunks)
	}
}
