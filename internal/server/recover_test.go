package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/storage"
)

// The kill-and-recover conformance property: for ANY randomized scenario —
// delivery faults, group-commit window, snapshot cadence, disk faults
// (torn writes, lying fsyncs, bit rot), and 1–3 crashes at arbitrary
// points — Crash + Recover + resumed redelivery from the recovered LSN
// must leave the server EXACTLY equal to one that never crashed: same
// record log, same coverage counters, same outlier verdicts.
//
// The dense-LSN design makes "resume from the recovered LSN" well defined:
// every Receive outcome (ingest, dup, checksum reject, framing reject,
// heartbeat) advances the LSN by exactly one — a coalesced entry covers a
// run of outcomes and carries the last one's LSN — so the recovered LSN IS
// the count of delivery-schedule items whose effects survived.
// Redelivering schedule[LSN:] replays the lost suffix through the
// identical state machine, whatever the commit-group size.

// durableTrial is one randomized kill-and-recover scenario's tuning.
type durableTrial struct {
	flushEvery int // outcomes per commit group; <= 1 is ack-implies-durable
	snapEvery  int
	faults     storage.Faults
	crashes    []int // schedule indices at which the server crashes
}

// chattySchedule expands a delivery schedule with the steady-state chatter
// real links produce in runs — back-to-back retransmits of one frame, bursts
// of corrupt copies, same-rank heartbeat bursts — so commit groups larger
// than one journal coalesced (*N) entries and recovery has to replay them.
func chattySchedule(rng *rand.Rand, schedule [][]byte, ranks int) [][]byte {
	out := make([][]byte, 0, 2*len(schedule))
	for i, f := range schedule {
		out = append(out, f)
		switch rng.Intn(6) {
		case 0: // retransmit storm: 1-3 immediate copies, each a dup outcome
			for n := 1 + rng.Intn(3); n > 0; n-- {
				out = append(out, f)
			}
		case 1: // a run of 2-4 corrupt copies
			for n := 2 + rng.Intn(3); n > 0; n-- {
				out = append(out, corruptCopy(rng, f))
			}
		case 2: // a burst of 2-5 heartbeats from one rank
			rank := rng.Intn(ranks)
			for n, now := 2+rng.Intn(4), int64(i)*1_000_000; n > 0; n-- {
				out = append(out, AppendHeartbeat(nil, rank, now, 5_000_000))
				now += int64(rng.Intn(3)) * 100_000
			}
		}
	}
	return out
}

func TestKillRecoverConformance(t *testing.T) {
	const trials = 120
	// How many trials ran to completion, recovered past a torn tail, and
	// replayed a coalesced entry: the floors below keep the grid from
	// silently ceasing to exercise either path.
	var ran, sawTruncation, sawCoalescedReplay int
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xD15C + int64(trial)*104729))
			ranks := 3 + rng.Intn(10)
			shards := 1 << rng.Intn(4)
			sensors := 1 + rng.Intn(3)
			slices := 2 + rng.Intn(3)
			threshold := []float64{0.7, 0.8, 0.9}[rng.Intn(3)]
			plan := conformancePlan{
				drop:    []float64{0, 0.15}[rng.Intn(2)],
				dup:     []float64{0, 0.15}[rng.Intn(2)],
				corrupt: []float64{0, 0.1}[rng.Intn(2)],
				shuffle: rng.Intn(2) == 0,
			}
			trialCfg := durableTrial{
				flushEvery: []int{0, 0, 2, 8, 32}[rng.Intn(5)],
				snapEvery:  []int{0, -1, 3, 8, 32}[rng.Intn(5)],
				faults: storage.Faults{
					Seed:      0xBAD + int64(trial),
					TornWrite: []float64{0, 0.5, 1}[rng.Intn(3)],
					SyncLoss:  []float64{0, 0.3}[rng.Intn(2)],
					BitRot:    []float64{0, 0.4}[rng.Intn(2)],
				},
			}

			frames := buildConformanceFrames(rng, ranks, sensors, slices)
			// Both engines see the same chatter, heartbeats included, so
			// liveness state must match too.
			schedule := chattySchedule(rng, applyPlan(rng, frames, plan), ranks)

			nCrashes := 1 + rng.Intn(3)
			for i := 0; i < nCrashes; i++ {
				trialCfg.crashes = append(trialCfg.crashes, rng.Intn(len(schedule)+1))
			}

			// Reference: a plain in-memory server fed the schedule once,
			// in order, with no crashes.
			ref := NewSharded(shards)
			for _, f := range schedule {
				_ = ref.Receive(f)
			}

			// Durable engine on a faulty disk, same schedule, crashing and
			// recovering at the chosen points.
			dur := NewSharded(shards)
			dur.AttachDurability(DurabilityConfig{
				FlushEvery:    trialCfg.flushEvery,
				SnapshotEvery: trialCfg.snapEvery,
				Disk:          storage.NewDisk(trialCfg.faults),
			})

			// A concurrent poller keeps querying throughout ingest, crash,
			// and recovery: the race detector checks the locking story, and
			// mid-stream polls force epoch close/reopen transitions.
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					_ = dur.InterProcessOutliers(threshold)
					_ = dur.Coverage()
					_ = dur.Liveness()
					_ = dur.Records()
					_ = dur.DurabilityStats()
				}
			}()

			truncated, coalescedReplay := false, false
			i := 0
			for _, cp := range trialCfg.crashes {
				for i < cp && i < len(schedule) {
					_ = dur.Receive(schedule[i]) // corrupt frames error; that's their job
					i++
				}
				if err := dur.Crash(); err != nil {
					t.Fatalf("crash at %d: %v", i, err)
				}
				if !dur.Down() {
					t.Fatal("server not down after Crash")
				}
				if len(schedule) > 0 {
					if err := dur.Receive(schedule[0]); !errors.Is(err, ErrServerDown) {
						t.Fatalf("Receive while down = %v, want ErrServerDown", err)
					}
				}
				rs, err := dur.Recover()
				if err != nil {
					t.Fatalf("recover at %d: %v", i, err)
				}
				if dur.Down() {
					t.Fatal("server still down after Recover")
				}
				if rs.LSN > uint64(i) {
					t.Fatalf("recovered LSN %d exceeds %d delivered items", rs.LSN, i)
				}
				truncated = truncated || rs.TruncatedBytes > 0
				// Only an *N entry covers more outcomes than it has entries.
				coalescedReplay = coalescedReplay || rs.OutcomesReplayed > int64(rs.WALEntriesReplayed)
				// The recovered state reflects schedule[:LSN]; the lost
				// suffix is re-sent — exactly what real clients do.
				i = int(rs.LSN)
			}
			for ; i < len(schedule); i++ {
				_ = dur.Receive(schedule[i])
			}
			close(done)
			wg.Wait()

			// Exact equality with the never-crashed reference.
			gotRecs, refRecs := dur.Records(), ref.Records()
			if len(gotRecs) != len(refRecs) {
				t.Fatalf("recovered log holds %d records, reference %d", len(gotRecs), len(refRecs))
			}
			for j := range gotRecs {
				if gotRecs[j] != refRecs[j] {
					t.Fatalf("record %d differs:\n got: %+v\nwant: %+v", j, gotRecs[j], refRecs[j])
				}
			}
			if got, want := dur.Coverage(), ref.Coverage(); got != want {
				t.Fatalf("coverage differs:\n got: %+v\nwant: %+v", got, want)
			}
			if got, want := dur.Heartbeats(), ref.Heartbeats(); got != want {
				t.Fatalf("heartbeats %d, want %d", got, want)
			}
			outliersEqual(t, trial, dur.InterProcessOutliers(threshold), ref.InterProcessOutliers(threshold))
			// And against the from-scratch batch recompute, closing the loop
			// with the differential conformance property.
			outliersEqual(t, trial, dur.InterProcessOutliers(threshold), batchOutliers(dur.Records(), threshold))

			if ds := dur.DurabilityStats(); !ds.Enabled || ds.Recoveries != int64(nCrashes) {
				t.Fatalf("durability stats = %+v, want %d recoveries", ds, nCrashes)
			}
			ran++
			if truncated {
				sawTruncation++
			}
			if coalescedReplay {
				sawCoalescedReplay++
			}
		})
	}
	if ran != trials {
		return // a -run filter or a failed trial: the floors describe the whole grid
	}
	t.Logf("%d trials: %d recovered past a torn tail, %d replayed a coalesced entry", trials, sawTruncation, sawCoalescedReplay)
	if sawTruncation < 15 {
		t.Errorf("only %d of %d trials recovered with TruncatedBytes > 0, want >= 15", sawTruncation, trials)
	}
	// Half of the 39 the chatty schedule measures; the pre-chatty schedule
	// (isolated heartbeats, far-apart duplicates) measured 0.
	if sawCoalescedReplay < 19 {
		t.Errorf("only %d of %d trials replayed a coalesced (*N) entry, want >= 19", sawCoalescedReplay, trials)
	}
}

// A crash mid-run with a fault-free, sync-every-entry disk must recover
// every acknowledged frame: ack implies durable.
func TestRecoverAckImpliesDurable(t *testing.T) {
	s := NewSharded(4)
	s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{})})
	rng := rand.New(rand.NewSource(42))
	frames := buildConformanceFrames(rng, 5, 2, 3)
	for _, f := range frames {
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Records()
	wantCov := s.Coverage()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Records()); got != 0 {
		t.Fatalf("crash left %d records in memory", got)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LSN != uint64(len(frames)) {
		t.Fatalf("recovered LSN %d, want %d (every ack was synced)", rs.LSN, len(frames))
	}
	got := s.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after recovery", i)
		}
	}
	if cov := s.Coverage(); cov != wantCov {
		t.Fatalf("coverage after recovery %+v, want %+v", cov, wantCov)
	}
}

func TestCrashRecoverAPIErrors(t *testing.T) {
	plain := NewSharded(1)
	if err := plain.Crash(); err == nil {
		t.Error("Crash without durability should error")
	}
	if _, err := plain.Recover(); err == nil {
		t.Error("Recover without durability should error")
	}

	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{})
	if _, err := s.Recover(); err == nil {
		t.Error("Recover on a server that has not crashed should error")
	}
}

func TestAttachDurabilityPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{})
	expectPanic("double attach", func() { s.AttachDurability(DurabilityConfig{}) })

	late := NewSharded(1)
	recs := []detect.SliceRecord{{Sensor: 0, Rank: 0, Count: 1, AvgNs: 1}}
	if err := late.Receive(AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1}, recs)); err != nil {
		t.Fatal(err)
	}
	expectPanic("attach after ingest", func() { late.AttachDurability(DurabilityConfig{}) })
}

// appendTestEntry frames one WAL payload the way appendEntry does.
func appendTestEntry(dst []byte, kind byte, lsn uint64, body []byte) []byte {
	payload := append([]byte{kind}, binary.LittleEndian.AppendUint64(nil, lsn)...)
	payload = append(payload, body...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

func TestScanWALStopsAtFirstInvalidEntry(t *testing.T) {
	good := appendTestEntry(nil, walKindChecksum, 1, nil)
	good = appendTestEntry(good, walKindReject, 2, nil)
	n := len(good)

	cases := []struct {
		name string
		data []byte
	}{
		{"torn header", append(append([]byte(nil), good...), 0x07, 0x00)},
		{"torn payload", append(append([]byte(nil), good...), 0x20, 0, 0, 0, 0, 0, 0, 0, walKindDup)},
		{"hostile length", append(binary.LittleEndian.AppendUint32(append([]byte(nil), good...), 0xFFFFFFFF), 0, 0, 0, 0)},
		{"undersized length", append(binary.LittleEndian.AppendUint32(append([]byte(nil), good...), 3), 0, 0, 0, 0, 1, 2, 3)},
		{"crc mismatch", func() []byte {
			bad := appendTestEntry(append([]byte(nil), good...), walKindChecksum, 3, nil)
			bad[len(bad)-1] ^= 1 // flip a payload bit after the CRC was taken
			return bad
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			entries, consumed, truncated := scanWAL(tc.data)
			if !truncated {
				t.Fatal("hostile tail not flagged as truncation")
			}
			if consumed != n {
				t.Fatalf("consumed %d bytes, want the %d-byte valid prefix", consumed, n)
			}
			if len(entries) != 2 || entries[0].lsn != 1 || entries[1].lsn != 2 {
				t.Fatalf("entries = %+v, want the 2-entry prefix", entries)
			}
		})
	}

	entries, consumed, truncated := scanWAL(good)
	if truncated || consumed != n || len(entries) != 2 {
		t.Fatalf("clean segment misparsed: %d entries, consumed %d, truncated %v", len(entries), consumed, truncated)
	}
}

// Replay must stop at an LSN gap — entries past a lost (acknowledged but
// never persisted) predecessor describe state transitions whose inputs
// are gone.
func TestRecoverStopsAtLSNGap(t *testing.T) {
	seg := appendTestEntry(nil, walKindChecksum, 1, u32(1))
	seg = appendTestEntry(seg, walKindChecksum, 2, u32(1))
	seg = appendTestEntry(seg, walKindChecksum, 4, u32(1)) // 3 is missing
	seg = appendTestEntry(seg, walKindChecksum, 5, u32(1))
	s, rs := recoverSegment(t, seg)
	if rs.LSN != 2 || rs.WALEntriesReplayed != 2 {
		t.Fatalf("recovery crossed the LSN gap: %+v", rs)
	}
	if got := s.Coverage().ChecksumErrors; got != 2 {
		t.Fatalf("checksum counter %d, want the 2-entry prefix", got)
	}
}

// Checkpoint rotates the WAL and keeps exactly one older segment (the
// fallback for a rotten newest snapshot); everything older is deleted.
func TestCheckpointPrunesOldSegments(t *testing.T) {
	s := NewSharded(2)
	disk := storage.NewDisk(storage.Faults{})
	s.AttachDurability(DurabilityConfig{SnapshotEvery: -1, Disk: disk})
	recs := []detect.SliceRecord{{Sensor: 0, Rank: 1, Count: 1, AvgNs: 5}}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: 1, Seq: seq, CumRecords: seq}, recs)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	names := disk.List()
	var wals, snaps []string
	for _, n := range names {
		if _, ok := walGen(n); ok {
			wals = append(wals, n)
		} else {
			snaps = append(snaps, n)
		}
	}
	if len(wals) > 2 {
		t.Fatalf("checkpoint left %d WAL segments (%v), want <= 2", len(wals), wals)
	}
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("snapshot slots = %v, want snap.a/snap.b", snaps)
	}
	// Recovery from the checkpointed disk reproduces the state.
	want := s.Records()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rs.UsedSnapshot {
		t.Fatalf("recovery ignored the snapshot: %+v", rs)
	}
	got := s.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after snapshot recovery", i)
		}
	}
}
