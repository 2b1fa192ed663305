package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/storage"
)

var killRecoverSpec = feed.Spec{
	Seed: 0xD15C, Step: 104729, Trials: 120,
	Ranks: [2]int{3, 12}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 4},
	// Back-to-back bursts of retransmits, corrupt copies and one rank's
	// heartbeats are the chatter a commit group larger than one journals as
	// coalesced (*N) entries, which recovery then has to replay.
	Events: map[feed.Kind][]float64{
		feed.Drop: {0, 0.15}, feed.Dup: {0.15, 0.3}, feed.Corrupt: {0.15, 0.25}, feed.Shuffle: {0.5},
		feed.Heartbeat: {0.17}, feed.Crash: {1, 2, 3},
		feed.TornWrite: {0, 0.5, 1}, feed.SyncLoss: {0, 0.3}, feed.BitRot: {0, 0.4},
	},
	Burst: 4,
}

func TestKillRecoverConformance(t *testing.T) {
	// Trials that recovered past a torn tail, and that replayed a coalesced
	// entry: the floors keep the draws exercising both paths.
	var truncated, coalesced int
	if feed.Run(t, killRecoverSpec, killRecover(&truncated, &coalesced)) != killRecoverSpec.Trials {
		return // a -run filter or a failed trial: the floors describe the whole grid
	}
	t.Logf("%d trials: %d recovered past a torn tail, %d replayed a coalesced entry", killRecoverSpec.Trials, truncated, coalesced)
	if truncated < 15 {
		t.Errorf("only %d of %d trials recovered with TruncatedBytes > 0, want >= 15", truncated, killRecoverSpec.Trials)
	}
	if coalesced < 19 {
		t.Errorf("only %d of %d trials replayed a coalesced (*N) entry, want >= 19", coalesced, killRecoverSpec.Trials)
	}
}

// killRecover is the property: a durable server on the trial's faulty disk,
// crashing at the trial's crash points while a poller races its read
// surface, and recovering with redelivery from the recovered LSN, must end
// exactly equal to a plain server fed the schedule once, and hold every
// record delivered intact exactly once. Every Receive outcome (ingest, dup,
// checksum reject, framing reject, heartbeat) advances the LSN by exactly
// one — a coalesced entry covers a run of outcomes and carries the last
// one's LSN — so the recovered LSN is the count of deliveries whose effects
// survived, whatever the commit-group size.
func killRecover(truncatedTrials, coalescedTrials *int) feed.Property {
	return func(t *testing.T, tr feed.Trial) error {
		r := tr.Rand("server")
		shards := 1 << r.IntN(4)
		threshold := []float64{0.7, 0.8, 0.9}[r.IntN(3)]
		ref := NewSharded(shards)
		deliverAll(ref, tr)
		dur := NewSharded(shards)
		dur.AttachDurability(DurabilityConfig{
			FlushEvery:    []int{0, 0, 2, 8, 32}[r.IntN(5)],
			SnapshotEvery: []int{0, -1, 3, 8, 32}[r.IntN(5)],
			Disk:          storage.NewDisk(tr.Disk()),
		})
		// The poller keeps querying through ingest, crash and recovery: the
		// race detector checks the locking story, and its polls force epoch
		// close/reopen transitions.
		stop := feed.Race(func() {
			_, _, _ = dur.InterProcessOutliers(threshold), dur.Coverage(), dur.Liveness()
			_, _ = dur.Records(), dur.DurabilityStats()
		})
		crashes, truncated, coalesced := 0, false, false
		err := feed.Drive(tr.Schedule(wire), func(_ int, f []byte) error {
			_ = dur.Receive(f) // corrupt copies error; that's their job
			return nil
		}, nil, func(delivered int) (int, error) {
			if err := dur.Crash(); err != nil || !dur.Down() {
				return 0, fmt.Errorf("crash at %d: %v, down=%v", delivered, err, dur.Down())
			}
			if err := dur.Receive(AppendHeartbeat(nil, 0, 0, 0)); !errors.Is(err, ErrServerDown) {
				return 0, fmt.Errorf("Receive while down = %v, want ErrServerDown", err)
			}
			rs, err := dur.Recover()
			if err != nil || dur.Down() || rs.LSN > uint64(delivered) {
				return 0, fmt.Errorf("recover at %d: %v, down=%v, LSN %d", delivered, err, dur.Down(), rs.LSN)
			}
			crashes++
			truncated = truncated || rs.TruncatedBytes > 0
			// Only an *N entry covers more outcomes than it has entries.
			coalesced = coalesced || rs.OutcomesReplayed > int64(rs.WALEntriesReplayed)
			// The recovered state reflects the first LSN deliveries; the
			// lost suffix is re-sent, exactly what real clients do.
			return int(rs.LSN), nil
		})
		stop()
		if err != nil {
			return err
		}
		if err := errors.Join(
			sameState(dur, ref, threshold),
			tr.ExactlyOnce(dur.Records()),
			// Closing the loop with the differential conformance property.
			feed.Same("outlier against the batch recompute", dur.InterProcessOutliers(threshold), batchOutliers(dur.Records(), threshold)),
		); err != nil {
			return err
		}
		if ds := dur.DurabilityStats(); !ds.Enabled || ds.Recoveries != int64(crashes) {
			return fmt.Errorf("durability stats = %+v, want %d recoveries", ds, crashes)
		}
		if truncated {
			*truncatedTrials++
		}
		if coalesced {
			*coalescedTrials++
		}
		return nil
	}
}

// A crash mid-run with a fault-free, sync-every-entry disk must recover
// every acknowledged frame: ack implies durable.
func TestRecoverAckImpliesDurable(t *testing.T) {
	s := NewSharded(4)
	s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{})})
	frames := feed.Trial{Seed: 42, Shape: feed.Shape{Ranks: 5, Sensors: 2, Slices: 3}}.Deliveries(wire)
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
	if err := feed.Same("recovered record", s.Records(), want); err != nil {
		t.Fatal(err)
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

// A truncated recovery leaves the rest of its segment behind, and the seal
// keeps that segment while it names the entries before the tear. Replay
// starts at the base section's generation, so the old segment is never
// scanned again: frames re-sent after the recovery and after the next
// checkpoint all come back from the next crash.
func TestSealRetainsNoStaleSuffix(t *testing.T) {
	s, disk, schedule := fallbackFixture(t)
	live := walSegmentName(s.DurabilityStats().Generation)
	seg, err := disk.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, _ := scanWAL(seg)
	if len(entries) < 3 {
		t.Fatalf("live segment holds %d entries, want a few to tear between", len(entries))
	}
	tear := entries[len(entries)/2].off + walEntryHeader + 3 // inside an entry, mid-segment
	rewriteFile(t, disk, live, seg[:tear])
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.TruncatedBytes == 0 || rs.LSN >= uint64(len(schedule)) {
		t.Fatalf("the torn segment did not truncate recovery: %+v", rs)
	}
	if names := disk.List(); !slices.Contains(names, live) {
		t.Fatalf("the seal dropped %s, whose entries before the tear it names: %v", live, names)
	}
	// Clients re-send from the recovered LSN, half before a checkpoint and
	// half after it.
	half := rs.LSN + (uint64(len(schedule))-rs.LSN)/2
	for i, f := range schedule[rs.LSN:] {
		if uint64(i)+rs.LSN == half {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err = s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LSN != uint64(len(schedule)) || rs.TruncatedBytes != 0 {
		t.Fatalf("second recovery reached LSN %d of %d, truncating %d bytes", rs.LSN, len(schedule), rs.TruncatedBytes)
	}
	sameAsReference(t, s, schedule)
}

// Rot in a frame entry that only an older section names rewinds recovery to
// just before that entry: every section from the one naming it on is
// dropped, replay from the section before stops at the rotten entry, and
// the recovery reports the fallback. Re-sending from the recovered LSN
// restores the rest.
func TestRotInRetainedSegment(t *testing.T) {
	s, disk, schedule := fallbackFixture(t)
	const gen = 2 // named only by the section of generation 3
	seg, err := disk.ReadFile(walSegmentName(gen))
	if err != nil {
		t.Fatal(err)
	}
	entries, _, _ := scanWAL(seg)
	i := slices.IndexFunc(entries, func(e walEntry) bool { return e.kind == walKindFrame })
	if i < 0 {
		t.Fatalf("wal.%d holds no frame entry", gen)
	}
	rot := entries[i]
	rewriteFile(t, disk, walSegmentName(gen), feed.Flip(seg, 8*(rot.off+walEntryHeader+20)))
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LSN != rot.lsn-1 || !rs.SnapshotFallback || !rs.UsedSnapshot || rs.SnapshotGen != gen {
		t.Fatalf("recovered to LSN %d from generation %d (fallback %v), want LSN %d from generation %d: %+v",
			rs.LSN, rs.SnapshotGen, rs.SnapshotFallback, rot.lsn-1, gen, rs)
	}
	sameAsReference(t, s, schedule[:rs.LSN])
	for _, f := range schedule[rs.LSN:] {
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	sameAsReference(t, s, schedule)
}

// The WAL is the record store, so a checkpoint rotates the WAL and deletes
// nothing: every segment a section names holds records, and replay from an
// earlier section needs every segment after it. Recover's seal names every
// surviving frame entry and prunes exactly the pre-seal segments it names
// nothing in.
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
	// A segment of chatter only: no section names it.
	if err := s.Receive(AppendHeartbeat(nil, 1, 1000, 500)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files := func() (wals, snaps []string) {
		for _, n := range disk.List() {
			if _, ok := walGen(n); ok {
				wals = append(wals, n)
			} else {
				snaps = append(snaps, n)
			}
		}
		return wals, snaps
	}
	wals, snaps := files()
	if want := []string{"wal.0", "wal.1", "wal.2", "wal.3"}; !slices.Equal(wals, want) {
		t.Fatalf("checkpoints left WAL segments %v, want all of %v", wals, want)
	}
	if !slices.Equal(snaps, snapSlots[:]) {
		t.Fatalf("snapshot slots = %v, want %v", snaps, snapSlots)
	}
	// Recovery from the checkpointed disk reproduces the state, and its seal
	// drops the chatter segment but keeps the three that hold records.
	want := s.Records()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rs.UsedSnapshot || rs.SegmentsScanned != 0 {
		t.Fatalf("recovery did not rest on the snapshot alone: %+v", rs)
	}
	if err := feed.Same("record recovered from the snapshot", s.Records(), want); err != nil {
		t.Fatal(err)
	}
	wals, snaps = files()
	if want := []string{"wal.0", "wal.1", "wal.2"}; !slices.Equal(wals, want) {
		t.Fatalf("the seal left WAL segments %v, want %v", wals, want)
	}
	if !slices.Equal(snaps, snapSlots[:]) {
		t.Fatalf("snapshot slots after the seal = %v, want %v", snaps, snapSlots)
	}
}
