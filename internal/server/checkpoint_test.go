package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/storage"
)

// feedFrame builds frame number i of a round-robin feed: rank i%ranks, the
// rank's next sequence number, n records.
func feedFrame(dst []byte, recs []detect.SliceRecord, i, ranks int) []byte {
	rank, seq := i%ranks, uint64(i/ranks+1)
	for j := range recs {
		recs[j] = detect.SliceRecord{
			Sensor: j % 8, Rank: rank, SliceNs: int64(seq) * 1_000_000,
			Count: 3, AvgNs: float64(1000 + j), AvgInstr: 7,
		}
	}
	return AppendFrame(dst, FrameHeader{Rank: rank, Seq: seq, CumRecords: seq * uint64(len(recs))}, recs)
}

// fullSection encodes the server's whole state from nothing, the way
// Recover's seal does, without writing it anywhere. It leaves the change
// marks cleared, so a server that keeps checkpointing afterwards must call it
// right after a checkpoint, when there is nothing pending to forget.
func fullSection(s *Server, gen, lsn uint64) []byte {
	d := s.dur
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	s.touchAll()
	sec, _ := s.appendSection(nil, 0, gen, lsn)
	s.sectionWritten()
	return sec
}

// A checkpoint's cost follows what changed since the previous one, not how
// long the run has been going: on the benchmark's own feed the sixteenth
// automatic checkpoint appends what the first did, the slot is those
// sections and nothing else, holds no record byte (the WAL entries it names
// do), and decodes to the same state as one full snapshot; a steady-state
// checkpoint allocates next to nothing.
func TestCheckpointCostIsOChange(t *testing.T) {
	const ranks, frames, perFrame = 256, 4096, 64
	s := NewSharded(DefaultShards)
	disk := storage.NewDisk(storage.Faults{})
	s.AttachDurability(DurabilityConfig{FlushEvery: DefaultFlushEvery, Disk: disk})
	recs := make([]detect.SliceRecord, perFrame)
	var frame []byte
	var sections []int64 // bytes each automatic checkpoint wrote, both mirrors
	var seen DurabilityStats
	for i := 0; i < frames; i++ {
		frame = feedFrame(frame[:0], recs, i, ranks)
		if err := s.Receive(frame); err != nil {
			t.Fatal(err)
		}
		if ds := s.DurabilityStats(); ds.Snapshots != seen.Snapshots {
			sections = append(sections, ds.CheckpointBytes-seen.CheckpointBytes)
			seen = ds
		}
	}
	if want := frames / DefaultSnapshotEvery; len(sections) != want {
		t.Fatalf("%d automatic checkpoints, want %d", len(sections), want)
	}
	first, last := sections[0], sections[len(sections)-1]
	if diff := last - first; diff > first/10 || -diff > first/10 {
		t.Errorf("last automatic checkpoint wrote %d bytes, the first %d: not within 10%%", last, first)
	}
	if amp := float64(seen.CheckpointBytes) / float64(seen.WALBytes); amp > 0.1 {
		t.Errorf("checkpoints wrote %d bytes for %d WAL bytes (%.3fx), want <= 0.1x: sections name records, never copy them", seen.CheckpointBytes, seen.WALBytes, amp)
	}

	slot, err := disk.ReadFile(snapSlots[0])
	if err != nil {
		t.Fatal(err)
	}
	if mirror, _ := disk.ReadFile(snapSlots[1]); !bytes.Equal(slot, mirror) {
		t.Fatalf("slots differ: %d vs %d bytes", len(slot), len(mirror))
	}
	// No compaction: the slot is exactly the sections the checkpoints
	// appended, each bounded above, and a twentieth of the WAL.
	if int64(len(slot)*len(snapSlots)) != seen.CheckpointBytes {
		t.Errorf("slot holds %d bytes, the checkpoints appended %d per mirror", len(slot), seen.CheckpointBytes/int64(len(snapSlots)))
	}
	if int64(len(slot))*20 > seen.WALBytes {
		t.Errorf("slot holds %d bytes for %d WAL bytes: more than 1/20", len(slot), seen.WALBytes)
	}
	wal := segmentCache(disk)
	full := fullSection(s, seen.Generation, seen.LSN)
	got, valid, err := decodeSlot(slot, wal)
	if err != nil || valid != len(slot) {
		t.Fatalf("slot decodes to %d of %d bytes, err %v", valid, len(slot), err)
	}
	want, _, err := decodeSlot(full, wal)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("folding the delta sections does not equal the from-nothing snapshot")
	}

	// Steady state: another checkpoint interval's worth of frames, then the
	// checkpoint alone between two malloc counts. What is left is the disk's
	// amortized file growth and its List.
	var ms runtime.MemStats
	var mallocs uint64
	const rounds = 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < DefaultSnapshotEvery-1; i++ {
			frame = feedFrame(frame[:0], recs, frames+r*DefaultSnapshotEvery+i, ranks)
			if err := s.Receive(frame); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	avg := float64(mallocs) / rounds
	t.Logf("sections of %d..%d bytes, slot %d bytes vs %d from nothing, %.1f allocs per steady-state checkpoint", first, last, len(slot), len(full), avg)
	if avg > 8 {
		t.Errorf("a steady-state checkpoint allocates %.1f objects, want <= 8", avg)
	}
}

// Each record is written once: on TestCheckpointCostIsOChange's feed the
// device takes the WAL's frame entries and a little bookkeeping, not a copy
// of every record per snapshot slot.
func TestRecordBytesWrittenOnce(t *testing.T) {
	const ranks, frames, perFrame = 256, 4096, 64
	s := NewSharded(DefaultShards)
	disk := storage.NewDisk(storage.Faults{})
	s.AttachDurability(DurabilityConfig{FlushEvery: DefaultFlushEvery, Disk: disk})
	recs := make([]detect.SliceRecord, perFrame)
	var frame []byte
	var received int64
	for i := 0; i < frames; i++ {
		frame = feedFrame(frame[:0], recs, i, ranks)
		if err := s.Receive(frame); err != nil {
			t.Fatal(err)
		}
		received += int64(len(frame))
	}
	ds, st := s.DurabilityStats(), disk.Stats()
	if ds.Snapshots != frames/DefaultSnapshotEvery {
		t.Fatalf("%d checkpoints, want %d", ds.Snapshots, frames/DefaultSnapshotEvery)
	}
	t.Logf("%d frame bytes received: %d appended (%.3fx), %d WAL, %d checkpoint", received, st.AppendBytes,
		float64(st.AppendBytes)/float64(received), ds.WALBytes, ds.CheckpointBytes)
	if st.AppendBytes*10 > received*11 {
		t.Errorf("the disk took %d bytes for %d frame bytes received: more than 1.1x", st.AppendBytes, received)
	}
	if ds.CheckpointBytes*10 > ds.WALBytes {
		t.Errorf("checkpoints wrote %d bytes for %d WAL bytes: more than 0.1x", ds.CheckpointBytes, ds.WALBytes)
	}
}

// sectionOffsets returns where each section of a well-formed slot starts,
// plus the slot's length.
func sectionOffsets(t *testing.T, slot []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off < len(slot) {
		offs = append(offs, off)
		off += sectionHeader + int(binary.LittleEndian.Uint32(slot[off+4:]))
	}
	if off != len(slot) {
		t.Fatalf("slot framing ends at %d of %d bytes", off, len(slot))
	}
	return append(offs, off)
}

// rewriteFile replaces a file's durable content.
func rewriteFile(t testing.TB, disk *storage.Disk, name string, data []byte) {
	t.Helper()
	for _, err := range []error{disk.Remove(name), disk.Append(name, data), disk.Sync(name)} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// fallbackFixture is a durable server that acked every frame of a schedule
// (a group of one: ack implies durable) across a dozen or so checkpoints.
func fallbackFixture(t testing.TB) (s *Server, disk *storage.Disk, schedule [][]byte) {
	t.Helper()
	tr := feed.Trial{Seed: 7, Shape: feed.Shape{Ranks: 12, Sensors: 3, Slices: 7}, Events: []feed.Event{{Kind: feed.Shuffle, Arg: 7}}}
	for i := range 6 {
		tr.Events = append(tr.Events, feed.Event{Kind: feed.Heartbeat, At: i, Rank: i, Arg: int64(i) * 1000})
	}
	schedule = tr.Deliveries(wire)
	s = NewSharded(4)
	disk = storage.NewDisk(storage.Faults{})
	s.AttachDurability(DurabilityConfig{SnapshotEvery: 6, Disk: disk})
	for _, f := range schedule {
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	if ds := s.DurabilityStats(); ds.Snapshots < 8 || ds.LSN != uint64(len(schedule)) {
		t.Fatalf("fixture took %d checkpoints at LSN %d, want >= 8 at %d", ds.Snapshots, ds.LSN, len(schedule))
	}
	return s, disk, schedule
}

// sameAsReference checks s against a never-crashed server fed schedule.
func sameAsReference(t *testing.T, s *Server, schedule [][]byte) {
	t.Helper()
	ref := NewSharded(s.Shards())
	for _, f := range schedule {
		_ = ref.Receive(f)
	}
	if err := sameState(s, ref, 0.8); err != nil {
		t.Fatal(err)
	}
}

// One rotten bit anywhere in one slot loses nothing: the mirror carries the
// whole section log, and the recovery says it fell back.
func TestSnapshotFallbackOneRottenSlot(t *testing.T) {
	_, probe, _ := fallbackFixture(t) // the fixture is seeded: every build has this slot length
	slot, _ := probe.ReadFile(snapSlots[0])
	// The subtests are named by bits drawn over span, an earlier and larger
	// fixture's slot length, and each flips its bit scaled onto this slot:
	// the first bit onto the first, span's last onto the slot's last. One
	// more is named by, and flips, the slot's last bit.
	const span = 13_330 * 8
	last := len(slot)*8 - 1
	type draw struct{ name, flip int }
	draws := []draw{{0, 0}, {span - 1, last}}
	rng := rand.New(rand.NewSource(11))
	for len(draws) < 24 {
		bit := rng.Intn(span)
		draws = append(draws, draw{bit, bit * last / (span - 1)})
	}
	draws = append(draws, draw{last, last})
	for i, d := range draws {
		name := snapSlots[i%2]
		t.Run(fmt.Sprintf("%s/bit=%d", name, d.name), func(t *testing.T) {
			s, disk, schedule := fallbackFixture(t)
			slot, err := disk.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			rewriteFile(t, disk, name, feed.Flip(slot, d.flip))
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}
			rs, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rs.LSN != uint64(len(schedule)) {
				t.Fatalf("recovered LSN %d, every one of %d outcomes was acked durable", rs.LSN, len(schedule))
			}
			if !rs.SnapshotFallback || !rs.UsedSnapshot {
				t.Fatalf("recovery did not report the fallback: %+v", rs)
			}
			sameAsReference(t, s, schedule)
		})
	}
}

// The same section rotten in both slots — or different ones — loses
// nothing while the WAL is intact: recovery folds the longer surviving
// section prefix, never half a section past it, and replays every segment
// after that prefix's generation, which no checkpoint deletes.
func TestSnapshotRotInBothSlots(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rotA, rotB int // section index from the start; negative counts from the end
	}{
		{"same middle section", 4, 4},
		{"different sections", 3, 6},
		{"first section of one slot", 5, 0},
		{"last section", -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, disk, schedule := fallbackFixture(t)
			survive := -1 // sections in the longer surviving prefix
			var baseLSN uint64
			for i, rot := range []int{tc.rotA, tc.rotB} {
				slot, err := disk.ReadFile(snapSlots[i])
				if err != nil {
					t.Fatal(err)
				}
				offs := sectionOffsets(t, slot)
				if rot < 0 {
					rot += len(offs) - 1
				}
				if rot > survive {
					survive = rot
					if st, _, _ := decodeSlot(slot[:offs[rot]], segmentCache(disk)); st != nil {
						baseLSN = st.lsn
					}
				}
				slot[(offs[rot]+offs[rot+1])/2] ^= 0x10
				rewriteFile(t, disk, snapSlots[i], slot)
			}
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}
			rs, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rs.SnapshotLSN != baseLSN || !rs.SnapshotFallback {
				t.Fatalf("recovery based on LSN %d (fallback %v), want the %d-section prefix at LSN %d", rs.SnapshotLSN, rs.SnapshotFallback, survive, baseLSN)
			}
			if rs.LSN != uint64(len(schedule)) {
				t.Fatalf("recovered LSN %d, every one of %d outcomes was acked durable", rs.LSN, len(schedule))
			}
			sameAsReference(t, s, schedule)
		})
	}
}

// Receives that raced past the same due mark take one checkpoint between
// them, not one each.
func TestAutomaticCheckpointRunsOncePerDueMark(t *testing.T) {
	const every = 4
	s := NewSharded(4)
	s.AttachDurability(DurabilityConfig{SnapshotEvery: every})
	recs := make([]detect.SliceRecord, 2)
	for i := 0; i < every; i++ {
		// receiveLocked, not Receive: leave the due mark standing.
		if _, _, err := s.receiveLocked(feedFrame(nil, recs, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.checkpointIfDue(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DurabilityStats().Snapshots; got != 1 {
		t.Fatalf("three racers past one due mark took %d checkpoints, want 1", got)
	}

	// And under real contention: a checkpoint resets the frame count, so
	// checkpoints × cadence can never exceed the frames ingested.
	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	for rank := 1; rank <= senders; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			recs := make([]detect.SliceRecord, 2)
			for seq := uint64(1); seq <= perSender; seq++ {
				recs[0].Rank, recs[1].Rank = rank, rank
				f := AppendFrame(nil, FrameHeader{Rank: rank, Seq: seq, CumRecords: 2 * seq}, recs)
				if err := s.Receive(f); err != nil {
					t.Error(err)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	if got, max := s.DurabilityStats().Snapshots, int64(every+senders*perSender)/every; got > max {
		t.Fatalf("%d checkpoints for %d frames at one per %d", got, every+senders*perSender, every)
	}
}

// The slot decoder files every rank entry in the shard rank & mask selects:
// a section that puts a rank in any other shard is a writer error, and the
// slot is refused whole.
func TestSnapshotRefusesRankInForeignShard(t *testing.T) {
	hdr := testBody(u32(0), u64b(1), u64b(0), u64b(0), u64b(0), u64b(0), u64b(0))
	counters := bytes.Repeat([]byte{0}, 6*8)
	empty := testBody(counters, u32(0), u32(0), u32(0), u32(0))
	// Rank 1's flow: contig, maxSeq, maxCum, frames and records 1, no ahead.
	rank1 := testBody(counters, u32(1), []byte{1, 1, 1, 1, 1, 1, 0}, u32(0), u32(0), u32(0))
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"home shard", testBody(hdr, u32(2), empty, rank1), true},
		{"foreign shard", testBody(hdr, u32(2), rank1, empty), false},
	} {
		slot := resealSlot(testBody(u32(snapMagic), u32(uint32(len(tc.body))), u32(0), tc.body))
		st, _, err := decodeSlot(slot, segmentCache(storage.NewDisk(storage.Faults{})))
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && (st == nil || st.shards[1].ranks[1] == nil || st.shards[1].ranks[1].records != 1) {
			t.Fatalf("%s: rank 1 not filed in shard 1: %+v", tc.name, st)
		}
	}
}

// resealSlot walks data as a section log and repairs every seal it can reach
// — magic, crc, link — so the fuzzer's mutations land in section bodies
// instead of dying at the first checksum.
func resealSlot(data []byte) []byte {
	out := append([]byte(nil), data...)
	var link uint32
	for off := 0; len(out)-off >= sectionHeader+4; {
		n := int(binary.LittleEndian.Uint32(out[off+4:]))
		if n < 4 || n > len(out)-off-sectionHeader {
			break
		}
		payload := out[off+sectionHeader : off+sectionHeader+n]
		binary.LittleEndian.PutUint32(out[off:], snapMagic)
		binary.LittleEndian.PutUint32(payload, link)
		link = crc32.ChecksumIEEE(payload)
		binary.LittleEndian.PutUint32(out[off+8:], link)
		off += sectionHeader + n
	}
	return out
}

// FuzzSnapshotSlot hands the slot decoder — and then recovery — arbitrary
// slot bytes, raw and with their seals repaired, against an arbitrary WAL
// segment the slot's references point into. Whatever they claim: no panic,
// no allocation sized by an unchecked count, and what is accepted is a
// section prefix (decoding exactly that prefix again gives the same state).
// A slot the decoder accepts recovers into a live server.
func FuzzSnapshotSlot(f *testing.F) {
	// A small real slot and the segment it names (small, so the engine's
	// minimizer stays cheap): three sections, heartbeats, and out-of-order
	// frames that leave a flow with a populated ahead set.
	s := NewSharded(2)
	disk := storage.NewDisk(storage.Faults{})
	s.AttachDurability(DurabilityConfig{SnapshotEvery: -1, Disk: disk})
	for _, seq := range []uint64{5, 2, 9, 1} {
		_ = s.Receive(AppendFrame(nil, FrameHeader{Rank: 1, Seq: seq, CumRecords: seq}, []detect.SliceRecord{{Rank: 1, Count: 1, AvgNs: 1}}))
	}
	for seq := range 3 {
		_ = s.Receive(AppendHeartbeat(nil, seq, int64(seq)*1000, 500))
		_ = s.Checkpoint()
	}
	slot, _ := disk.ReadFile(snapSlots[0])
	seg, _ := disk.ReadFile("wal.0")
	f.Add(slot, seg)
	f.Add(slot[:len(slot)-9], seg) // torn tail
	f.Add(slot[len(slot)/2:], seg) // starts mid-log
	f.Add(slot, seg[:len(seg)-9])  // torn segment
	f.Add(slot, feed.Flip(seg, 8*len(seg)/3))
	f.Add(fullSection(s, 4, 7), seg)
	// Hostile counts behind a valid seal: shards, flows, ahead, records, and
	// a segment reference past any segment.
	hdr := testBody(u32(0), u64b(1), u64b(0), u64b(0), u64b(0), u64b(0), u64b(0))
	shard := bytes.Repeat([]byte{0}, 6*8)
	for _, body := range [][]byte{
		testBody(hdr, u32(1<<30)),
		testBody(hdr, u32(1), shard, u32(0xFFFFFFFF)),
		testBody(hdr, u32(1), shard, u32(1), []byte{1, 1, 1, 1, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}),
		testBody(hdr, u32(1), shard, u32(0), u32(0), u32(0), u32(1), []byte{1, 0xFF, 0xFF, 0xFF, 0x7F}),
		testBody(hdr, u32(1), shard, u32(0), u32(0), u32(0), u32(1), []byte{1, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}),
	} {
		f.Add(testBody(u32(snapMagic), u32(uint32(len(body))), u32(0), body), seg)
	}
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40), bytes.Repeat([]byte{0xFF}, 40))

	f.Fuzz(func(t *testing.T, data, seg []byte) {
		wal := func(gen uint64) []byte {
			if gen == 0 {
				return seg
			}
			return nil
		}
		for _, slot := range [][]byte{data, resealSlot(data)} {
			st, valid, err := decodeSlot(slot, wal)
			if valid < 0 || valid > len(slot) {
				t.Fatalf("accepted %d of %d bytes", valid, len(slot))
			}
			if err != nil {
				if st != nil {
					t.Fatal("a refused slot still returned state")
				}
				continue
			}
			again, validAgain, err := decodeSlot(slot[:valid], wal)
			if err != nil || validAgain != valid || !reflect.DeepEqual(st, again) {
				t.Fatalf("accepted prefix of %d bytes does not stand alone: %d bytes, err %v", valid, validAgain, err)
			}
			if st == nil {
				continue
			}
			disk := storage.NewDisk(storage.Faults{})
			rewriteFile(t, disk, snapSlots[0], slot)
			rewriteFile(t, disk, "wal.0", seg)
			s := NewSharded(len(st.shards))
			s.AttachDurability(DurabilityConfig{Disk: disk})
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}
			rs, err := s.Recover()
			if err != nil {
				t.Fatalf("Recover on an accepted slot: %v", err)
			}
			// The segment is replayed past the slot's LSN only when the slot
			// ends in generation 0; every replayed outcome is counted.
			if !rs.UsedSnapshot || rs.SnapshotLSN != st.lsn || rs.LSN != st.lsn+uint64(rs.OutcomesReplayed) ||
				(st.gen > 0 && rs.OutcomesReplayed != 0) {
				t.Fatalf("recovered to LSN %d, the slot's prefix ends at %d in generation %d: %+v", rs.LSN, st.lsn, st.gen, rs)
			}
			probe := AppendFrame(nil, FrameHeader{Rank: 2, Seq: 1 << 60, CumRecords: 1 << 60},
				[]detect.SliceRecord{{Sensor: 0, Rank: 2, Count: 1, AvgNs: 1}})
			if err := s.Receive(probe); err != nil {
				t.Fatalf("post-recovery ingest: %v", err)
			}
			_ = s.InterProcessOutliers(0.9)
			_ = s.Liveness()
			_ = s.Records()
		}
	})
}
