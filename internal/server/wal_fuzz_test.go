package server

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/storage"
)

func u32(v uint32) []byte  { return binary.LittleEndian.AppendUint32(nil, v) }
func u64b(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func testBody(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// FuzzWALReplay hands recovery an arbitrary byte string as the only WAL
// segment on disk (no snapshot). Whatever the bytes claim, Recover must
// neither panic nor loop: it applies the longest valid prefix, reports a
// consistent LSN, and leaves a server that accepts fresh ingest.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a real segment produced by a live server, plus edge shapes.
	seedDisk := storage.NewDisk(storage.Faults{})
	seedSrv := NewSharded(2)
	seedSrv.AttachDurability(DurabilityConfig{SnapshotEvery: -1, Disk: seedDisk})
	for _, frame := range (feed.Trial{Seed: 99, Shape: feed.Shape{Ranks: 3, Sensors: 2, Slices: 2}}).Deliveries(wire) {
		_ = seedSrv.Receive(frame)
	}
	_ = seedSrv.Receive(AppendHeartbeat(nil, 1, 1_000, 500))
	if seg, err := seedDisk.ReadFile("wal.0"); err == nil {
		f.Add(seg)
		if len(seg) > 10 {
			f.Add(seg[:len(seg)-7]) // torn tail
		}
	}
	// A segment written with a commit group of four: dup and heartbeat runs
	// collapse into entries of count > 1 alongside frames.
	coalDisk := storage.NewDisk(storage.Faults{})
	coalSrv := NewSharded(2)
	coalSrv.AttachDurability(DurabilityConfig{SnapshotEvery: -1, Disk: coalDisk, FlushEvery: 4})
	for _, frame := range (feed.Trial{Seed: 100, Shape: feed.Shape{Ranks: 2, Sensors: 2, Slices: 2}}).Deliveries(wire) {
		_ = coalSrv.Receive(frame)
		_ = coalSrv.Receive(frame) // immediate redelivery: dup runs
	}
	for i := 0; i < 6; i++ {
		_ = coalSrv.Receive(AppendHeartbeat(nil, 1, int64(1_000+i), 500))
	}
	_ = coalSrv.Checkpoint() // close the open run and flush the group
	if seg, err := coalDisk.ReadFile("wal.0"); err == nil {
		f.Add(seg)
		if len(seg) > 10 {
			f.Add(seg[:len(seg)-7]) // torn tail inside a commit group
		}
	}
	// Hand-built counted entries: each kind at count 1 and at count 3, then
	// one entry of the retired kind 6, where replay must stop.
	var crafted []byte
	lsn := uint64(0)
	for _, c := range []struct {
		kind byte
		head []byte // the body before its count
	}{
		{walKindDup, u32(1)},
		{walKindChecksum, nil},
		{walKindReject, nil},
		{walKindHeartbeat, testBody(u32(1), u64b(1000), u64b(500))},
	} {
		for _, n := range []uint32{1, 3} {
			lsn += uint64(n)
			crafted = appendTestEntry(crafted, c.kind, lsn, testBody(c.head, u32(n)))
		}
	}
	crafted = appendTestEntry(crafted, 6, lsn+1, testBody(u32(1), u32(1)))
	if _, rs := recoverSegment(f, crafted); rs.LSN != lsn || rs.WALEntriesReplayed != 8 {
		f.Fatalf("crafted segment recovered to LSN %d over %d entries, want %d over 8 (kind 6 truncates)",
			rs.LSN, rs.WALEntriesReplayed, lsn)
	}
	f.Add(crafted)
	f.Add(appendTestEntry(nil, walKindDup, 1, testBody(u32(1), u32(2))))                             // span past LSN 1
	f.Add(appendTestEntry(nil, walKindHeartbeat, 8, testBody(u32(1), u64b(1), u64b(1), u32(1<<31)))) // hostile count
	f.Add(appendTestEntry(nil, walKindDup, 2, testBody(u32(1))))                                     // body too short for count
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, seg []byte) {
		s, rs := recoverSegment(t, seg)
		// LSNs count delivery outcomes: a coalesced entry advances the LSN
		// by its whole covered run, so entries replayed is a lower bound
		// and outcomes replayed is exact.
		if rs.LSN != uint64(rs.OutcomesReplayed) {
			t.Fatalf("LSN %d != %d outcomes replayed (no snapshot)", rs.LSN, rs.OutcomesReplayed)
		}
		if rs.OutcomesReplayed < int64(rs.WALEntriesReplayed) {
			t.Fatalf("outcomes %d < entries %d", rs.OutcomesReplayed, rs.WALEntriesReplayed)
		}
		if rs.TruncatedBytes < 0 || rs.TruncatedBytes > int64(len(seg)) {
			t.Fatalf("truncated %d bytes of a %d-byte segment", rs.TruncatedBytes, len(seg))
		}
		// The recovered server is live and consistent: records parse back,
		// fresh ingest and analysis work.
		recs := s.Records()
		if int64(len(recs)) != rs.RecordsRecovered {
			t.Fatalf("Records() holds %d, recovery claims %d", len(recs), rs.RecordsRecovered)
		}
		probe := AppendFrame(nil, FrameHeader{Rank: 2, Seq: 1 << 60, CumRecords: 1 << 60},
			[]detect.SliceRecord{{Sensor: 0, Rank: 2, Count: 1, AvgNs: 1}})
		if err := s.Receive(probe); err != nil {
			t.Fatalf("post-recovery ingest: %v", err)
		}
		_ = s.InterProcessOutliers(0.9)
		_ = s.Liveness()
	})
}

// recoverSegment recovers a fresh durable server whose disk holds seg as its
// only WAL segment (no snapshot).
func recoverSegment(tb testing.TB, seg []byte) (*Server, RecoveryStats) {
	tb.Helper()
	disk := storage.NewDisk(storage.Faults{})
	if err := disk.Append("wal.0", seg); err != nil {
		tb.Fatal(err)
	}
	if err := disk.Sync("wal.0"); err != nil {
		tb.Fatal(err)
	}
	s := NewSharded(4)
	s.AttachDurability(DurabilityConfig{Disk: disk})
	if err := s.Crash(); err != nil {
		tb.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		// Recovery may fail only on disk errors, never on log content; a
		// fault-free disk must always recover (to a possibly empty prefix).
		tb.Fatalf("Recover on hostile segment: %v", err)
	}
	return s, rs
}
