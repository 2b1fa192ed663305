package server

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/obs"
	"vsensor/internal/storage"
)

// TestGroupCommitFlushBoundary pins the strict-prefix contract at every
// byte offset inside a commit group: a crash that tears the segment mid
// group recovers exactly the complete entries before the tear — in
// particular, a tear at a group's first byte recovers exactly the previous
// group — and redelivering the schedule suffix from the recovered LSN
// reproduces the never-crashed state.
func TestGroupCommitFlushBoundary(t *testing.T) {
	// Frames interleaved with immediate redeliveries and pairs of same-rank
	// heartbeats — the chatter the encoder collapses inside a group — padded
	// with heartbeats to a multiple of window so the final group flushes.
	// Every delivery is one Receive call, one outcome.
	const window = 4
	tr := feed.Trial{Seed: 7, Shape: feed.Shape{Ranks: 2, Sensors: 2, Slices: 2}}
	for i := range tr.Frames() {
		if i%2 == 1 {
			tr.Events = append(tr.Events, feed.Event{Kind: feed.Dup, At: i})
		}
		for j := range int64(2) {
			tr.Events = append(tr.Events, feed.Event{Kind: feed.Heartbeat, At: i, Rank: i % 2, Arg: int64(i+1)*1_000 + j})
		}
	}
	schedule := tr.Deliveries(wire)
	for len(schedule)%window != 0 {
		schedule = append(schedule, AppendHeartbeat(nil, 0, int64(len(schedule))*1_000, feed.Lease))
	}

	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(2)
	s.AttachDurability(DurabilityConfig{Disk: disk, SnapshotEvery: -1, FlushEvery: window})
	for _, f := range schedule {
		_ = s.Receive(f)
	}
	if st := s.DurabilityStats(); st.StagedEntries != 0 || st.StagedBytes != 0 {
		t.Fatalf("aligned schedule left %d entries / %d bytes staged", st.StagedEntries, st.StagedBytes)
	}
	seg, err := disk.ReadFile("wal.0")
	if err != nil {
		t.Fatal(err)
	}

	// Walk the segment's entry boundaries. Each entry carries the LSN of
	// the last outcome it covers, so the boundary's LSN is the cumulative
	// outcome count of the complete prefix ending there.
	type boundary struct {
		off      int
		outcomes uint64
	}
	bounds := []boundary{{0, 0}}
	sawCoalesced := false
	for off := 0; off < len(seg); {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		payload := seg[off+walEntryHeader : off+walEntryHeader+n]
		e := walEntry{kind: payload[0], lsn: binary.LittleEndian.Uint64(payload[1:]), body: payload[9:]}
		if span, ok := e.outcomeSpan(); !ok {
			t.Fatalf("entry at %d has invalid span", off)
		} else if span > 1 {
			sawCoalesced = true
		}
		off += walEntryHeader + n
		bounds = append(bounds, boundary{off, e.lsn})
	}
	if !sawCoalesced {
		t.Fatal("schedule produced no coalesced entries; the boundary table would not cover them")
	}
	if last := bounds[len(bounds)-1]; last.outcomes != uint64(len(schedule)) {
		t.Fatalf("segment covers %d outcomes, schedule has %d", last.outcomes, len(schedule))
	}

	type tearCase struct {
		name string
		cut  int
		want uint64 // recovered LSN
	}
	var cases []tearCase
	for i := 1; i < len(bounds); i++ {
		prev, cur := bounds[i-1], bounds[i]
		cases = append(cases,
			tearCase{fmt.Sprintf("entry%d/complete", i), cur.off, cur.outcomes},
			tearCase{fmt.Sprintf("entry%d/first-byte", i), prev.off + 1, prev.outcomes},
			tearCase{fmt.Sprintf("entry%d/header-only", i), prev.off + walEntryHeader, prev.outcomes},
			tearCase{fmt.Sprintf("entry%d/mid-payload", i), prev.off + (cur.off-prev.off)/2, prev.outcomes},
		)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			torn := storage.NewDisk(storage.Faults{})
			if err := torn.Append("wal.0", seg[:tc.cut]); err != nil {
				t.Fatal(err)
			}
			if err := torn.Sync("wal.0"); err != nil {
				t.Fatal(err)
			}
			r := NewSharded(2)
			r.AttachDurability(DurabilityConfig{Disk: torn, FlushEvery: window})
			if err := r.Crash(); err != nil {
				t.Fatal(err)
			}
			rs, err := r.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rs.LSN != tc.want {
				t.Fatalf("recovered LSN %d, want %d (cut at byte %d)", rs.LSN, tc.want, tc.cut)
			}
			// Resume redelivery from the recovered LSN and compare with a
			// never-crashed server fed the full schedule.
			for _, f := range schedule[rs.LSN:] {
				_ = r.Receive(f)
			}
			ref := NewSharded(2)
			for _, f := range schedule {
				_ = ref.Receive(f)
			}
			if err := sameState(r, ref, 0.8); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A staged-but-unflushed commit group dies with the process: the crash
// loses the whole acked tail (LSN 0 with nothing flushed) and clients
// re-send it — the ack contract of FlushEvery > 1.
func TestGroupCommitStagedTailLostAtCrash(t *testing.T) {
	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{Disk: disk, SnapshotEvery: -1, FlushEvery: 1 << 10})
	tr := feed.Trial{Seed: 11, Shape: feed.Shape{Ranks: 3, Sensors: 2, Slices: 2}}
	frames := tr.Deliveries(wire)
	for _, f := range frames {
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	st := s.DurabilityStats()
	if st.StagedEntries != len(frames) || st.Syncs != 0 || st.GroupCommits != 0 {
		t.Fatalf("before crash: staged=%d syncs=%d groups=%d, want %d/0/0",
			st.StagedEntries, st.Syncs, st.GroupCommits, len(frames))
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LSN != 0 || len(s.Records()) != 0 {
		t.Fatalf("staged tail survived: LSN %d, %d records", rs.LSN, len(s.Records()))
	}
	// Redelivery restores everything.
	for _, f := range frames {
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	ref := NewSharded(1)
	deliverAll(ref, tr)
	if err := sameState(s, ref, 0.8); err != nil {
		t.Fatalf("after redelivery: %v", err)
	}
}

// Checkpoint must close the open coalesced run and flush the staged group
// before capturing the snapshot LSN, so a crash right after a checkpoint
// loses nothing and no run straddles the snapshot boundary.
func TestCheckpointFlushesOpenRun(t *testing.T) {
	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{Disk: disk, SnapshotEvery: -1, FlushEvery: 1 << 10})
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Receive(AppendHeartbeat(nil, 3, int64(i+1)*1_000, 5_000)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.DurabilityStats()
	if st.StagedEntries != 1 {
		t.Fatalf("a same-rank heartbeat run staged %d entries, want 1 open run", st.StagedEntries)
	}
	if st.CoalescedEntries != n-1 {
		t.Fatalf("coalesced %d outcomes, want %d", st.CoalescedEntries, n-1)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LSN != n {
		t.Fatalf("recovered LSN %d, want %d", rs.LSN, n)
	}
	if got := s.Heartbeats(); got != n {
		t.Fatalf("recovered %d heartbeats, want %d", got, n)
	}
	lv := s.Liveness()
	if len(lv) != 1 || lv[0].Rank != 3 || lv[0].LastSeenNs != n*1_000 {
		t.Fatalf("liveness after recovery = %+v, want rank 3 seen at %d ns", lv, n*1_000)
	}
}

// While the server is down (between Crash and Recover) a Client's flush is
// refused without touching dedup state, the sequence number rolls back, and
// the records stay buffered; the first flush after recovery packs every
// refused interval into one frame with a dense sequence number.
func TestClientPacksAcrossServerDowntime(t *testing.T) {
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{}), SnapshotEvery: -1})
	c := s.NewClient(2, 4)
	put := func(lo, hi int, down bool) {
		t.Helper()
		for i := lo; i < hi; i++ {
			err := c.OnSlice(detect.SliceRecord{Sensor: 1, Rank: 2, SliceNs: int64(i), Count: 1, AvgNs: 100})
			if down && err != nil && !errors.Is(err, ErrServerDown) {
				t.Fatalf("flush during downtime returned %v, want ErrServerDown", err)
			}
			if !down && err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 4, false) // batch full: flushed as frame seq 1
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	put(4, 8, true) // refused: seq rolls back, records stay buffered
	put(8, 12, true)
	if err := c.Flush(); !errors.Is(err, ErrServerDown) {
		t.Fatalf("flush against a down server returned %v, want ErrServerDown", err)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil { // one packed frame: seq 2, records 4..11
		t.Fatal(err)
	}
	if got := c.PackedFlushes(); got != 1 {
		t.Errorf("packed flushes = %d, want 1", got)
	}
	put(12, 14, false)
	if err := c.Flush(); err != nil { // ordinary frame: seq 3, records 12..13
		t.Fatal(err)
	}
	cov := s.Coverage()
	if cov.ExpectedFrames != 3 || cov.IngestedFrames != 3 {
		t.Errorf("frames expected=%d ingested=%d, want dense seq over 3 frames", cov.ExpectedFrames, cov.IngestedFrames)
	}
	if cov.IngestedRecords != 14 || cov.Fraction() != 1 {
		t.Errorf("coverage = %+v, want all 14 records", cov)
	}
	if got := len(s.Records()); got != 14 {
		t.Errorf("records = %d, want 14", got)
	}
}

// Group commit's observability contract: the wal_group_commits_total and
// wal_coalesced_entries_total counters track the encoder's stats, the
// wal_flush_bytes and wal_sync_wait_ns histograms see one observation per
// commit group, and a lineage-sampled frame leaves its trace as a
// wal_sync_wait_ns exemplar — the operator can follow one record into the
// sync stall it waited out.
func TestGroupCommitObsMetrics(t *testing.T) {
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{
		Disk: storage.NewDisk(storage.Faults{}), SnapshotEvery: -1,
		FlushEvery: 4,
	})
	o := obs.New()
	o.EnableLineage(obs.LineageConfig{SampleEvery: 1}) // trace everything
	s.SetObs(o)
	c := s.NewClient(0, 2)
	for i := 0; i < 8; i++ {
		if err := c.OnSlice(detect.SliceRecord{Sensor: 1, Rank: 0, SliceNs: int64(i), Count: 1, AvgNs: 100}); err != nil {
			t.Fatal(err)
		}
		if err := s.Receive(AppendHeartbeat(nil, 0, int64(i+1)*1_000, 5_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.DurabilityStats()
	if st.GroupCommits == 0 || st.CoalescedEntries == 0 {
		t.Fatalf("stats = %+v, want group commits and coalesced entries", st)
	}
	var sb strings.Builder
	if err := o.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("\nwal_group_commits_total %d\n", st.GroupCommits),
		fmt.Sprintf("\nwal_coalesced_entries_total %d\n", st.CoalescedEntries),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(want), sb.String())
		}
	}
	if got := o.Histogram("wal_flush_bytes").Count(); got != st.GroupCommits {
		t.Errorf("wal_flush_bytes observations = %d, want one per group commit (%d)", got, st.GroupCommits)
	}
	sw := o.Histogram("wal_sync_wait_ns")
	if got := sw.Count(); got != st.GroupCommits {
		t.Errorf("wal_sync_wait_ns observations = %d, want one per group commit (%d)", got, st.GroupCommits)
	}
	ex := sw.Exemplars()
	if len(ex) == 0 {
		t.Fatal("no wal_sync_wait_ns exemplars despite every frame being lineage-sampled")
	}
	for _, e := range ex {
		if e.Trace == 0 {
			t.Errorf("exemplar without a trace: %+v", e)
		}
	}
}

// Why runs coalesce inside a commit group: a heartbeat-heavy workload
// journals at least 5x fewer WAL bytes at FlushEvery 64 than with a group of
// one, because a run of same-rank heartbeats costs one count-delta entry.
func TestCoalescedWALBytesReduction(t *testing.T) {
	frames := feed.Trial{Seed: 21, Shape: feed.Shape{Ranks: 2, Sensors: 1, Slices: 2}}.Deliveries(wire)
	var schedule [][]byte
	for i, f := range frames {
		schedule = append(schedule, f)
		for j := 0; j < 32; j++ { // heartbeat-heavy steady state
			schedule = append(schedule, AppendHeartbeat(nil, 1, int64(i*32+j+1)*1_000, 5_000))
		}
	}

	run := func(cfg DurabilityConfig) DurabilityStats {
		s := NewSharded(1)
		cfg.Disk = storage.NewDisk(storage.Faults{})
		cfg.SnapshotEvery = -1
		s.AttachDurability(cfg)
		for _, f := range schedule {
			_ = s.Receive(f)
		}
		if err := s.Checkpoint(); err != nil { // flush the tail group
			t.Fatal(err)
		}
		return s.DurabilityStats()
	}

	one := run(DurabilityConfig{})
	coal := run(DurabilityConfig{FlushEvery: 64})
	if coal.WALBytes*5 > one.WALBytes {
		t.Fatalf("FlushEvery 64 wrote %d WAL bytes, a group of one %d: reduction below 5x", coal.WALBytes, one.WALBytes)
	}
	if coal.GroupCommits == 0 || coal.CoalescedEntries == 0 {
		t.Fatalf("stats = %+v, want group commits and coalesced outcomes", coal)
	}
	if one.CoalescedEntries != 0 {
		t.Fatalf("a group of one coalesced %d outcomes; no run can form there", one.CoalescedEntries)
	}
	if one.Syncs <= coal.Syncs {
		t.Fatalf("a group of one synced %d times, FlushEvery 64 %d: group commit did not amortize", one.Syncs, coal.Syncs)
	}
	if coal.FlushEvery != 64 || one.FlushEvery != 1 {
		t.Fatalf("effective config not surfaced: default %+v, FlushEvery 64 %+v", one, coal)
	}
}

// goldenSchedule is a fixed delivery schedule that produces every outcome
// kind a default journal can hold: ingested frames, a back-to-back
// duplicate, a checksum reject, a framing reject, and heartbeats.
func goldenSchedule() [][]byte {
	var schedule [][]byte
	for i := 0; i < 12; i++ {
		rank, seq := i%3, uint64(i/3+1)
		recs := []detect.SliceRecord{{
			Sensor: i % 2, Group: i % 2, Rank: rank, SliceNs: int64(seq) * 1_000_000,
			Count: int32(1 + i), AvgNs: 100 + 12.5*float64(i),
		}}
		f := AppendFrame(nil, FrameHeader{Rank: rank, Seq: seq, CumRecords: seq}, recs)
		schedule = append(schedule, f)
		switch i % 4 {
		case 1:
			schedule = append(schedule, f) // retransmit: a dup outcome
		case 2:
			bad := append([]byte(nil), f...)
			bad[len(bad)-1] ^= 0x40 // payload bit flip: a checksum reject
			schedule = append(schedule, bad)
		case 3:
			schedule = append(schedule, AppendHeartbeat(nil, rank, int64(i)*1_000_000, 5_000_000))
		}
	}
	return append(schedule, []byte("not a frame at all, by any magic")) // a framing reject
}

// The default commit is a group of one: every Receive is written and synced
// before it returns (ack implies durable), as one device append and one
// sync, and the journal bytes are pinned — one entry per outcome, each
// non-frame entry counted at 1 — so the WAL format cannot drift silently.
func TestDefaultCommitIsOneSyncPerOutcome(t *testing.T) {
	const goldenSHA256 = "0442c3a46fb93b0489d187f4510b59b8acc00123a563935d2dad23dd5e2ede56"
	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(2)
	s.AttachDurability(DurabilityConfig{Disk: disk})
	schedule := goldenSchedule()
	for i, f := range schedule {
		_ = s.Receive(f) // rejects error; that's their job
		st, ds := s.DurabilityStats(), disk.Stats()
		if st.StagedEntries != 0 || st.StagedBytes != 0 {
			t.Fatalf("outcome %d acked with %d entries / %d bytes still staged", i, st.StagedEntries, st.StagedBytes)
		}
		if n := int64(i + 1); st.LSN != uint64(n) || ds.Appends != n || ds.Syncs != n {
			t.Fatalf("after %d outcomes: lsn %d, %d appends, %d syncs; want one of each per outcome",
				n, st.LSN, ds.Appends, ds.Syncs)
		}
	}
	seg, err := disk.ReadFile("wal.0")
	if err != nil {
		t.Fatal(err)
	}
	entries, consumed, truncated := scanWAL(seg)
	if truncated || consumed != len(seg) || len(entries) != len(schedule) {
		t.Fatalf("segment scans to %d entries over %d/%d bytes (truncated=%v), want %d entries",
			len(entries), consumed, len(seg), truncated, len(schedule))
	}
	kinds := map[byte]int{}
	for _, e := range entries {
		if span, ok := e.outcomeSpan(); !ok || span != 1 {
			t.Fatalf("entry of kind %d covers %d outcomes (ok=%v), want 1", e.kind, span, ok)
		}
		kinds[e.kind]++
	}
	for _, k := range []byte{walKindFrame, walKindDup, walKindChecksum, walKindReject, walKindHeartbeat} {
		if kinds[k] == 0 {
			t.Errorf("schedule journaled no entry of kind %d: %v", k, kinds)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(seg)); got != goldenSHA256 {
		t.Fatalf("default journal (%d bytes, %d entries) hashes to %s, want %s", len(seg), len(entries), got, goldenSHA256)
	}
}

// The snapshot section bytes are pinned too: the golden schedule plus one
// checkpoint on a two-shard server writes the same section to both slots,
// whatever the in-memory layout of the per-rank state behind it.
func TestCheckpointSlotsArePinned(t *testing.T) {
	const goldenSHA256 = "79fd311a4fa8d1a881c59688a609145124479c9e400b37de10c71a7f3da82980"
	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(2)
	s.AttachDurability(DurabilityConfig{Disk: disk})
	for _, f := range goldenSchedule() {
		_ = s.Receive(f)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, slot := range snapSlots {
		data, err := disk.ReadFile(slot)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenSHA256 {
			t.Errorf("slot %s (%d bytes) hashes to %s, want %s", slot, len(data), got, goldenSHA256)
		}
	}
}
