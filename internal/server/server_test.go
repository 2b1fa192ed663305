package server

import (
	"encoding/binary"
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	recs := []detect.SliceRecord{
		{Sensor: 1, Group: 0, Rank: 5, SliceNs: 3_000_000, Count: 12, AvgNs: 1234.5, AvgInstr: 99.25},
		{Sensor: 2, Group: 3, Rank: 5, SliceNs: 0, Count: 1, AvgNs: 7, AvgInstr: 0},
	}
	in := FrameHeader{Rank: 5, Seq: 3, CumRecords: 17}
	enc := AppendFrame(nil, in, recs)
	h, got, err := decodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rank != 5 || h.Seq != 3 || h.CumRecords != 17 || h.Count != len(recs) {
		t.Fatalf("header = %+v", h)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, err := ParseFrame([]byte{1}); err == nil {
		t.Error("short header accepted")
	}
	enc := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1},
		[]detect.SliceRecord{{Sensor: 1}})
	if _, err := ParseFrame(enc[:len(enc)-2]); err == nil {
		t.Error("truncated frame accepted")
	}

	// Bad magic.
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := ParseFrame(bad); err == nil {
		t.Error("bad magic accepted")
	}

	// Bit corruption anywhere must be caught by the CRC.
	for _, bit := range []int{4 * 8, 9*8 + 3, 20 * 8, len(enc)*8 - 1} {
		_, err := ParseFrame(feed.Flip(enc, bit))
		if err == nil {
			t.Errorf("bit %d flip accepted", bit)
		}
	}

	// Zero sequence is reserved.
	zseq := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 0, CumRecords: 1},
		[]detect.SliceRecord{{Sensor: 1}})
	if _, err := ParseFrame(zseq); err == nil {
		t.Error("seq 0 accepted")
	}

	// cumRecords must cover the frame's own records.
	lowcum := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 0},
		[]detect.SliceRecord{{Sensor: 1}})
	if _, err := ParseFrame(lowcum); err == nil {
		t.Error("cumRecords < count accepted")
	}
}

// A hostile record count must be rejected before it can size an allocation,
// and the error must not be misclassified as corruption.
func TestParseFrameHostileCount(t *testing.T) {
	enc := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1},
		[]detect.SliceRecord{{Sensor: 1}})
	for _, n := range []uint32{MaxFrameRecords + 1, 1 << 31, 0xffffffff} {
		hostile := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(hostile[24:], n)
		_, err := ParseFrame(hostile)
		if err == nil {
			t.Fatalf("count %d accepted", n)
		}
		if errors.Is(err, ErrChecksum) {
			t.Errorf("count %d reported as checksum error: %v", n, err)
		}
	}
	// Same guard for the rank field (bounds the per-rank flow map).
	hostile := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(hostile[4:], MaxFrameRank+1)
	if _, err := ParseFrame(hostile); err == nil {
		t.Error("hostile rank accepted")
	}
}

// A frame is one sender's batch: a CRC-valid frame carrying a record of
// another rank is refused as a framing error before it touches any log, flow
// or progress entry, and is journaled as a reject.
func TestFrameRejectsForeignRecordRank(t *testing.T) {
	recs := []detect.SliceRecord{
		{Sensor: 1, Rank: 4, SliceNs: 1_000_000, Count: 1, AvgNs: 10},
		{Sensor: 1, Rank: 6, SliceNs: 1_000_000, Count: 1, AvgNs: 10},
	}
	foreign := AppendFrame(nil, FrameHeader{Rank: 4, Seq: 1, CumRecords: 2}, recs)
	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(2)
	s.AttachDurability(DurabilityConfig{Disk: disk})
	err := s.Receive(foreign)
	if err == nil || errors.Is(err, ErrChecksum) {
		t.Fatalf("foreign record: err = %v, want a framing reject", err)
	}
	if cov := s.Coverage(); cov.RejectedFrames != 1 || cov.ChecksumErrors != 0 || cov.ExpectedRecords != 0 || cov.ExpectedFrames != 0 {
		t.Fatalf("coverage = %+v, want one framing reject and no flow", cov)
	}
	if n := len(s.Records()); n != 0 {
		t.Fatalf("refused frame left %d records in the log", n)
	}
	if pr := s.PerRankProgress(); len(pr) != 0 {
		t.Fatalf("refused frame left progress %+v", pr)
	}
	for _, sh := range s.shards {
		if len(sh.ranks) != 0 {
			t.Fatalf("refused frame left rank entries %v", sh.ranks)
		}
	}
	seg, err := disk.ReadFile("wal.0")
	if err != nil {
		t.Fatal(err)
	}
	if entries, _, _ := scanWAL(seg); len(entries) != 1 || entries[0].kind != walKindReject {
		t.Fatalf("journal holds %d entries (%+v), want one reject", len(entries), entries)
	}

	// A 1,000-record frame naming 1,000 ranks cannot create 1,000 entries.
	many := make([]detect.SliceRecord, 1000)
	for i := range many {
		many[i] = detect.SliceRecord{Sensor: 2, Rank: i, SliceNs: 1_000_000, Count: 1, AvgNs: 10}
	}
	wide := New()
	_ = wide.Receive(AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1000}, many))
	entries := 0
	for _, sh := range wide.shards {
		entries += len(sh.ranks)
	}
	if entries > 1 || len(wide.PerRankProgress()) > 1 {
		t.Fatalf("a frame of 1,000 distinct record ranks left %d rank entries", entries)
	}
}

func TestClientBatching(t *testing.T) {
	s := New()
	c := s.NewClient(1, 10)
	for i := 0; i < 25; i++ {
		if err := c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 1, SliceNs: int64(i), Count: 1, AvgNs: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Progress().Messages; m != 2 {
		t.Errorf("messages before flush = %d, want 2 full batches", m)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	p := s.Progress()
	if p.Messages != 3 || c.RecordsSent() != 25 {
		t.Errorf("messages=%d sent=%d", p.Messages, c.RecordsSent())
	}
	if len(s.Records()) != 25 {
		t.Errorf("server records = %d", len(s.Records()))
	}
	if c.BytesSent() != p.Bytes {
		t.Errorf("byte accounting mismatch: %d vs %d", c.BytesSent(), p.Bytes)
	}
	cov := s.Coverage()
	if !cov.Complete() || cov.ExpectedRecords != 25 || cov.IngestedFrames != 3 {
		t.Errorf("coverage = %+v", cov)
	}
}

func TestBatchingReducesMessages(t *testing.T) {
	batched, unbatched := New(), New()
	cb := batched.NewClient(0, 64)
	cu := unbatched.NewClient(0, 1)
	for i := 0; i < 640; i++ {
		r := detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: int64(i), Count: 1, AvgNs: 1}
		cb.OnSlice(r)
		cu.OnSlice(r)
	}
	cb.Flush()
	cu.Flush()
	b, u := batched.Progress(), unbatched.Progress()
	if b.Messages >= u.Messages {
		t.Errorf("batching should reduce messages: %d vs %d", b.Messages, u.Messages)
	}
	// Payload bytes shrink too (fewer headers).
	if b.Bytes >= u.Bytes {
		t.Errorf("batching should reduce bytes: %d vs %d", b.Bytes, u.Bytes)
	}
}

// Retransmitted frames are acknowledged but ingested exactly once, in any
// arrival order.
func TestReceiveDedupAndReorder(t *testing.T) {
	var frames [][]byte
	var cum uint64
	for seq := uint64(1); seq <= 5; seq++ {
		recs := []detect.SliceRecord{
			{Sensor: int(seq), Rank: 2, SliceNs: int64(seq), Count: 1, AvgNs: 1},
		}
		cum += uint64(len(recs))
		frames = append(frames, AppendFrame(nil, FrameHeader{Rank: 2, Seq: seq, CumRecords: cum}, recs))
	}
	s := New()
	// Deliver out of order with duplicates: 2, 2, 4, 1, 4, 3, 5, 1.
	for _, i := range []int{1, 1, 3, 0, 3, 2, 4, 0} {
		if err := s.Receive(frames[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if got := len(s.Records()); got != 5 {
		t.Fatalf("records = %d, want 5", got)
	}
	cov := s.Coverage()
	if cov.DupFrames != 3 {
		t.Errorf("dup frames = %d, want 3", cov.DupFrames)
	}
	if !cov.Complete() || cov.ExpectedRecords != 5 || cov.IngestedFrames != 5 {
		t.Errorf("coverage = %+v", cov)
	}
}

// A missing frame shows up as incomplete coverage: the later frame's
// cumulative count reveals records the server never saw.
func TestCoverageGap(t *testing.T) {
	s := New()
	rec := []detect.SliceRecord{{Sensor: 1, Rank: 0, Count: 1, AvgNs: 1}}
	s.Receive(AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1}, rec))
	// Seq 2 (one record) is lost; seq 3 arrives claiming 3 cumulative.
	s.Receive(AppendFrame(nil, FrameHeader{Rank: 0, Seq: 3, CumRecords: 3}, rec))
	cov := s.Coverage()
	if cov.Complete() {
		t.Fatalf("gap not detected: %+v", cov)
	}
	if cov.ExpectedRecords != 3 || cov.IngestedRecords != 2 {
		t.Errorf("coverage = %+v", cov)
	}
	if f := cov.Fraction(); f < 0.66 || f > 0.67 {
		t.Errorf("fraction = %v", f)
	}
	rep := s.InterProcessReport(0.8)
	if rep.Confidence >= 1 {
		t.Errorf("confidence = %v on partial data", rep.Confidence)
	}
}

func TestReceiveChecksumReject(t *testing.T) {
	s := New()
	enc := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1},
		[]detect.SliceRecord{{Sensor: 1, AvgNs: 5}})
	if err := s.Receive(feed.Flip(enc, (FrameHeaderSize+2)*8+4)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if len(s.Records()) != 0 {
		t.Error("corrupted frame reached the log")
	}
	if cov := s.Coverage(); cov.ChecksumErrors != 1 {
		t.Errorf("coverage = %+v", cov)
	}
	// The intact original is still accepted afterwards.
	if err := s.Receive(enc); err != nil {
		t.Fatal(err)
	}
	if len(s.Records()) != 1 {
		t.Errorf("records = %d", len(s.Records()))
	}
}

// batchOutliers is the reference inter-process analysis: a single-threaded,
// post-hoc recompute over a full record log, structurally identical to the
// pre-sharding server (group by (sensor, group, slice), cross-rank median,
// threshold comparison, canonical sort). The differential conformance test
// (conformance_test.go) asserts the incremental sharded engine produces
// exactly this result for any ingest schedule.
func batchOutliers(recs []detect.SliceRecord, threshold float64) []Outlier {
	type key struct {
		sensor int
		group  int
		slice  int64
	}
	bySlice := make(map[key][]detect.SliceRecord)
	for _, r := range recs {
		k := key{r.Sensor, r.Group, r.SliceNs}
		bySlice[k] = append(bySlice[k], r)
	}
	var out []Outlier
	for k, group := range bySlice {
		if len(group) < 3 {
			continue
		}
		vals := make([]float64, len(group))
		for i, r := range group {
			vals[i] = r.AvgNs
		}
		sort.Float64s(vals)
		med := medianSorted(vals)
		if med <= 0 {
			continue
		}
		for _, r := range group {
			perf := med / r.AvgNs
			if perf < threshold {
				out = append(out, Outlier{Sensor: k.sensor, SliceNs: k.slice, Rank: r.Rank, Perf: perf})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SliceNs != out[j].SliceNs {
			return out[i].SliceNs < out[j].SliceNs
		}
		if out[i].Sensor != out[j].Sensor {
			return out[i].Sensor < out[j].Sensor
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Perf < out[j].Perf
	})
	return out
}

func TestInterProcessOutliers(t *testing.T) {
	s := New()
	// 8 ranks, same sensor & slice; rank 5 is 2x slower.
	for rank := 0; rank < 8; rank++ {
		avg := 100.0
		if rank == 5 {
			avg = 200
		}
		c := s.NewClient(rank, 0)
		c.OnSlice(detect.SliceRecord{Sensor: 3, Rank: rank, SliceNs: 1_000_000, Count: 10, AvgNs: avg})
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	outs := s.InterProcessOutliers(0.8)
	if len(outs) != 1 {
		t.Fatalf("outliers = %+v", outs)
	}
	o := outs[0]
	if o.Rank != 5 || o.Sensor != 3 || o.Perf > 0.51 || o.Perf < 0.49 {
		t.Errorf("outlier = %+v", o)
	}
}

func TestOutliersRequireQuorum(t *testing.T) {
	s := New()
	for rank, avg := range []float64{100, 500} {
		c := s.NewClient(rank, 0)
		c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: rank, SliceNs: 0, Count: 1, AvgNs: avg})
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if outs := s.InterProcessOutliers(0.8); len(outs) != 0 {
		t.Errorf("two ranks should not produce outliers: %+v", outs)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := New()
	done := make(chan struct{})
	for r := 0; r < 16; r++ {
		go func(rank int) {
			defer func() { done <- struct{}{} }()
			c := s.NewClient(rank, 7)
			for i := 0; i < 100; i++ {
				c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: rank, SliceNs: int64(i), Count: 1, AvgNs: 1})
			}
			c.Flush()
		}(r)
	}
	for r := 0; r < 16; r++ {
		<-done
	}
	if len(s.Records()) != 1600 {
		t.Errorf("records = %d", len(s.Records()))
	}
	cov := s.Coverage()
	if !cov.Complete() || cov.ExpectedRecords != 1600 {
		t.Errorf("coverage = %+v", cov)
	}
}

// Property: encode/decode is the identity for arbitrary record batches.
func TestQuickWireFormat(t *testing.T) {
	f := func(sensors []uint8, avg float64, slice int64, seq uint64) bool {
		recs := make([]detect.SliceRecord, len(sensors))
		for i, sn := range sensors {
			recs[i] = detect.SliceRecord{
				Sensor: int(sn), Group: i % 4, Rank: 3,
				SliceNs: slice, Count: int32(i + 1), AvgNs: avg, AvgInstr: avg / 2,
			}
		}
		if seq == 0 {
			seq = 1
		}
		in := FrameHeader{Rank: 3, Seq: seq, CumRecords: uint64(len(recs)) + seq}
		enc := AppendFrame(nil, in, recs)
		h, got, err := decodeFrame(enc)
		want := FrameHeader{Rank: 3, Seq: in.Seq, CumRecords: in.CumRecords, Count: len(recs)}
		if err != nil || len(got) != len(recs) || h != want {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
