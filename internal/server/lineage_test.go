package server

import (
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
)

// ---------- spans through the ingest/WAL/epoch pipeline ----------

// stagesByTrace collects the distinct stages recorded for each trace ID.
func stagesByTrace(lin *obs.Lineage) map[uint64]map[obs.Stage]bool {
	spans, _ := lin.Snapshot(nil, 0)
	out := make(map[uint64]map[obs.Stage]bool)
	for _, sp := range spans {
		m := out[sp.Trace]
		if m == nil {
			m = make(map[obs.Stage]bool)
			out[sp.Trace] = m
		}
		m[sp.Stage] = true
	}
	return out
}

func TestLineageSpansThroughServer(t *testing.T) {
	const ranks, slices = 4, 6
	s := NewSharded(4)
	s.AttachDurability(DurabilityConfig{SnapshotEvery: 8})
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 1}) // trace everything
	s.SetObs(o)

	clients := make([]*Client, ranks)
	for r := range clients {
		clients[r] = s.NewClient(r, 1) // batch 1: one frame per record
	}
	for sl := 0; sl < slices; sl++ {
		for r, c := range clients {
			err := c.OnSlice(detect.SliceRecord{
				Sensor: 0, Rank: r, SliceNs: int64(sl) * 1_000_000,
				Count: 1, AvgNs: 100 + float64(r),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The query closes every epoch behind the watermark, emitting the
	// epoch_close + verdict spans that end each sampled journey.
	s.InterProcessOutliers(0.9)

	byTrace := stagesByTrace(lin)
	want := []obs.Stage{
		obs.StageIngest, obs.StageDedup, obs.StageWALAppend, obs.StageWALSync,
		obs.StageEpochClose, obs.StageVerdict,
	}
	full := 0
	for _, stages := range byTrace {
		n := 0
		for _, st := range want {
			if stages[st] {
				n++
			}
		}
		if n == len(want) {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no sampled record carries all of %v; journeys: %d traces", want, len(byTrace))
	}
	if got := lin.SampledFrames(); got != ranks*slices {
		t.Fatalf("SampledFrames = %d, want %d (every frame at SampleEvery=1)", got, ranks*slices)
	}

	// Snapshot spans: SnapshotEvery=8 with 24 ingested frames must have
	// checkpointed at least once, on a sampled frame's journey.
	anySnapshot := false
	for _, stages := range byTrace {
		if stages[obs.StageSnapshot] {
			anySnapshot = true
		}
	}
	if !anySnapshot {
		t.Fatal("no snapshot span recorded despite SnapshotEvery=8")
	}

	// The acceptance wiring: the exemplar on the server_ingest histogram
	// resolves back to one of the journeys in the flight recorder.
	top, ok := lin.StageHistogram(obs.StageIngest).TopExemplar()
	if !ok || top.Trace == 0 {
		t.Fatal("server_ingest histogram has no exemplar")
	}
	if byTrace[top.Trace] == nil || !byTrace[top.Trace][obs.StageIngest] {
		t.Fatalf("top exemplar trace %#x not resolvable in the flight recorder", top.Trace)
	}
}

func TestLineageDedupAndReopenSpans(t *testing.T) {
	s := NewSharded(2)
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 1})
	s.SetObs(o)

	mkFrame := func(rank int, seq uint64, sliceNs int64) []byte {
		recs := []detect.SliceRecord{{Sensor: 0, Rank: rank, SliceNs: sliceNs, Count: 1, AvgNs: 100}}
		return AppendFrame(nil, FrameHeader{Rank: rank, Seq: seq, CumRecords: seq}, recs)
	}
	// Three ranks cover slices 0 and 1 so slice 0 closes behind the
	// watermark.
	for r := 0; r < 3; r++ {
		for sl := int64(0); sl < 2; sl++ {
			if err := s.Receive(mkFrame(r, uint64(sl)+1, sl*1_000_000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.InterProcessOutliers(0.9)

	// Duplicate delivery: the retransmitted frame is absorbed, and its
	// journey gains a dedup span with arg=1.
	dupFrame := mkFrame(0, 1, 0)
	if err := s.Receive(dupFrame); err != nil {
		t.Fatal(err)
	}
	dupTrace := TraceOf(lin, dupFrame)
	spans, _ := lin.Snapshot(nil, 0)
	sawDup, sawReopen := false, false
	for _, sp := range spans {
		if sp.Stage == obs.StageDedup && sp.Trace == dupTrace && sp.Arg == 1 {
			sawDup = true
		}
		if sp.Stage == obs.StageEpochReopen {
			sawReopen = true
		}
	}
	if !sawDup {
		t.Fatalf("no dedup(arg=1) span for duplicate trace %#x", dupTrace)
	}
	if sawReopen {
		t.Fatal("reopen span before any late record")
	}

	// A late record for the already-closed slice 0 reopens its epoch; the
	// reopen span is attributed to the late record's own trace.
	late := mkFrame(3, 1, 0)
	if err := s.Receive(late); err != nil {
		t.Fatal(err)
	}
	spans, _ = lin.Snapshot(nil, 0)
	for _, sp := range spans {
		if sp.Stage == obs.StageEpochReopen && sp.Trace == TraceOf(lin, late) {
			sawReopen = true
		}
	}
	if !sawReopen {
		t.Fatalf("no epoch_reopen span for late trace %#x", TraceOf(lin, late))
	}
}

// TestLineageSampledSetShardInvariant pins the sampler's key property at the
// system level: which frames are sampled depends only on (seed, rank, seq),
// never on how the server is sharded.
func TestLineageSampledSetShardInvariant(t *testing.T) {
	const ranks, frames = 16, 32
	sampledSet := func(shards int) map[uint64]bool {
		s := NewSharded(shards)
		o := obs.New()
		lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 4, Seed: 99})
		s.SetObs(o)
		clients := make([]*Client, ranks)
		for r := range clients {
			clients[r] = s.NewClient(r, 1)
		}
		for seq := 0; seq < frames; seq++ {
			for r, c := range clients {
				err := c.OnSlice(detect.SliceRecord{
					Sensor: 0, Rank: r, SliceNs: int64(seq) * 1_000_000, Count: 1, AvgNs: 50,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		set := make(map[uint64]bool)
		spans, _ := lin.Snapshot(nil, 0)
		for _, sp := range spans {
			if sp.Stage == obs.StageIngest {
				set[sp.Trace] = true
			}
		}
		if len(set) == 0 {
			t.Fatalf("shards=%d sampled nothing", shards)
		}
		return set
	}

	base := sampledSet(1)
	for _, shards := range []int{4, 16} {
		got := sampledSet(shards)
		if len(got) != len(base) {
			t.Fatalf("shards=%d sampled %d traces, shards=1 sampled %d", shards, len(got), len(base))
		}
		for tr := range base {
			if !got[tr] {
				t.Fatalf("shards=%d missing trace %#x sampled at shards=1", shards, tr)
			}
		}
	}
}

// TestWALReplayIsSpanSilent pins two properties of crash recovery under
// lineage: sampled frames journaled to the WAL replay correctly, and replay
// records no spans — the flight recorder describes the process's history,
// not its reconstructed state.
func TestWALReplayIsSpanSilent(t *testing.T) {
	const ranks, frames = 3, 4
	s := NewSharded(2)
	s.AttachDurability(DurabilityConfig{})
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 1})
	s.SetObs(o)

	for seq := uint64(1); seq <= frames; seq++ {
		for r := 0; r < ranks; r++ {
			recs := []detect.SliceRecord{{
				Sensor: 0, Rank: r, SliceNs: int64(seq-1) * 1_000_000, Count: 1, AvgNs: 100 + float64(r),
			}}
			frame := AppendFrame(nil, FrameHeader{Rank: r, Seq: seq, CumRecords: seq}, recs)
			if err := s.Receive(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantRecords := len(s.Records())
	spansBefore := lin.Stats().Spans

	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Records()); got != wantRecords {
		t.Fatalf("recovered %d records, want %d", got, wantRecords)
	}
	if after := lin.Stats().Spans; after != spansBefore {
		t.Fatalf("WAL replay recorded %d spans (replay must be span-silent)", after-spansBefore)
	}

	// Post-recovery ingest resumes span recording, and a duplicate of a
	// replayed frame is still deduplicated.
	dup := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1},
		[]detect.SliceRecord{{Sensor: 0, Rank: 0, SliceNs: 0, Count: 1, AvgNs: 100}})
	if err := s.Receive(dup); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Records()); got != wantRecords {
		t.Fatalf("duplicate re-ingested after recovery: %d records, want %d", got, wantRecords)
	}
	if after := lin.Stats().Spans; after <= spansBefore {
		t.Fatal("post-recovery ingest recorded no spans")
	}
}

// TestClientNextTraceMatchesFlush pins the TraceSource contract: the trace
// NextTrace predicts before a flush is the trace the frame is sampled under.
func TestClientNextTraceMatchesFlush(t *testing.T) {
	s := NewSharded(1)
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 2, Seed: 5})
	s.SetObs(o)
	c := s.NewClient(7, 4)
	for seq := uint64(1); seq <= 20; seq++ {
		predicted := c.NextTrace()
		for i := 0; i < 4; i++ {
			if err := c.OnSlice(detect.SliceRecord{
				Sensor: i, Rank: 7, SliceNs: int64(seq), Count: 1, AvgNs: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if want := lin.TraceID(7, seq); predicted != want {
			t.Fatalf("seq %d: NextTrace = %#x, want %#x", seq, predicted, want)
		}
	}
	if lin.SampledFrames() == 0 {
		t.Fatal("no frames sampled at SampleEvery=2")
	}
}
