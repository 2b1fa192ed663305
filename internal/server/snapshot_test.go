package server

import (
	"sync"
	"sync/atomic"
	"testing"

	"vsensor/internal/detect"
)

// snapRecord derives every field of a record from (rank, i) so a torn read —
// a record whose fields come from two different writes, or a half-visible
// append — is detectable by pure arithmetic on the snapshot.
func snapRecord(rank, i int) detect.SliceRecord {
	return detect.SliceRecord{
		Sensor:  i % 7,
		Group:   rank % 3,
		Rank:    rank,
		SliceNs: int64(rank)*1_000_000 + int64(i),
		Count:   int32(i + 1),
		AvgNs:   float64(rank*1000 + i),
	}
}

func checkSnapRecord(t *testing.T, r detect.SliceRecord) {
	t.Helper()
	rank := r.Rank
	i := int(r.SliceNs - int64(rank)*1_000_000)
	want := snapRecord(rank, i)
	if r != want {
		t.Fatalf("torn read: got %+v, derived reference %+v", r, want)
	}
}

// TestRecordsSnapshotUnderIngest proves Records() and the report snapshot's
// RecordsWindow return consistent views while writers are actively
// ingesting: no torn records, the visible log is strictly append-only
// between polls, and the deltas collected via a cursor concatenate to
// exactly a prefix of the final log.
func TestRecordsSnapshotUnderIngest(t *testing.T) {
	const (
		writers       = 8
		framesPerRank = 200
		recordsPerF   = 3
	)
	s := NewSharded(4)

	var wg sync.WaitGroup
	var stop atomic.Bool
	for rank := 0; rank < writers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var seq, cum uint64
			for f := 0; f < framesPerRank; f++ {
				recs := make([]detect.SliceRecord, recordsPerF)
				for j := range recs {
					recs[j] = snapRecord(rank, f*recordsPerF+j)
				}
				seq++
				cum += uint64(len(recs))
				frame := AppendFrame(nil, FrameHeader{Rank: rank, Seq: seq, CumRecords: cum}, recs)
				if err := s.Receive(frame); err != nil {
					t.Errorf("rank %d frame %d: %v", rank, f, err)
					return
				}
			}
		}(rank)
	}

	// Reader 1: full snapshots. Each must be internally consistent and an
	// extension of the previous one (append-only view).
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		prevLen := 0
		for !stop.Load() {
			snap := s.Records()
			if len(snap) < prevLen {
				t.Errorf("snapshot shrank: %d -> %d", prevLen, len(snap))
				return
			}
			for _, r := range snap {
				checkSnapRecord(t, r)
			}
			prevLen = len(snap)
		}
	}()

	// Reader 2: cursor-based deltas, concatenated.
	var collected []detect.SliceRecord
	cursorDone := make(chan struct{})
	go func() {
		defer close(cursorDone)
		cursor := 0
		for !stop.Load() {
			delta, next, _, ok := s.Snapshot().RecordsWindow(cursor)
			if !ok {
				t.Errorf("cursor %d refused by a later snapshot", cursor)
				return
			}
			for _, r := range delta {
				checkSnapRecord(t, r)
			}
			collected = append(collected, delta...)
			cursor = next
		}
	}()

	wg.Wait()
	stop.Store(true)
	<-readerDone
	<-cursorDone

	final := s.Records()
	wantTotal := writers * framesPerRank * recordsPerF
	if len(final) != wantTotal {
		t.Fatalf("final log has %d records, want %d", len(final), wantTotal)
	}
	for _, r := range final {
		checkSnapRecord(t, r)
	}

	// Everything the cursor reader collected must be exactly a prefix of
	// the final log — same records, same order, nothing skipped or doubled.
	if len(collected) > len(final) {
		t.Fatalf("cursor reader collected %d records, final log only has %d", len(collected), len(final))
	}
	for i, r := range collected {
		if r != final[i] {
			t.Fatalf("cursor delta diverges from final log at %d:\n got %+v\nwant %+v", i, r, final[i])
		}
	}

	// Drain the remainder; the concatenation must now equal the whole log.
	delta, _, _, ok := s.Snapshot().RecordsWindow(len(collected))
	if !ok {
		t.Fatalf("cursor %d refused after ingest stopped", len(collected))
	}
	collected = append(collected, delta...)
	if len(collected) != len(final) {
		t.Fatalf("after drain, cursor reader has %d records, want %d", len(collected), len(final))
	}
}
