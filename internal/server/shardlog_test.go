package server

import (
	"reflect"
	"slices"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/storage"
)

// TestShardLogChunkBoundary drives one shard's log across chunk boundaries
// with frames one short of a chunk, one past it, exactly a chunk, and small
// ones in between. It pins the allocation rule (a frame that does not fit
// the open chunk starts a new one; a frame larger than a chunk gets its own
// block and leaves the open chunk alone), that no segment's records move or
// change once later chunks exist, that Records, the report snapshot's
// RecordsWindow and Progress read exactly what was sent, and that a checkpoint taken mid-boundary
// followed by Crash and Recover rebuilds the never-crashed state.
func TestShardLogChunkBoundary(t *testing.T) {
	sizes := []int{
		chunkRecords - 1, chunkRecords + 1, 1, // fill the open chunk exactly, around an own block
		chunkRecords, 3, chunkRecords - 1, // a full chunk, then one that does not fit behind 3
		2, 64, chunkRecords + 1, 5, chunkRecords - 2, 7,
	}
	const checkpointAfter = 5 // the snapshot holds frames 0..4, the WAL the rest

	disk := storage.NewDisk(storage.Faults{})
	live := NewSharded(1)
	live.AttachDurability(DurabilityConfig{SnapshotEvery: -1, Disk: disk})
	ref := NewSharded(1) // never crashes
	sh := live.shards[0]

	var sent []detect.SliceRecord
	var sentWire []byte // the frames' payloads, concatenated
	var held [][]byte   // each frame's segment records, as the log handed them out
	open := 0           // modelled fill of the open chunk, in records
	seqs := map[int]uint64{}
	for i, n := range sizes {
		rank := i % 2
		seqs[rank]++
		recs := make([]detect.SliceRecord, n)
		for j := range recs {
			recs[j] = detect.SliceRecord{
				Sensor: i, Rank: rank, SliceNs: int64(j%4) * 1_000_000,
				Count: 1, AvgNs: float64(1000*i + j), AvgInstr: float64(j),
			}
		}
		sent = append(sent, recs...)
		frame := AppendFrame(nil, FrameHeader{Rank: rank, Seq: seqs[rank], CumRecords: uint64(len(sent))}, recs)
		sentWire = append(sentWire, frame[FrameHeaderSize:]...)
		for _, s := range []*Server{live, ref} {
			if err := s.Receive(frame); err != nil {
				t.Fatalf("frame %d (%d records): %v", i, n, err)
			}
		}

		switch {
		case n > chunkRecords:
		case n > chunkRecords-open:
			open = n
		default:
			open += n
		}
		sh.mu.Lock()
		seg := sh.segments[len(sh.segments)-1]
		chunkLen, chunkCap := len(sh.chunk), cap(sh.chunk)
		sh.mu.Unlock()
		if chunkLen != open*recordWireSize || chunkCap != chunkRecords*recordWireSize {
			t.Fatalf("frame %d (%d records): open chunk %d/%d bytes, want %d/%d", i, n, chunkLen, chunkCap, open*recordWireSize, chunkRecords*recordWireSize)
		}
		if size := n * recordWireSize; len(seg.recs) != size || cap(seg.recs) != size {
			t.Fatalf("frame %d: segment len %d cap %d, want %d and %d (capped, so it cannot grow into a neighbour)", i, len(seg.recs), cap(seg.recs), size, size)
		}
		held = append(held, seg.recs)

		if got := live.Records(); !slices.Equal(got, sent) {
			t.Fatalf("after frame %d: Records() holds %d records, sent %d (or contents differ)", i, len(got), len(sent))
		}
		if delta, cursor, _, ok := live.Snapshot().RecordsWindow(len(sent) - n); !ok || !slices.Equal(delta, recs) || cursor != len(sent) {
			t.Fatalf("after frame %d: RecordsWindow returned %d records and cursor %d (ok %v), want %d and %d", i, len(delta), cursor, ok, n, len(sent))
		}
		if p := live.Progress(); p.Records != len(sent) {
			t.Fatalf("after frame %d: Progress().Records = %d, want %d", i, p.Records, len(sent))
		}
		if i+1 == checkpointAfter {
			if err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every segment handed out still holds its frame's records, although
	// later frames allocated chunks (and own blocks) after it.
	off := 0
	for i, recs := range held {
		if !slices.Equal(recs, sentWire[off:off+len(recs)]) {
			t.Fatalf("segment %d changed after later chunks were allocated", i)
		}
		off += len(recs)
	}

	if err := live.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := live.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rs.UsedSnapshot || rs.FramesReplayed != len(sizes)-checkpointAfter || rs.RecordsRecovered != int64(len(sent)) {
		t.Fatalf("recovery %+v: want the snapshot, %d replayed frames and %d records", rs, len(sizes)-checkpointAfter, len(sent))
	}
	if got := live.Records(); !slices.Equal(got, sent) {
		t.Fatalf("recovered Records() holds %d records, sent %d (or contents differ)", len(got), len(sent))
	}
	if got, want := live.Progress(), ref.Progress(); got != want {
		t.Fatalf("recovered Progress %+v, never-crashed %+v", got, want)
	}
	if got, want := live.Coverage(), ref.Coverage(); got != want {
		t.Fatalf("recovered Coverage %+v, never-crashed %+v", got, want)
	}
	if got, want := live.InterProcessOutliers(0.9), ref.InterProcessOutliers(0.9); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered outliers %v, never-crashed %v", got, want)
	}
	a, b := live.shards[0], ref.shards[0]
	if !reflect.DeepEqual(a.segments, b.segments) || !slices.Equal(a.chunk, b.chunk) || cap(a.chunk) != cap(b.chunk) {
		t.Fatal("recovered shard log differs from the never-crashed one in its segments or open chunk")
	}
}
