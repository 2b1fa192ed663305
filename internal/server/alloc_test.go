package server

import (
	"runtime"
	"testing"

	"vsensor/internal/detect"
)

// TestFlushSteadyStateAllocs pins the client transfer path's allocation
// behaviour: once the wire buffer, the sender's rank entry, and
// the epoch parts are warm, shipping a batch allocates nothing except
// a new log chunk every chunkRecords records (the segment index and the
// shard's epoch arenas grow amortized; they are pre-sized here).
func TestFlushSteadyStateAllocs(t *testing.T) {
	const batchSize = 8
	s := New()
	c := s.NewClient(3, batchSize)
	batch := make([]detect.SliceRecord, batchSize)
	for i := range batch {
		batch[i] = detect.SliceRecord{
			Sensor: i, Group: i % 2, Rank: 3,
			SliceNs: int64(i) * 1000, Count: 4,
			AvgNs: 12.5, AvgInstr: 99,
		}
	}
	// Pre-size the segment index and warm the client's buffers (and the
	// epoch parts) with one round, then pre-size the shard's column and
	// block arenas.
	sh := s.shardFor(3)
	sh.segments = make([]segment, 0, 1<<10)
	for _, r := range batch {
		c.OnSlice(r)
	}
	sh.cols.groups.free = make([]colGroup, 1<<13/blockLen)
	sh.blocks.free = make([]block, 1<<7)

	// Four chunks' worth of batches: the warm round left the first chunk
	// open, so exactly four more are cut.
	const rounds = 4 * chunkRecords / batchSize
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Finish a collection first, so that no cycle the runtime starts on its
	// own, with what it allocates, falls inside the count.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < rounds; i++ {
		for _, r := range batch {
			c.OnSlice(r)
		}
	}
	runtime.ReadMemStats(&ms)
	if got, want := ms.Mallocs-before, uint64(rounds*batchSize/chunkRecords); got != want {
		t.Errorf("%d batches allocated %d objects, want %d (one per chunk)", rounds, got, want)
	}
}
