package server

import (
	"runtime"
	"testing"

	"vsensor/internal/detect"
)

// TestFlushSteadyStateAllocs pins the client transfer path's allocation
// behaviour: once the wire buffer, the sender's rank entry, and
// the epoch accumulators are warm, shipping a batch allocates nothing except
// a new log chunk every chunkRecords records (the segment index and the
// epochs' entry slices grow amortized; they are pre-sized here).
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
	// epoch map entries) with one round, then pre-size the epochs' entries.
	sh := s.shardFor(3)
	sh.segments = make([]segment, 0, 1<<10)
	for _, r := range batch {
		c.OnSlice(r)
	}
	for si := range s.an.stripes {
		st := &s.an.stripes[si]
		for k, ep := range st.epochs {
			grown := make([]epochEntry, len(ep.entries), 1<<10)
			copy(grown, ep.entries)
			ep.entries = grown
			st.epochs[k] = ep
		}
	}

	// Four chunks' worth of batches: the warm round left the first chunk
	// open, so exactly four more are cut.
	const rounds = 4 * chunkRecords / batchSize
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
