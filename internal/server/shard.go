package server

import (
	"sync"

	"vsensor/internal/detect"
)

// A shard owns the ingest state for a subset of ranks (rank & mask). Every
// mutable structure a Receive touches — the flow table (dedup + coverage),
// the record sub-log, the per-rank progress entries — lives inside one
// shard, behind one short-lived mutex, so concurrent Receives from ranks on
// different shards never contend. Cross-shard queries (Records, Coverage,
// Progress) visit shards one at a time; nothing ever holds two shard locks
// at once.
type shard struct {
	mu sync.Mutex

	// chunk is the open chunk of the shard's record log: fixed capacity,
	// filled by appending, never moved (see alloc). Only the open chunk is
	// held here; full chunks live on through the segments that point into
	// them.
	chunk []detect.SliceRecord

	// segments is the shard's sub-log: each ingested frame's records and
	// the global arrival ticket that linearizes it against other shards'
	// frames.
	segments []segment

	// flows is the per-sender delivery state (dedup window + coverage),
	// keyed by the frame header's rank field.
	flows map[int]*rankFlow

	// perRank is the incremental progress state for live dashboards.
	perRank map[int]*RankProgress

	// live is the per-rank lease state (liveness.go): newest heartbeat stamp
	// and the lease it carried, for ranks routed to this shard.
	live map[int]*rankLive

	// touched and sealed are the change marks a checkpoint consumes
	// (snapshot.go): the ranks whose flow, progress or liveness entry moved
	// since the last snapshot section, and how many segments the sections
	// already hold. touched is nil — and never written — without durability.
	touched map[int]struct{}
	sealed  int

	bytesReceived   int64
	messages        int64
	latestSliceNs   int64
	dupFrames       int64
	expectedRecords int64
	ingestedRecords int64
}

func newShard() *shard {
	return &shard{
		flows:   make(map[int]*rankFlow),
		perRank: make(map[int]*RankProgress),
		live:    make(map[int]*rankLive),
	}
}

// segment is one ingested frame's slot in a shard's sub-log: its records, a
// capacity-capped sub-slice of a chunk, and the global arrival number
// (1-based, assigned under the shard lock). Merging every shard's segments by
// ticket reproduces a single linearized log — identical to the order a single
// global lock would have produced. A committed segment's records are
// immutable, so a segment copied out under the lock is a read-only view.
type segment struct {
	ticket uint64
	recs   []detect.SliceRecord
}

// chunkRecords is the capacity of one record-log chunk: 56 KiB of records,
// sixteen frames of the default batch. Not a knob: large enough that chunk
// allocation is rare next to ingest, small enough that a shard which saw a
// single frame does not pin much memory.
const chunkRecords = 1024

// alloc reserves n records at the end of the shard's log and returns them
// for the caller to fill. A reservation that does not fit the rest of the
// open chunk starts a new chunk; one larger than a chunk gets a block of its
// own size and leaves the open chunk as it was. Nothing is ever copied or
// moved, so a segment handed to a reader or to the analyzer stays valid by
// construction. Caller holds sh.mu.
func (sh *shard) alloc(n int) []detect.SliceRecord {
	if n > chunkRecords {
		return make([]detect.SliceRecord, n)
	}
	if n > cap(sh.chunk)-len(sh.chunk) {
		sh.chunk = make([]detect.SliceRecord, 0, chunkRecords)
	}
	start := len(sh.chunk)
	sh.chunk = sh.chunk[:start+n]
	return sh.chunk[start : start+n : start+n]
}

// orderedSegments snapshots every shard's committed segments and returns
// them sorted by arrival ticket, truncated to the contiguous ticket prefix.
// The truncation closes the cross-shard race: a reader can observe ticket
// t+1 committed on one shard while ticket t is still being written on
// another; withholding everything from the first gap onward keeps the
// merged log strictly append-only across successive snapshots, which is
// what RecordsSince's cursor semantics require.
func (s *Server) orderedSegments() []segment {
	// Tickets are assigned only when a frame commits, so committed segments
	// carry the dense sequence 1..N and bucket placement by ticket rebuilds
	// the linearized log in one O(n) pass — no comparison sort, one sized
	// allocation. The counter read is a safe upper bound: a segment that
	// commits after it carries a higher ticket, lands past the contiguous
	// prefix this call may expose, and is picked up by the next call —
	// exactly the withholding the gap truncation below already performs for
	// commits that race the shard walk.
	bound := s.ticket.Load()
	if bound == 0 {
		return nil
	}
	segs := make([]segment, bound)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, sg := range sh.segments {
			if sg.ticket <= bound {
				segs[sg.ticket-1] = sg
			}
		}
		sh.mu.Unlock()
	}
	for i := range segs {
		if segs[i].ticket == 0 {
			return segs[:i]
		}
	}
	return segs
}

// shardFor routes a sender rank to its shard.
func (s *Server) shardFor(rank int) *shard {
	return s.shards[uint32(rank)&s.mask]
}
