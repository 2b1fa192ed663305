package server

import "sync"

// A shard owns the ingest state for a subset of ranks (rank & mask). Every
// mutable structure a Receive touches — the sender's rank entry (flow,
// progress, lease), the record sub-log and its epoch parts — lives inside
// one shard, behind one short-lived mutex, so concurrent Receives from
// ranks on different shards never contend. A frame carries only its
// sender's records (wire.go), so each rank's whole state is in exactly one
// shard. Cross-shard reads (the reader sweep in read.go, the epoch query)
// visit shards one at a time; nothing ever holds two shard locks at once.
type shard struct {
	mu  sync.Mutex
	idx int // index in Server.shards

	// chunk is the open chunk of the shard's record log: fixed capacity,
	// filled by appending wire records, never moved (see store). Only the
	// open chunk is held here; full chunks live on through the segments
	// that point into them.
	chunk []byte

	// segments is the shard's sub-log: each ingested frame's records and
	// the global arrival ticket that linearizes it against other shards'
	// frames.
	segments []segment

	// ranks holds one entry per rank routed to this shard.
	ranks map[int]*rankState

	// marks are the change marks a checkpoint consumes (snapshot.go); nil —
	// and never written — without durability.
	marks *shardMarks

	bytesReceived   int64
	messages        int64
	latestSliceNs   int64
	dupFrames       int64
	expectedRecords int64
	ingestedRecords int64

	// parts is the shard's share of the epoch accumulators (epoch.go),
	// carved from the arenas below by folds under mu.
	parts   partIndex
	entries arena[epochEntry]
	blocks  arena[block]
	spare   arena[part]
}

func newShard(idx int) *shard {
	return &shard{idx: idx, ranks: make(map[int]*rankState)}
}

// rankState is everything a shard knows about one sender rank: the delivery
// flow of its data frames (dedup window and coverage), its ingest progress,
// and its lease (liveness.go).
type rankState struct {
	// contig is the highest sequence with all of 1..contig ingested.
	contig uint64
	// ahead holds ingested sequences beyond contig+1 (only populated when
	// frames arrive out of order; nil on the reliable in-process path).
	ahead map[uint64]struct{}

	maxSeq uint64 // highest sequence observed; 0 until a data frame arrives
	maxCum uint64 // highest cumulative record count observed
	frames int64  // distinct frames ingested

	records       int64 // records ingested; the rank has reported once > 0
	latestSliceNs int64 // newest slice among them

	hbNs      int64 // newest heartbeat virtual time
	leaseNs   int64 // lease carried by that heartbeat (0 = no lease)
	heartbeat bool  // a heartbeat arrived

	slot int32 // 1 + the rank's index in a durable shard's slots; 0 before
}

// touch returns rank's entry in sh, creating and counting it on first sight,
// and on a durable shard marks it for the next snapshot section. Caller
// holds sh.mu.
func (s *Server) touch(sh *shard, rank int) *rankState {
	rs := sh.ranks[rank]
	if rs == nil {
		rs = &rankState{}
		sh.ranks[rank] = rs
		s.rankEntries.Add(1)
	}
	if sh.marks != nil {
		sh.marks.moved(rank, rs)
	}
	return rs
}

// seen reports whether seq was already ingested from this rank.
func (rs *rankState) seen(seq uint64) bool {
	if seq <= rs.contig {
		return true
	}
	if rs.ahead == nil {
		return false
	}
	_, ok := rs.ahead[seq]
	return ok
}

// markSeen records seq as ingested, advancing the contiguous high-water
// mark through any previously buffered out-of-order sequences. On the
// reliable in-order path this is a single increment and never allocates.
func (rs *rankState) markSeen(seq uint64) {
	if seq == rs.contig+1 {
		rs.contig++
		for rs.ahead != nil {
			if _, ok := rs.ahead[rs.contig+1]; !ok {
				break
			}
			rs.contig++
			delete(rs.ahead, rs.contig)
		}
		return
	}
	if rs.ahead == nil {
		rs.ahead = make(map[uint64]struct{})
	}
	rs.ahead[seq] = struct{}{}
}

// segment is one ingested frame's slot in a shard's sub-log: its records in
// the wire layout (wire.go), a capacity-capped sub-slice of a chunk, and the
// global arrival number (1-based, assigned under the shard lock). Merging
// every shard's segments by ticket reproduces a single linearized log —
// identical to the order a single global lock would have produced. A
// committed segment's records are immutable, so a segment copied out under
// the lock is a read-only view.
type segment struct {
	ticket uint64
	recs   []byte
}

// chunkRecords is the capacity of one record-log chunk in wire records:
// 40 KiB, sixteen frames of the default batch. Not a knob: large enough
// that chunk allocation is rare next to ingest, small enough that a shard
// which saw a single frame does not pin much memory.
const chunkRecords = 1024

// store copies raw, a run of whole wire records, to the end of the shard's
// log and returns the copy. A run that does not fit the rest of the open
// chunk starts a new chunk; one larger than a chunk gets a block of its own
// size and leaves the open chunk as it was. Nothing is ever copied again or
// moved, so a segment handed to a reader or to the analyzer stays valid by
// construction. Caller holds sh.mu.
func (sh *shard) store(raw []byte) []byte {
	n := len(raw)
	if n > chunkRecords*recordWireSize {
		return append(make([]byte, 0, n), raw...)
	}
	if n > cap(sh.chunk)-len(sh.chunk) {
		sh.chunk = make([]byte, 0, chunkRecords*recordWireSize)
	}
	start := len(sh.chunk)
	sh.chunk = append(sh.chunk, raw...)
	return sh.chunk[start : start+n : start+n]
}

// shardFor routes a sender rank to its shard.
func (s *Server) shardFor(rank int) *shard {
	return s.shards[uint32(rank)&s.mask]
}
