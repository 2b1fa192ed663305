package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vsensor/internal/storage"
)

// Crash recovery. Crash() models losing the server process: the backing
// disk crashes (dropping or tearing unsynced tails, possibly rotting a
// durable bit) and every in-memory structure is wiped. Recover() rebuilds
// the server purely from what survived on disk: the longest valid prefix of
// snapshot sections, each segment's records read from the WAL entry the
// section names, plus a replay of every WAL entry past the prefix's LSN.
//
// The recovery invariant is *strict prefix*: the rebuilt state equals the
// state the server held after some prefix of its acknowledged ingest
// history. Replay stops at the first entry that fails validation — a torn
// tail, a rotten bit, an LSN gap left by a lying fsync — and discards
// everything after it, even segments that are themselves intact, because
// an entry beyond a gap reflects state transitions whose predecessors were
// lost. A section naming a frame entry that fails its checks ends the
// section prefix before it, so rot in a segment only a section still reads
// rewinds recovery to the section before, whose replay stops at the same
// rotten entry. Clients learn the surviving prefix from the recovered LSN
// and re-send from there; the kill-and-recover conformance test pins that
// the result is byte-equal to a server that never crashed.
//
// Replay scans only the segments at or after the base section's generation.
// A truncated recovery leaves a stale suffix behind its stop point whose
// LSNs are reassigned to different outcomes when clients re-send; the seal
// rotates to a fresh generation, so that suffix is never replayed again
// (found by the conformance harness, seed 66). The pre-seal segments stay
// only while the seal names an entry in them.

// ErrServerDown is returned by Receive between Crash and Recover.
var ErrServerDown = errors.New("server: down (crashed; awaiting recovery)")

// RecoveryStats describes one Recover() run.
type RecoveryStats struct {
	// UsedSnapshot is false on a cold start (no valid snapshot found).
	UsedSnapshot bool
	// SnapshotFallback is true when a snapshot slot existed but did not
	// validate to its end (or at all) and recovery proceeded from the other
	// slot, a shorter section prefix or a cold start — the bit-rot /
	// lying-fsync path.
	SnapshotFallback bool
	SnapshotGen      uint64
	SnapshotLSN      uint64

	// LSN is the last log sequence number reflected in the recovered state;
	// clients resume re-sending after it. LSNs count delivery outcomes, so
	// with no snapshot LSN == OutcomesReplayed even when coalesced entries
	// cover many outcomes each.
	LSN uint64

	SegmentsScanned    int
	WALEntriesReplayed int
	OutcomesReplayed   int64 // delivery outcomes the replayed entries cover
	FramesReplayed     int   // walKindFrame entries re-ingested
	RecordsRecovered   int64 // records in the rebuilt log (snapshot + replay)
	TruncatedBytes     int64 // WAL bytes discarded at the truncation point
}

// Crash simulates losing the machine: the disk crashes and all in-memory
// state is dropped. The server refuses ingest (ErrServerDown) until
// Recover. Only meaningful with durability attached — a crash without a
// disk would simply be data loss.
func (s *Server) Crash() error {
	d := s.dur
	if d == nil {
		return errors.New("server: Crash without durability attached")
	}
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	s.down.Store(true)
	d.disk.Crash()
	// The analyzer is reset in place (racing queries hold it), key table
	// first, so no query reaches the parts the shard wipe drops.
	s.an.reset()
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.chunk = nil
		sh.segments = nil
		sh.ranks = make(map[int]*rankState)
		*sh.marks = shardMarks{}
		sh.bytesReceived = 0
		sh.messages = 0
		sh.latestSliceNs = 0
		sh.dupFrames = 0
		sh.expectedRecords = 0
		sh.ingestedRecords = 0
		sh.parts = partIndex{}
		sh.cols, sh.blocks, sh.spare = colArena{}, arena[block]{}, arena[part]{}
		sh.mu.Unlock()
	}
	s.ticket.Store(0)
	s.rankEntries.Store(0)
	s.checksumErrors.Store(0)
	s.rejectedFrames.Store(0)
	s.heartbeats.Store(0)
	d.mu.Lock()
	d.frames = 0
	d.snapDue = false
	d.refs = nil
	// Staged-but-unflushed group-commit entries die with the process: they
	// were acked under the relaxed contract and clients will re-send them.
	d.enc.reset()
	d.mu.Unlock()
	s.bumpReadVersion()
	return nil
}

// Down reports whether the server is between Crash and Recover.
func (s *Server) Down() bool { return s.down.Load() }

// walGen extracts the generation from a "wal.<gen>" segment name.
func walGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal.") {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len("wal."):], 10, 64)
	return g, err == nil
}

// Recover rebuilds the server from the disk: the longest valid snapshot
// prefix, then WAL replay of entries past its LSN under the strict-prefix
// policy. It finishes by sealing the recovered state as a full snapshot in
// fresh slots and a fresh WAL segment, so post-recovery appends never land
// behind a torn tail.
func (s *Server) Recover() (RecoveryStats, error) {
	d := s.dur
	if d == nil {
		return RecoveryStats{}, errors.New("server: Recover without durability attached")
	}
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	if !s.down.Load() {
		return RecoveryStats{}, errors.New("server: Recover on a server that has not crashed")
	}

	var rs RecoveryStats
	wal := segmentCache(d.disk)
	st := loadSnapshot(d, wal, &rs)
	// refs[i][j] is where shard i's segment j lies in the WAL.
	refs := make([][]walRef, len(s.shards))
	nextLSN := uint64(1)
	maxGen, baseGen := uint64(0), uint64(0)
	if st != nil {
		if len(st.shards) != len(s.shards) {
			return rs, fmt.Errorf("server: snapshot holds %d shards, server has %d", len(st.shards), len(s.shards))
		}
		s.installSnapshot(st)
		copy(refs, st.refs)
		rs.UsedSnapshot = true
		rs.SnapshotGen = st.gen
		rs.SnapshotLSN = st.lsn
		nextLSN = st.lsn + 1
		maxGen, baseGen = st.gen, st.gen
	}

	// Replay the segments from the base section's generation on, in
	// generation order. maxGen covers every surviving segment — even ones
	// replay skips or discards — so the post-recovery generation never
	// collides with stale files.
	var gens []uint64
	for _, name := range d.disk.List() {
		if g, ok := walGen(name); ok {
			gens = append(gens, g)
			if g > maxGen {
				maxGen = g
			}
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	stopped := false
	for _, g := range gens {
		if stopped {
			break // strict prefix: segments past a truncation are discarded
		}
		if g < baseGen {
			continue // read only at the entries a section names
		}
		data := wal(g)
		rs.SegmentsScanned++
		entries, consumed, truncated := scanWAL(data)
		for _, e := range entries {
			span, ok := e.outcomeSpan()
			if !ok {
				// An unknown kind, or a counted entry with a hostile or
				// truncated count field, is corruption; truncate here.
				stopped = true
				break
			}
			if e.lsn < nextLSN {
				continue // the snapshot already reflects this entry
			}
			if e.lsn-nextLSN != span-1 {
				// The entry must cover exactly the outcomes [nextLSN,
				// nextLSN+span-1]. Covering later ones is an LSN gap — an
				// earlier segment's tail was acknowledged but lost (lying
				// fsync). Covering earlier ones means a coalesced run
				// straddles the snapshot boundary, which a correct
				// checkpoint never produces (it closes runs first). Either
				// way, everything from here on is beyond the recoverable
				// prefix.
				stopped = true
				break
			}
			if !s.applyWALEntry(e, int64(span), &rs, walRef{gen: g, off: uint64(e.off)}, refs) {
				stopped = true
				break
			}
			nextLSN = e.lsn + 1
			rs.WALEntriesReplayed++
			rs.OutcomesReplayed += int64(span)
		}
		if truncated {
			rs.TruncatedBytes += int64(len(data) - consumed)
			stopped = true
		}
	}

	// Lost frames can leave permanent gaps in the global arrival-ticket
	// sequence, which a read's log would be cut at forever; renumber
	// the surviving segments contiguously (preserving their order).
	byTicket := s.compactTickets(refs)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, sg := range sh.segments {
			rs.RecordsRecovered += int64(sg.records())
		}
		sh.mu.Unlock()
	}
	rs.LSN = nextLSN - 1

	d.mu.Lock()
	d.gen = maxGen
	d.lsn = rs.LSN
	d.refs = byTicket
	d.frames = 0
	d.snapDue = false
	d.recoveries.Add(1)
	d.lastRec = rs
	d.mu.Unlock()
	d.obsTruncated.Add(rs.TruncatedBytes)
	d.obsReplayed.Add(int64(rs.FramesReplayed))

	// Seal recovery with a checkpoint: the recovered state, taken from
	// nothing, replaces both snapshot slots and the WAL rotates to a clean
	// segment.
	if err := s.checkpointLocked(true); err != nil {
		return rs, err
	}
	// The seal names every surviving segment's frame entry; a pre-seal
	// segment it names nothing in — chatter only, or only a stale suffix —
	// is never read again.
	named := make(map[uint64]bool)
	for _, r := range byTicket {
		named[r.gen] = true
	}
	for _, g := range gens {
		if !named[g] {
			if err := d.disk.Remove(walSegmentName(g)); err != nil {
				return rs, err
			}
		}
	}
	s.down.Store(false)
	s.bumpReadVersion()
	return rs, nil
}

// segmentCache reads each WAL segment from disk at most once: sections name
// many entries of one segment, and replay scans it whole.
func segmentCache(disk *storage.Disk) segmentSource {
	segs := make(map[uint64][]byte)
	return func(gen uint64) []byte {
		data, ok := segs[gen]
		if !ok {
			data, _ = disk.ReadFile(walSegmentName(gen)) // nil when absent
			segs[gen] = data
		}
		return data
	}
}

// loadSnapshot folds both snapshot slots against the WAL and returns the
// state of the one whose valid section prefix reaches furthest, or nil when
// neither holds a valid section (cold start). The slots mirror one section
// log, so the higher generation is the longer prefix.
func loadSnapshot(d *durability, wal segmentSource, rs *RecoveryStats) *snapState {
	var best *snapState
	for _, name := range snapSlots {
		data, err := d.disk.ReadFile(name)
		if err != nil {
			continue // slot never written
		}
		st, valid, derr := decodeSlot(data, wal)
		if derr != nil || st == nil || valid < len(data) {
			rs.SnapshotFallback = true // rotten, torn, half-persisted, or naming a lost entry
		}
		if st != nil && (best == nil || st.gen > best.gen) {
			best = st
		}
	}
	return best
}

// installSnapshot replaces the (wiped) in-memory state with the decoded
// snapshot and refolds its records into the reset analyzer.
func (s *Server) installSnapshot(st *snapState) {
	for i, sh := range s.shards {
		src := st.shards[i]
		sh.mu.Lock()
		sh.chunk = src.chunk
		sh.segments = src.segments
		sh.ranks = src.ranks
		s.rankEntries.Add(int64(len(sh.ranks)))
		sh.bytesReceived = src.bytesReceived
		sh.messages = src.messages
		sh.latestSliceNs = src.latestSliceNs
		sh.dupFrames = src.dupFrames
		sh.expectedRecords = src.expectedRecords
		sh.ingestedRecords = src.ingestedRecords
		for _, sg := range sh.segments {
			s.an.fold(sh, sg.recs, 0, false)
		}
		sh.mu.Unlock()
	}
	s.ticket.Store(st.ticket)
	s.checksumErrors.Store(st.checksumErrors)
	s.rejectedFrames.Store(st.rejectedFrames)
	s.heartbeats.Store(st.heartbeats)
}

// applyWALEntry replays one log entry covering n outcomes (its checked
// outcomeSpan, which also vouches for a counted kind's body length) onto the
// recovered state; a frame's new segment is recorded in refs as lying at at.
// A false return means the entry's body is invalid — recovery treats it like
// a truncation and stops. Replay journals nothing and records no lineage
// spans.
func (s *Server) applyWALEntry(e walEntry, n int64, rs *RecoveryStats, at walRef, refs [][]walRef) bool {
	switch e.kind {
	case walKindFrame:
		if len(e.body) < 8+FrameHeaderSize {
			return false
		}
		ticket := binary.LittleEndian.Uint64(e.body)
		if ticket == 0 {
			return false // tickets start at 1; ingestFrame reads 0 as live
		}
		frame := e.body[8:]
		h, err := ParseFrame(frame)
		if err != nil {
			return false
		}
		// A frame entry was only logged for a non-duplicate ingest; seeing a
		// duplicate here means the log contradicts itself.
		if dup, _ := s.ingestFrame(h, frame, ticket); dup {
			return false
		}
		i := s.shardFor(h.Rank).idx
		refs[i] = append(refs[i], at)
		rs.FramesReplayed++
		return true
	case walKindDup:
		// A duplicate frame never advances dedup state (seen implies the
		// flow already covers its seq), so replaying a run of n duplicates
		// is exactly n counter bumps on the rank's shard.
		rank := int(binary.LittleEndian.Uint32(e.body))
		if rank > MaxFrameRank {
			return false
		}
		sh := s.shardFor(rank)
		sh.mu.Lock()
		sh.dupFrames += n
		sh.mu.Unlock()
		return true
	case walKindChecksum:
		s.checksumErrors.Add(n)
		return true
	case walKindReject:
		s.rejectedFrames.Add(n)
		return true
	case walKindHeartbeat:
		// A heartbeat run stores the fold of its heartbeats under
		// receiveHeartbeat's own newest-now-wins rule, so applying the fold
		// once plus n-1 extra counter bumps equals sequential replay.
		rank := int(binary.LittleEndian.Uint32(e.body))
		nowNs := int64(binary.LittleEndian.Uint64(e.body[4:]))
		leaseNs := int64(binary.LittleEndian.Uint64(e.body[12:]))
		if rank > MaxFrameRank || nowNs < 0 || leaseNs < 0 {
			return false
		}
		if err := s.receiveHeartbeat(rank, nowNs, leaseNs, false); err != nil {
			return false
		}
		s.heartbeats.Add(n - 1)
		return true
	default:
		return false
	}
}

// compactTickets renumbers every surviving segment's arrival ticket
// contiguously from 1, preserving order, and resumes the global counter
// past them. locs[i][j] locates shard i's segment j in the WAL; the result
// holds those locations by new ticket. Caller holds the durability stateMu
// exclusively, so no ingest races the renumbering; shard locks still guard
// each mutation against concurrent readers.
func (s *Server) compactTickets(locs [][]walRef) []walRef {
	type ref struct {
		sh     *shard
		idx    int
		ticket uint64
	}
	var refs []ref
	for _, sh := range s.shards {
		sh.mu.Lock()
		for i := range sh.segments {
			refs = append(refs, ref{sh, i, sh.segments[i].ticket})
		}
		sh.mu.Unlock()
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ticket < refs[j].ticket })
	byTicket := make([]walRef, len(refs))
	for i, r := range refs {
		byTicket[i] = locs[r.sh.idx][r.idx]
		if r.ticket != uint64(i)+1 {
			r.sh.mu.Lock()
			r.sh.segments[r.idx].ticket = uint64(i) + 1
			r.sh.mu.Unlock()
		}
	}
	s.ticket.Store(uint64(len(refs)))
	return byTicket
}
