package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Crash recovery. Crash() models losing the server process: the backing
// disk crashes (dropping or tearing unsynced tails, possibly rotting a
// durable bit) and every in-memory structure is wiped. Recover() rebuilds
// the server purely from what survived on disk: the longest valid prefix of
// snapshot sections plus a replay of every WAL entry past its LSN.
//
// The recovery invariant is *strict prefix*: the rebuilt state equals the
// state the server held after some prefix of its acknowledged ingest
// history. Replay stops at the first entry that fails validation — a torn
// tail, a rotten bit, an LSN gap left by a lying fsync — and discards
// everything after it, even segments that are themselves intact, because
// an entry beyond a gap reflects state transitions whose predecessors were
// lost. Clients learn the surviving prefix from the recovered LSN and
// re-send from there; the kill-and-recover conformance test pins that the
// result is byte-equal to a server that never crashed.

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
		clear(sh.touched)
		sh.sealed = 0
		sh.bytesReceived = 0
		sh.messages = 0
		sh.latestSliceNs = 0
		sh.dupFrames = 0
		sh.expectedRecords = 0
		sh.ingestedRecords = 0
		sh.parts = partIndex{}
		sh.entries, sh.blocks, sh.spare = arena[epochEntry]{}, arena[block]{}, arena[part]{}
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
	st := loadSnapshot(d, &rs)
	nextLSN := uint64(1)
	maxGen := uint64(0)
	if st != nil {
		if len(st.shards) != len(s.shards) {
			return rs, fmt.Errorf("server: snapshot holds %d shards, server has %d", len(st.shards), len(s.shards))
		}
		s.installSnapshot(st)
		rs.UsedSnapshot = true
		rs.SnapshotGen = st.gen
		rs.SnapshotLSN = st.lsn
		nextLSN = st.lsn + 1
		maxGen = st.gen
	}

	// Replay surviving segments in generation order. maxGen covers every
	// surviving segment — even ones discarded by truncation — so the
	// post-recovery generation never collides with stale files.
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
		data, err := d.disk.ReadFile(walSegmentName(g))
		if err != nil {
			continue
		}
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
			if !s.applyWALEntry(e, int64(span), &rs) {
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
	s.compactTickets()
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
	// Delete every pre-seal segment, including the one an ordinary
	// checkpoint would keep as fallback. A truncated recovery leaves a
	// stale suffix in the old segment — entries beyond the truncation
	// point whose LSNs will be reassigned to different frames when clients
	// re-send — and replaying that suffix at the next crash would
	// resurrect state the recovered prefix never contained. The seal fully
	// covers the recovered state in both slots, so nothing is lost unless
	// both copies rot.
	for _, g := range gens {
		if err := d.disk.Remove(walSegmentName(g)); err != nil {
			return rs, err
		}
	}
	s.down.Store(false)
	s.bumpReadVersion()
	return rs, nil
}

// loadSnapshot folds both snapshot slots and returns the state of the one
// whose valid section prefix reaches furthest, or nil when neither holds a
// valid section (cold start). The slots mirror one section log, so the
// higher generation is the longer prefix.
func loadSnapshot(d *durability, rs *RecoveryStats) *snapState {
	var best *snapState
	for _, name := range snapSlots {
		data, err := d.disk.ReadFile(name)
		if err != nil {
			continue // slot never written
		}
		st, valid, derr := decodeSlot(data)
		if derr != nil || st == nil || valid < len(data) {
			rs.SnapshotFallback = true // rotten, torn or half-persisted
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
// recovered state. A false return means the entry's body is invalid —
// recovery treats it like a truncation and stops. Replay journals nothing
// and records no lineage spans.
func (s *Server) applyWALEntry(e walEntry, n int64, rs *RecoveryStats) bool {
	switch e.kind {
	case walKindFrame:
		if len(e.body) < 8+frameHeaderSize {
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
// past them. Caller holds the durability stateMu exclusively, so no ingest
// races the renumbering; shard locks still guard each mutation against
// concurrent readers.
func (s *Server) compactTickets() {
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
	for i, r := range refs {
		if r.ticket != uint64(i)+1 {
			r.sh.mu.Lock()
			r.sh.segments[r.idx].ticket = uint64(i) + 1
			r.sh.mu.Unlock()
		}
	}
	s.ticket.Store(uint64(len(refs)))
}
