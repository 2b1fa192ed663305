package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
)

// Snapshots. A checkpoint appends one CRC-sealed *section* — what changed
// since the previous checkpoint — to the snapshot slots, rotates the WAL to
// a fresh segment, and deletes segments the slots supersede. Recovery
// (recover.go) folds a slot's sections in order and replays only WAL entries
// past the last one's LSN, so recovery time is bounded by the checkpoint
// cadence and a checkpoint's cost by the frames ingested since the previous
// one; neither grows with the run.
//
// A slot ("snap.a", "snap.b") is a log of sections (little endian):
//
//	u32 magic "vSS2" | u32 n | u32 crc     IEEE CRC32 over the n payload bytes
//	payload:
//	  u32 link                             crc of the slot's previous section, 0 for the first
//	  u64 gen | u64 lsn | u64 ticket
//	  i64 checksumErrors | i64 rejectedFrames | i64 heartbeats
//	  u32 shardCount
//	  per shard:
//	    i64 bytesReceived | i64 messages | i64 latestSliceNs | i64 dupFrames
//	    i64 expectedRecords | i64 ingestedRecords
//	    u32 nFlows    { rank, contig, maxSeq, maxCum, frames, records,
//	                    nAhead, ahead... }
//	    u32 nPerRank  { rank, records, latestSliceNs }
//	    u32 nLive     { rank, hbNs, leaseNs }
//	    u32 nSegments { ticket, nRecs, 40-byte wire records... }
//
// Brace fields are uvarints (signed ones cast through uint64): small counters
// repeated per touched rank and per frame, which fixed-width would outweigh
// the WAL's own per-frame framing.
//
// Framing and folding. A section carries the scalar counters whole, the flow
// / progress / liveness entries of the ranks touched since the previous
// section (folding replaces the rank's entry) and the segments ingested since
// then (folding appends them). A full snapshot is the section taken from
// nothing — every rank touched, every segment new, link 0 — so there is one
// encoder and one decoder. A fresh server's first checkpoint is such a
// section by construction; Recover's seal writes one explicitly and replaces
// both slots with it (snap.tmp + durable rename), so a torn or rotten tail
// never sits in front of new sections. Steady-state sections are plain
// appends: a torn append fails its own seal and costs nothing before it.
//
// Chain check. The decoder stops at the first section whose magic, length,
// CRC or link fails and keeps the prefix before it. The link names the exact
// bytes a section is a delta against: a slot that missed a section (a failed
// append) never accepts a later one.
//
// Mirror. Every section goes to both slots, so one rotten file loses nothing
// — recovery takes the slot whose valid prefix reaches furthest — and two
// rotten files lose only what follows the longer surviving prefix.
//
// No compaction. Record segments, the bulk of the state, are written once and
// never again, and a section's bookkeeping (scalars plus touched ranks) is
// bounded by the frames that made the checkpoint due, so a slot stays within
// a constant factor of a from-nothing encode of the same state.
//
// Entries serialize in sorted rank order so identical histories produce
// identical bytes — snapshot determinism is what lets the kill-and-recover
// conformance harness compare servers structurally.
const (
	snapMagic     = 0x76535332 // "vSS2"
	sectionHeader = 12
	// minShardBytes is the smallest per-shard encoding: six scalars and four
	// empty lists.
	minShardBytes = 6*8 + 4*4
)

// snapSlots are the two mirrored section logs.
var snapSlots = [2]string{"snap.a", "snap.b"}

func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// appendUv appends v as a uvarint; the signed fields it carries are never
// negative in practice and round-trip through the cast when they are.
func appendUv[T int | int64 | uint64](b []byte, v T) []byte {
	return binary.AppendUvarint(b, uint64(v))
}

// appendSection appends to b one sealed section holding what changed since
// the last sectionWritten — the whole state after touchAll — and returns the
// section's crc, the next section's link. Caller holds the durability
// stateMu exclusively (no concurrent ingest) and d.mu; shard mutexes are
// still taken one at a time to honor the locking discipline used by queries.
func (s *Server) appendSection(b []byte, link uint32, gen, lsn uint64) ([]byte, uint32) {
	start := len(b)
	b = appendU32(b, snapMagic)
	b = appendU64(b, 0) // n and crc, patched once the payload is complete
	b = appendU32(b, link)
	b = appendU64(b, gen)
	b = appendU64(b, lsn)
	b = appendU64(b, s.ticket.Load())
	b = appendI64(b, s.checksumErrors.Load())
	b = appendI64(b, s.rejectedFrames.Load())
	b = appendI64(b, s.heartbeats.Load())
	b = appendU32(b, uint32(len(s.shards)))
	ranks := s.dur.ranks
	for _, sh := range s.shards {
		sh.mu.Lock()
		b = appendI64(b, sh.bytesReceived)
		b = appendI64(b, sh.messages)
		b = appendI64(b, sh.latestSliceNs)
		b = appendI64(b, sh.dupFrames)
		b = appendI64(b, sh.expectedRecords)
		b = appendI64(b, sh.ingestedRecords)

		ranks = ranks[:0]
		for rank := range sh.touched {
			ranks = append(ranks, rank)
		}
		sort.Ints(ranks)

		// The three lists are views of the one rank entry: a flow once a
		// data frame arrived, progress once records did, a lease once a
		// heartbeat did. A touched rank need not be in every list, so each
		// list's count is patched after the list is written.
		at, n := len(b), uint32(0)
		b = appendU32(b, 0)
		for _, rank := range ranks {
			rs := sh.ranks[rank]
			if rs.maxSeq == 0 {
				continue
			}
			n++
			b = appendUv(b, rank)
			b = appendUv(b, rs.contig)
			b = appendUv(b, rs.maxSeq)
			b = appendUv(b, rs.maxCum)
			b = appendUv(b, rs.frames)
			b = appendUv(b, rs.records)
			b = appendUv(b, len(rs.ahead))
			if len(rs.ahead) > 0 {
				ahead := make([]uint64, 0, len(rs.ahead))
				for seq := range rs.ahead {
					ahead = append(ahead, seq)
				}
				slices.Sort(ahead)
				for _, seq := range ahead {
					b = appendUv(b, seq)
				}
			}
		}
		binary.LittleEndian.PutUint32(b[at:], n)

		at, n = len(b), 0
		b = appendU32(b, 0)
		for _, rank := range ranks {
			if rs := sh.ranks[rank]; rs.records > 0 {
				n++
				b = appendUv(b, rank)
				b = appendUv(b, rs.records)
				b = appendUv(b, rs.latestSliceNs)
			}
		}
		binary.LittleEndian.PutUint32(b[at:], n)

		at, n = len(b), 0
		b = appendU32(b, 0)
		for _, rank := range ranks {
			if rs := sh.ranks[rank]; rs.heartbeat {
				n++
				b = appendUv(b, rank)
				b = appendUv(b, rs.hbNs)
				b = appendUv(b, rs.leaseNs)
			}
		}
		binary.LittleEndian.PutUint32(b[at:], n)

		fresh := sh.segments[sh.sealed:]
		b = appendU32(b, uint32(len(fresh)))
		for _, sg := range fresh {
			b = appendUv(b, sg.ticket)
			b = appendUv(b, sg.records())
			b = append(b, sg.recs...)
		}
		sh.mu.Unlock()
	}
	s.dur.ranks = ranks
	payload := b[start+sectionHeader:]
	crc := crc32.ChecksumIEEE(payload)
	binary.LittleEndian.PutUint32(b[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+8:], crc)
	return b, crc
}

// touchAll makes the next section a full snapshot: every rank touched, every
// segment unsealed.
func (s *Server) touchAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.sealed = 0
		for rank := range sh.ranks {
			sh.touched[rank] = struct{}{}
		}
		sh.mu.Unlock()
	}
}

// sectionWritten forgets the change marks the section just written covered.
// It runs only after the slots took the section, so a failed checkpoint
// leaves the marks for the next one to encode again.
func (s *Server) sectionWritten() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.sealed = len(sh.segments)
		clear(sh.touched)
		sh.mu.Unlock()
	}
}

// snapReader is a bounds-checked cursor over snapshot bytes; the first
// failed read poisons it so decode code reads linearly without per-field
// error plumbing.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("server: snapshot truncated reading %s at offset %d", what, r.off)
	}
}

func (r *snapReader) u32(what string) uint32 {
	if r.err != nil || len(r.data)-r.off < 4 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64(what string) uint64 {
	if r.err != nil || len(r.data)-r.off < 8 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) i64(what string) int64 { return int64(r.u64(what)) }

func (r *snapReader) uv(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

// rank reads a rank field, refusing values no u32 wire rank could produce.
func (r *snapReader) rank(what string) int {
	v := r.uv(what)
	if v > math.MaxUint32 {
		r.fail(what)
		return 0
	}
	return int(v)
}

func (r *snapReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.off < n {
		r.fail(what)
		return nil
	}
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

// snapState is the fold of a slot's valid sections, held off-server until
// recovery commits it.
type snapState struct {
	gen, lsn, ticket uint64
	checksumErrors   int64
	rejectedFrames   int64
	heartbeats       int64
	shards           []*shard
}

// decodeSlot folds a slot's sections in order and stops at the first one
// whose magic, length, CRC or link fails; valid is the length of the prefix
// it accepted (st is nil when that is empty). Arbitrary bytes must never
// panic or allocate unboundedly: a payload is a sub-slice of data, and every
// count inside it is checked against the remaining bytes before it sizes
// anything. A section that passes its seal but does not parse is no disk
// fault — the writer was wrong — so the whole slot is refused with an error
// rather than trusted up to that point.
func decodeSlot(data []byte) (st *snapState, valid int, err error) {
	var link uint32
	for len(data)-valid >= sectionHeader {
		hdr := data[valid:]
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		if binary.LittleEndian.Uint32(hdr) != snapMagic || n < 4 || n > len(hdr)-sectionHeader {
			break
		}
		payload := hdr[sectionHeader : sectionHeader+n]
		crc := crc32.ChecksumIEEE(payload)
		if crc != binary.LittleEndian.Uint32(hdr[8:]) || binary.LittleEndian.Uint32(payload) != link {
			break
		}
		if st == nil {
			st = &snapState{}
		}
		if err := st.fold(payload[4:]); err != nil {
			return nil, valid, err
		}
		link = crc
		valid += sectionHeader + n
	}
	return st, valid, nil
}

// fold applies one section body (the payload past its link) onto st.
func (st *snapState) fold(body []byte) error {
	r := &snapReader{data: body}
	st.gen = r.u64("gen")
	st.lsn = r.u64("lsn")
	st.ticket = r.u64("ticket")
	st.checksumErrors = r.i64("checksumErrors")
	st.rejectedFrames = r.i64("rejectedFrames")
	st.heartbeats = r.i64("heartbeats")
	nShards := int(r.u32("shardCount"))
	if r.err != nil {
		return r.err
	}
	if st.shards == nil {
		if nShards == 0 || nShards > MaxShards || nShards&(nShards-1) != 0 || nShards*minShardBytes > len(body)-r.off {
			return fmt.Errorf("server: snapshot claims %d shards", nShards)
		}
		st.shards = make([]*shard, nShards)
		for i := range st.shards {
			st.shards[i] = newShard(i)
		}
	} else if nShards != len(st.shards) {
		return fmt.Errorf("server: snapshot section claims %d shards, slot began with %d", nShards, len(st.shards))
	}
	mask := uint32(len(st.shards) - 1)
	fresh := make(map[int]*rankState)
	for i, sh := range st.shards {
		sh.bytesReceived = r.i64("bytesReceived")
		sh.messages = r.i64("messages")
		sh.latestSliceNs = r.i64("latestSliceNs")
		sh.dupFrames = r.i64("dupFrames")
		sh.expectedRecords = r.i64("expectedRecords")
		sh.ingestedRecords = r.i64("ingestedRecords")

		// A touched rank's whole state is in the section, so the first sight
		// of a rank in a section replaces its entry and the section's later
		// lists fill that fresh entry.
		clear(fresh)
		entry := func(rank int) *rankState {
			if r.err == nil && (rank > MaxFrameRank || uint32(rank)&mask != uint32(i)) {
				r.err = fmt.Errorf("server: snapshot files rank %d in shard %d of %d", rank, i, len(st.shards))
			}
			if r.err != nil {
				return &rankState{} // discarded: the section is refused
			}
			rs := fresh[rank]
			if rs == nil {
				rs = &rankState{}
				fresh[rank] = rs
				sh.ranks[rank] = rs
			}
			return rs
		}

		nFlows := int(r.u32("nFlows"))
		for f := 0; f < nFlows && r.err == nil; f++ {
			rs := entry(r.rank("flow rank"))
			rs.contig, rs.maxSeq, rs.maxCum = r.uv("contig"), r.uv("maxSeq"), r.uv("maxCum")
			rs.frames, rs.records = int64(r.uv("flow frames")), int64(r.uv("flow records"))
			// Each ahead entry consumes at least a byte, so a hostile count
			// runs the reader dry before it grows the map past the input.
			rs.ahead = nil
			for a, nAhead := uint64(0), r.uv("nAhead"); a < nAhead && r.err == nil; a++ {
				if rs.ahead == nil {
					rs.ahead = make(map[uint64]struct{})
				}
				rs.ahead[r.uv("ahead seq")] = struct{}{}
			}
		}

		nPerRank := int(r.u32("nPerRank"))
		for p := 0; p < nPerRank && r.err == nil; p++ {
			rs := entry(r.rank("progress rank"))
			rs.records, rs.latestSliceNs = int64(r.uv("progress records")), int64(r.uv("progress latest"))
		}

		nLive := int(r.u32("nLive"))
		for l := 0; l < nLive && r.err == nil; l++ {
			rs := entry(r.rank("live rank"))
			rs.hbNs, rs.leaseNs, rs.heartbeat = int64(r.uv("live hb")), int64(r.uv("live lease")), true
		}

		nSegs := int(r.u32("nSegments"))
		for g := 0; g < nSegs && r.err == nil; g++ {
			ticket := r.uv("segment ticket")
			nRecs := r.uv("segment records")
			if nRecs > MaxFrameRecords {
				return fmt.Errorf("server: snapshot segment claims %d records", nRecs)
			}
			raw := r.bytes(int(nRecs)*recordWireSize, "segment payload")
			if r.err != nil {
				break
			}
			sh.segments = append(sh.segments, segment{ticket: ticket, recs: sh.store(raw)})
		}
		if r.err != nil {
			return r.err
		}
	}
	if r.off != len(body) {
		return fmt.Errorf("server: snapshot section has %d trailing bytes", len(body)-r.off)
	}
	return nil
}

// Checkpoint appends a section covering everything since the previous
// checkpoint to both snapshot slots, rotates the WAL to a new segment, and
// deletes WAL segments the slots supersede. Safe to call at any time;
// automatic checkpoints run every DurabilityConfig.SnapshotEvery frames.
// No-op without durability.
func (s *Server) Checkpoint() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	return s.checkpointLocked(false)
}

// checkpointIfDue runs the automatic checkpoint a frame made due. Due is
// re-read under the exclusive lock: of the Receives that raced past the same
// due mark, the first checkpoints and clears it, the rest find nothing to do.
func (s *Server) checkpointIfDue() error {
	d := s.dur
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	d.mu.Lock()
	due := d.snapDue
	d.mu.Unlock()
	if !due {
		return nil
	}
	return s.checkpointLocked(false)
}

// checkpointLocked is Checkpoint's body; the caller holds the durability
// stateMu exclusively. seal is Recover closing a recovery: the section is
// taken from nothing and replaces both slots instead of extending them.
func (s *Server) checkpointLocked(seal bool) error {
	d := s.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	var t0 int64
	if d.obsCkptNs != nil {
		t0 = nowUnixNs()
	}
	// Commit any staged group-commit entries (closing an open coalesced
	// run) before capturing the section's LSN: the slots must cover a
	// durable prefix, and a coalesced run must never straddle a checkpoint
	// boundary — replay validates that each entry's covered range starts
	// exactly at the snapshot's LSN + 1.
	if err := d.enc.flush(); err != nil {
		return err
	}
	if seal {
		s.touchAll()
		d.link = 0
	}
	newGen := d.gen + 1
	sec, crc := s.appendSection(d.section[:0], d.link, newGen, d.lsn)
	d.section = sec
	for _, slot := range snapSlots {
		if err := d.writeSection(slot, sec, seal); err != nil {
			return err
		}
	}
	s.sectionWritten()
	d.link = crc
	if seal {
		d.section = nil // a whole-state buffer is not worth keeping for deltas
	}
	// The section is committed: rotate to segment newGen and drop segments
	// older than the previous generation — the previous section plus its
	// segment remain the fallback if this section is lost from both slots.
	// Sweep by name rather than deleting a single predecessor: a disk that
	// was never recovered may hold older stragglers.
	oldGen := d.gen
	d.gen = newGen
	d.frames = 0
	d.snapDue = false
	for _, name := range d.disk.List() {
		if g, ok := walGen(name); ok && g < oldGen {
			if err := d.disk.Remove(name); err != nil {
				return err
			}
		}
	}
	written := int64(len(sec) * len(snapSlots))
	d.snapshots.Add(1)
	d.snapBytes.Add(written)
	d.obsSnapBytes.Set(float64(len(sec)))
	if d.obsCkptNs != nil {
		d.obsCkptNs.ObserveInt(nowUnixNs() - t0)
	}
	return nil
}

// writeSection makes sec durable at the end of slot — or, with replace, as
// the slot's whole content, committed by a durable atomic rename.
func (d *durability) writeSection(slot string, sec []byte, replace bool) error {
	name := slot
	if replace {
		name = "snap.tmp"
		if err := d.disk.Remove(name); err != nil {
			return err
		}
	}
	if err := d.disk.Append(name, sec); err != nil {
		return err
	}
	if err := d.disk.Sync(name); err != nil {
		return err
	}
	if replace {
		return d.disk.Rename(name, slot)
	}
	return nil
}
