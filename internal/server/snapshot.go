package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Snapshots. A checkpoint appends one CRC-sealed *section* — what changed
// since the previous checkpoint — to the snapshot slots and rotates the WAL
// to a fresh segment. Recovery (recover.go) folds a slot's sections in order
// and replays only WAL entries past the last one's LSN, so recovery time is
// bounded by the checkpoint cadence and a checkpoint's cost by the frames
// ingested since the previous one; neither grows with the run.
//
// A slot ("snap.a", "snap.b") is a log of sections (little endian):
//
//	u32 magic "vSS3" | u32 n | u32 crc     IEEE CRC32 over the n payload bytes
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
//	    u32 nSegments { ticketStep, nRecs, walGen, walOffset }
//
// Brace fields are uvarints: small numbers repeated per touched rank and per
// frame, which fixed-width would outweigh. A rank's numbers are each its
// change since the slot's previous section (uint64 differences, so any
// change round-trips), and ticketStep is a zigzag varint, the ticket's step
// from the shard's previous segment: a section's size follows what changed,
// not how large the counters have grown.
//
// Write once. A segment's records are not in the section: (walGen,
// walOffset) names the WAL frame entry that already holds them (wal.go), so
// a checkpoint copies, checksums and writes no record byte. The decoder
// takes a segment's records from that entry only when the entry is intact —
// its CRC holds, it is a frame of nRecs records from a rank of the shard, and
// its LSN is within the section's. A section naming an entry that fails is
// treated like a section that fails its seal: the slot's valid prefix ends
// before it.
//
// Framing and folding. A section carries the scalar counters whole, the flow
// / progress / liveness entries of the ranks touched since the previous
// section (folding adds each change to the rank's entry) and the segments
// ingested since then (folding appends them). A full snapshot is the section
// taken from nothing — every rank touched, every change counted from zero,
// every segment new, link 0 — so there is one encoder and one decoder. A fresh server's first checkpoint is such a
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
// Mirror. Every section goes to both slots, and recovery takes the slot
// whose valid prefix reaches furthest. Rot in one or both slots loses nothing
// while the WAL is intact: replay from an earlier section reaches everything
// a lost section covered, because no segment a section could fall back to is
// ever deleted. The record bytes themselves are not mirrored: rot in a frame
// entry rewinds recovery to just before that entry (recover.go).
//
// No compaction. A section's bookkeeping — scalars, touched ranks, one
// reference per fresh segment — is bounded by the frames that made the
// checkpoint due, and the records it names are never copied again, so the
// slot grows by a constant number of bytes per frame and per touched rank.
//
// Entries serialize in sorted rank order so identical histories produce
// identical bytes — snapshot determinism is what lets the kill-and-recover
// conformance harness compare servers structurally.
const (
	snapMagic     = 0x76535333 // "vSS3"
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
	d := s.dur
	for _, sh := range s.shards {
		sh.mu.Lock()
		b = appendI64(b, sh.bytesReceived)
		b = appendI64(b, sh.messages)
		b = appendI64(b, sh.latestSliceNs)
		b = appendI64(b, sh.dupFrames)
		b = appendI64(b, sh.expectedRecords)
		b = appendI64(b, sh.ingestedRecords)

		m := sh.marks
		slices.Sort(m.touched) // rank order: touched keys lead with the rank

		// The three lists are views of the one rank entry: a flow once a
		// data frame arrived, progress once records did, a lease once a
		// heartbeat did. A touched rank need not be in every list, so each
		// list's count is patched after the list is written.
		at, n := len(b), uint32(0)
		b = appendU32(b, 0)
		for _, key := range m.touched {
			sl := &m.slots[uint32(key)]
			rs, w := sl.rs, &sl.w
			if rs.maxSeq == 0 {
				continue
			}
			n++
			b = appendUv(b, sl.rank)
			b = appendUv(b, rs.contig-w.contig)
			b = appendUv(b, rs.maxSeq-w.maxSeq)
			b = appendUv(b, rs.maxCum-w.maxCum)
			b = appendUv(b, uint64(rs.frames)-w.frames)
			b = appendUv(b, uint64(rs.records)-w.records)
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
		for _, key := range m.touched {
			if sl := &m.slots[uint32(key)]; sl.rs.records > 0 {
				n++
				b = appendUv(b, sl.rank)
				b = appendUv(b, uint64(sl.rs.records)-sl.w.records)
				b = appendUv(b, uint64(sl.rs.latestSliceNs)-sl.w.latestSliceNs)
			}
		}
		binary.LittleEndian.PutUint32(b[at:], n)

		at, n = len(b), 0
		b = appendU32(b, 0)
		for _, key := range m.touched {
			if sl := &m.slots[uint32(key)]; sl.rs.heartbeat {
				n++
				b = appendUv(b, sl.rank)
				b = appendUv(b, uint64(sl.rs.hbNs)-sl.w.hbNs)
				b = appendUv(b, uint64(sl.rs.leaseNs)-sl.w.leaseNs)
			}
		}
		binary.LittleEndian.PutUint32(b[at:], n)

		// Tickets rise along a shard's log, so each is written as its step
		// from the segment before it.
		fresh := sh.segments[m.sealed:]
		prev := uint64(0)
		if m.sealed > 0 {
			prev = sh.segments[m.sealed-1].ticket
		}
		b = appendU32(b, uint32(len(fresh)))
		for _, sg := range fresh {
			ref := d.refs[sg.ticket-1]
			b = binary.AppendVarint(b, int64(sg.ticket-prev))
			b = appendUv(b, sg.records())
			b = appendUv(b, ref.gen)
			b = appendUv(b, ref.off)
			prev = sg.ticket
		}
		sh.mu.Unlock()
	}
	payload := b[start+sectionHeader:]
	crc := crc32.ChecksumIEEE(payload)
	binary.LittleEndian.PutUint32(b[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+8:], crc)
	return b, crc
}

// rankMarks are a rank entry's numbers, which a section encodes as changes
// since the slot's previous section.
type rankMarks struct {
	contig, maxSeq, maxCum, frames, records uint64
	latestSliceNs, hbNs, leaseNs            uint64
}

func (rs *rankState) marks() rankMarks {
	return rankMarks{
		contig: rs.contig, maxSeq: rs.maxSeq, maxCum: rs.maxCum,
		frames: uint64(rs.frames), records: uint64(rs.records),
		latestSliceNs: uint64(rs.latestSliceNs), hbNs: uint64(rs.hbNs), leaseNs: uint64(rs.leaseNs),
	}
}

// shardMarks are a durable shard's checkpoint bookkeeping: a slot per rank
// holding the numbers the sections hold for it, the slots whose rank moved
// since the last section (as rank<<32 | slot index, so sorting the list
// sorts it by rank), and how many of the shard's segments the sections
// already hold. Guarded by the shard's mu.
type shardMarks struct {
	slots   []rankSlot
	touched []uint64
	sealed  int
}

// rankSlot is one rank's entry, the numbers the sections hold for it, and
// whether it moved since the last section.
type rankSlot struct {
	rank  int
	rs    *rankState
	w     rankMarks
	moved bool
}

// moved marks rs, rank's entry, for the next section.
func (m *shardMarks) moved(rank int, rs *rankState) {
	if rs.slot == 0 {
		m.slots = append(m.slots, rankSlot{rank: rank, rs: rs})
		rs.slot = int32(len(m.slots))
	}
	if sl := &m.slots[rs.slot-1]; !sl.moved {
		sl.moved = true
		m.touched = append(m.touched, uint64(rank)<<32|uint64(rs.slot-1))
	}
}

// touchAll makes the next section a full snapshot: every rank touched, every
// segment unsealed, every change taken from zero.
func (s *Server) touchAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		m := sh.marks
		m.sealed = 0
		for i := range m.slots {
			m.slots[i].w = rankMarks{}
		}
		for rank, rs := range sh.ranks {
			m.moved(rank, rs)
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
		m := sh.marks
		m.sealed = len(sh.segments)
		for _, key := range m.touched {
			sl := &m.slots[uint32(key)]
			sl.w, sl.moved = sl.rs.marks(), false
		}
		m.touched = m.touched[:0]
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

func (r *snapReader) v(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
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

// snapState is the fold of a slot's valid sections, held off-server until
// recovery commits it. refs[i][j] is where shard i's segment j was read from.
type snapState struct {
	gen, lsn, ticket uint64
	checksumErrors   int64
	rejectedFrames   int64
	heartbeats       int64
	shards           []*shard
	refs             [][]walRef
}

// segmentSource returns the bytes of WAL segment gen, nil when there is
// none.
type segmentSource func(gen uint64) []byte

// errLostEntry is a section naming a WAL entry that is gone or fails its
// checks: a disk fault, which ends the slot's valid prefix.
var errLostEntry = errors.New("server: snapshot names a lost WAL entry")

// walFrame returns the records of the frame entry ref names in wal when it
// is intact and is what the section claims: a frame of nRecs records from a
// rank filed in shard idx of mask+1, journaled at or before lsn.
func walFrame(wal segmentSource, ref walRef, nRecs uint64, idx, mask uint32, lsn uint64) ([]byte, error) {
	seg := wal(ref.gen)
	if ref.off > uint64(len(seg)) {
		return nil, errLostEntry
	}
	e, ok := decodeEntry(seg, int(ref.off))
	if !ok || e.kind != walKindFrame || e.lsn > lsn || len(e.body) < 8 {
		return nil, errLostEntry
	}
	frame := e.body[8:]
	h, err := ParseFrame(frame)
	if err != nil || uint64(h.Count) != nRecs || uint32(h.Rank)&mask != idx {
		return nil, errLostEntry
	}
	return frame[frameHeaderSize:], nil
}

// decodeSlot folds a slot's sections in order, taking each segment's records
// from the WAL entry it names in wal, and stops at the first section whose
// magic, length, CRC or link fails or that names a lost entry; valid is the
// length of the prefix it accepted (st is nil when that is empty). Arbitrary
// bytes must never panic or allocate unboundedly: a payload is a sub-slice of
// data, and every count inside it is checked against the remaining bytes
// before it sizes anything. A section that passes its seal but does not parse
// is no disk fault — the writer was wrong — so the whole slot is refused with
// an error rather than trusted up to that point.
func decodeSlot(data []byte, wal segmentSource) (st *snapState, valid int, err error) {
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
		if err := st.fold(payload[4:], wal); err != nil {
			if errors.Is(err, errLostEntry) {
				// The fold is half applied; the prefix before this section
				// names only entries that checked out, so it folds cleanly.
				st, _, err = decodeSlot(data[:valid], wal)
				return st, valid, err
			}
			return nil, valid, err
		}
		link = crc
		valid += sectionHeader + n
	}
	return st, valid, nil
}

// fold applies one section body (the payload past its link) onto st.
func (st *snapState) fold(body []byte, wal segmentSource) error {
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
		st.refs = make([][]walRef, nShards)
		for i := range st.shards {
			st.shards[i] = newShard(i)
		}
	} else if nShards != len(st.shards) {
		return fmt.Errorf("server: snapshot section claims %d shards, slot began with %d", nShards, len(st.shards))
	}
	mask := uint32(len(st.shards) - 1)
	type freshEntry struct {
		rs   *rankState
		base rankMarks
	}
	fresh := make(map[int]freshEntry)
	for i, sh := range st.shards {
		sh.bytesReceived = r.i64("bytesReceived")
		sh.messages = r.i64("messages")
		sh.latestSliceNs = r.i64("latestSliceNs")
		sh.dupFrames = r.i64("dupFrames")
		sh.expectedRecords = r.i64("expectedRecords")
		sh.ingestedRecords = r.i64("ingestedRecords")

		// A touched rank's numbers are changes since the slot's previous
		// section, so the first sight of a rank in a section takes the
		// entry the sections so far hold as its base and replaces it with a
		// fresh one, which the section's lists fill.
		clear(fresh)
		entry := func(rank int) (*rankState, rankMarks) {
			if r.err == nil && (rank > MaxFrameRank || uint32(rank)&mask != uint32(i)) {
				r.err = fmt.Errorf("server: snapshot files rank %d in shard %d of %d", rank, i, len(st.shards))
			}
			if r.err != nil {
				return &rankState{}, rankMarks{} // discarded: the section is refused
			}
			f, ok := fresh[rank]
			if !ok {
				f.rs = &rankState{}
				if old := sh.ranks[rank]; old != nil {
					*f.rs = *old
					f.base = old.marks()
				}
				fresh[rank] = f
				sh.ranks[rank] = f.rs
			}
			return f.rs, f.base
		}

		nFlows := int(r.u32("nFlows"))
		for f := 0; f < nFlows && r.err == nil; f++ {
			rs, w := entry(r.rank("flow rank"))
			rs.contig, rs.maxSeq, rs.maxCum = w.contig+r.uv("contig"), w.maxSeq+r.uv("maxSeq"), w.maxCum+r.uv("maxCum")
			rs.frames, rs.records = int64(w.frames+r.uv("flow frames")), int64(w.records+r.uv("flow records"))
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
			rs, w := entry(r.rank("progress rank"))
			rs.records = int64(w.records + r.uv("progress records"))
			rs.latestSliceNs = int64(w.latestSliceNs + r.uv("progress latest"))
		}

		nLive := int(r.u32("nLive"))
		for l := 0; l < nLive && r.err == nil; l++ {
			rs, w := entry(r.rank("live rank"))
			rs.hbNs, rs.leaseNs = int64(w.hbNs+r.uv("live hb")), int64(w.leaseNs+r.uv("live lease"))
			rs.heartbeat = true
		}

		nSegs := int(r.u32("nSegments"))
		prev := uint64(0)
		if n := len(sh.segments); n > 0 {
			prev = sh.segments[n-1].ticket
		}
		for g := 0; g < nSegs && r.err == nil; g++ {
			ticket := prev + uint64(r.v("segment ticket"))
			prev = ticket
			nRecs := r.uv("segment records")
			if nRecs > MaxFrameRecords {
				return fmt.Errorf("server: snapshot segment claims %d records", nRecs)
			}
			ref := walRef{gen: r.uv("segment gen"), off: r.uv("segment offset")}
			if r.err != nil {
				break
			}
			raw, err := walFrame(wal, ref, nRecs, uint32(i), mask, st.lsn)
			if err != nil {
				return err
			}
			sh.segments = append(sh.segments, segment{ticket: ticket, recs: sh.store(raw)})
			st.refs[i] = append(st.refs[i], ref)
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
// checkpoint to both snapshot slots and rotates the WAL to a new segment.
// Safe to call at any time;
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
	// The section is committed: rotate to segment newGen. Nothing is
	// deleted: the segments behind this section hold the records it and its
	// predecessors name, and replay from an earlier section needs every
	// segment after that section's generation.
	d.gen = newGen
	d.segLen = 0
	d.frames = 0
	d.snapDue = false
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
