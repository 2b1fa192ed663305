package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"vsensor/internal/detect"
)

// Snapshots. A checkpoint serializes the server's complete ingest state —
// every shard's record sub-log with arrival tickets, per-rank dedup
// windows, progress and liveness entries, delivery counters — into one
// CRC-sealed blob, commits it with a durable atomic rename, rotates the
// WAL to a fresh segment, and deletes segments the snapshot supersedes.
// Recovery (recover.go) loads the newest valid snapshot and replays only
// WAL entries past its LSN, so recovery time is bounded by the checkpoint
// cadence, not the run length.
//
// Snapshot layout (little endian), sealed by a trailing CRC32 over
// everything before it:
//
//	u32 magic "vSS1" | u32 version | u64 gen | u64 lsn | u64 ticket
//	i64 checksumErrors | i64 rejectedFrames | i64 heartbeats
//	u32 shardCount
//	per shard:
//	  i64 bytesReceived | i64 messages | i64 latestSliceNs | i64 dupFrames
//	  i64 expectedRecords | i64 ingestedRecords
//	  u32 nFlows    { u32 rank, u64 contig, u64 maxSeq, u64 maxCum,
//	                  i64 frames, i64 records, u32 nAhead, u64 ahead... }
//	  u32 nPerRank  { u32 rank, i64 records, i64 latestSliceNs }
//	  u32 nLive     { u32 rank, i64 hbNs, i64 leaseNs }
//	  u32 nSegments { u64 ticket, u32 nRecs, 40-byte wire records... }
//	u32 crc
//
// Maps serialize in sorted rank order so identical state produces
// identical bytes — snapshot determinism is what lets the kill-and-recover
// conformance harness compare servers structurally.
const (
	snapMagic   = 0x76535331 // "vSS1"
	snapVersion = 1
)

// errNoSnapshot marks recovery finding no usable snapshot (cold start).
var errNoSnapshot = errors.New("server: no valid snapshot")

func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// encodeSnapshot captures the server state. Caller holds the durability
// stateMu exclusively (no concurrent ingest); shard mutexes are still taken
// one at a time to honor the locking discipline used by queries.
func (s *Server) encodeSnapshot(gen, lsn uint64) []byte {
	b := make([]byte, 0, 4096)
	b = appendU32(b, snapMagic)
	b = appendU32(b, snapVersion)
	b = appendU64(b, gen)
	b = appendU64(b, lsn)
	b = appendU64(b, s.ticket.Load())
	b = appendI64(b, s.checksumErrors.Load())
	b = appendI64(b, s.rejectedFrames.Load())
	b = appendI64(b, s.heartbeats.Load())
	b = appendU32(b, uint32(len(s.shards)))
	for _, sh := range s.shards {
		sh.mu.Lock()
		b = appendI64(b, sh.bytesReceived)
		b = appendI64(b, sh.messages)
		b = appendI64(b, sh.latestSliceNs)
		b = appendI64(b, sh.dupFrames)
		b = appendI64(b, sh.expectedRecords)
		b = appendI64(b, sh.ingestedRecords)

		b = appendU32(b, uint32(len(sh.flows)))
		for _, rank := range sortedKeys(sh.flows) {
			fl := sh.flows[rank]
			b = appendU32(b, uint32(rank))
			b = appendU64(b, fl.contig)
			b = appendU64(b, fl.maxSeq)
			b = appendU64(b, fl.maxCum)
			b = appendI64(b, fl.ingestedFrames)
			b = appendI64(b, fl.ingestedRecords)
			ahead := make([]uint64, 0, len(fl.ahead))
			for seq := range fl.ahead {
				ahead = append(ahead, seq)
			}
			sort.Slice(ahead, func(i, j int) bool { return ahead[i] < ahead[j] })
			b = appendU32(b, uint32(len(ahead)))
			for _, seq := range ahead {
				b = appendU64(b, seq)
			}
		}

		b = appendU32(b, uint32(len(sh.perRank)))
		for _, rank := range sortedKeys(sh.perRank) {
			rp := sh.perRank[rank]
			b = appendU32(b, uint32(rank))
			b = appendI64(b, int64(rp.Records))
			b = appendI64(b, rp.LatestSliceNs)
		}

		b = appendU32(b, uint32(len(sh.live)))
		for _, rank := range sortedKeys(sh.live) {
			lv := sh.live[rank]
			b = appendU32(b, uint32(rank))
			b = appendI64(b, lv.hbNs)
			b = appendI64(b, lv.leaseNs)
		}

		b = appendU32(b, uint32(len(sh.segments)))
		for _, sg := range sh.segments {
			b = appendU64(b, sg.ticket)
			recs := sh.records[sg.start:sg.end]
			b = appendU32(b, uint32(len(recs)))
			b = appendRecords(b, recs)
		}
		sh.mu.Unlock()
	}
	return appendU32(b, crc32.ChecksumIEEE(b))
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
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

func (r *snapReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.off < n {
		r.fail(what)
		return nil
	}
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

// snapState is a decoded snapshot, held off-server until recovery commits
// it.
type snapState struct {
	gen, lsn, ticket uint64
	checksumErrors   int64
	rejectedFrames   int64
	heartbeats       int64
	shards           []*shard
}

// decodeSnapshot validates and decodes a snapshot blob. Arbitrary bytes
// must never panic or allocate unboundedly; every count is checked against
// the remaining buffer before it sizes anything.
func decodeSnapshot(data []byte) (*snapState, error) {
	if len(data) < 4+4+8+8+8+8*3+4+4 {
		return nil, fmt.Errorf("server: snapshot too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: snapshot says %#x, computed %#x", ErrChecksum, got, want)
	}
	r := &snapReader{data: body}
	if m := r.u32("magic"); m != snapMagic {
		return nil, fmt.Errorf("server: bad snapshot magic %#x", m)
	}
	if v := r.u32("version"); v != snapVersion {
		return nil, fmt.Errorf("server: unsupported snapshot version %d", v)
	}
	st := &snapState{}
	st.gen = r.u64("gen")
	st.lsn = r.u64("lsn")
	st.ticket = r.u64("ticket")
	st.checksumErrors = r.i64("checksumErrors")
	st.rejectedFrames = r.i64("rejectedFrames")
	st.heartbeats = r.i64("heartbeats")
	nShards := r.u32("shardCount")
	if r.err != nil {
		return nil, r.err
	}
	if nShards == 0 || nShards > MaxShards || nShards&(nShards-1) != 0 {
		return nil, fmt.Errorf("server: snapshot claims %d shards", nShards)
	}
	for i := uint32(0); i < nShards; i++ {
		sh := &shard{
			flows:   make(map[int]*rankFlow),
			perRank: make(map[int]*RankProgress),
			live:    make(map[int]*rankLive),
		}
		sh.bytesReceived = r.i64("bytesReceived")
		sh.messages = r.i64("messages")
		sh.latestSliceNs = r.i64("latestSliceNs")
		sh.dupFrames = r.i64("dupFrames")
		sh.expectedRecords = r.i64("expectedRecords")
		sh.ingestedRecords = r.i64("ingestedRecords")

		nFlows := int(r.u32("nFlows"))
		for f := 0; f < nFlows && r.err == nil; f++ {
			rank := int(r.u32("flow rank"))
			fl := &rankFlow{
				contig:          r.u64("contig"),
				maxSeq:          r.u64("maxSeq"),
				maxCum:          r.u64("maxCum"),
				ingestedFrames:  r.i64("flow frames"),
				ingestedRecords: r.i64("flow records"),
			}
			nAhead := int(r.u32("nAhead"))
			for a := 0; a < nAhead && r.err == nil; a++ {
				if fl.ahead == nil {
					fl.ahead = make(map[uint64]struct{})
				}
				fl.ahead[r.u64("ahead seq")] = struct{}{}
			}
			if rank > MaxFrameRank {
				return nil, fmt.Errorf("server: snapshot flow claims rank %d", rank)
			}
			sh.flows[rank] = fl
		}

		nPerRank := int(r.u32("nPerRank"))
		for p := 0; p < nPerRank && r.err == nil; p++ {
			rank := int(r.u32("progress rank"))
			sh.perRank[rank] = &RankProgress{
				Rank:          rank,
				Records:       int(r.i64("progress records")),
				LatestSliceNs: r.i64("progress latest"),
			}
		}

		nLive := int(r.u32("nLive"))
		for l := 0; l < nLive && r.err == nil; l++ {
			rank := int(r.u32("live rank"))
			sh.live[rank] = &rankLive{hbNs: r.i64("live hb"), leaseNs: r.i64("live lease")}
		}

		nSegs := int(r.u32("nSegments"))
		for g := 0; g < nSegs && r.err == nil; g++ {
			ticket := r.u64("segment ticket")
			nRecs := int(r.u32("segment records"))
			if nRecs > MaxFrameRecords {
				return nil, fmt.Errorf("server: snapshot segment claims %d records", nRecs)
			}
			raw := r.bytes(nRecs*recordWireSize, "segment payload")
			if r.err != nil {
				break
			}
			start := len(sh.records)
			sh.records = decodeRecords(sh.records, raw, nRecs)
			sh.segments = append(sh.segments, segment{ticket: ticket, start: start, end: len(sh.records)})
		}
		if r.err != nil {
			return nil, r.err
		}
		st.shards = append(st.shards, sh)
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("server: snapshot has %d trailing bytes", len(body)-r.off)
	}
	return st, nil
}

// Checkpoint writes a snapshot of the current state, rotates the WAL to a
// new segment, and deletes WAL segments the new snapshot supersedes. Safe
// to call at any time; automatic checkpoints run every
// DurabilityConfig.SnapshotEvery frames. No-op without durability.
func (s *Server) Checkpoint() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint's body; the caller holds the durability
// stateMu exclusively (Checkpoint, or Recover sealing a recovery).
func (s *Server) checkpointLocked() error {
	d := s.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	// Commit any staged group-commit entries (closing an open coalesced
	// run) before capturing the snapshot LSN: the snapshot must cover a
	// durable prefix, and a coalesced run must never straddle a checkpoint
	// boundary — replay validates that each entry's covered range starts
	// exactly at the snapshot's LSN + 1.
	if err := d.enc.flush(); err != nil {
		return err
	}
	newGen := d.gen + 1
	enc := s.encodeSnapshot(newGen, d.lsn)
	const tmp = "snap.tmp"
	if err := d.disk.Remove(tmp); err != nil {
		return err
	}
	if err := d.disk.Append(tmp, enc); err != nil {
		return err
	}
	if err := d.disk.Sync(tmp); err != nil {
		return err
	}
	if err := d.disk.Rename(tmp, snapName(newGen)); err != nil {
		return err
	}
	// The snapshot is committed: rotate to segment newGen and drop segments
	// older than the previous generation — the previous snapshot plus its
	// segment remain the fallback if this snapshot later rots. After a
	// recovery there may be older stragglers too, so sweep by name rather
	// than deleting a single predecessor.
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
	d.snapshots++
	d.obsSnapshots.Inc()
	d.obsSnapBytes.Set(float64(len(enc)))
	return nil
}

// appendRecords serializes records in the 40-byte frame wire layout
// (shared with AppendFrame's payload encoding).
func appendRecords(dst []byte, recs []detect.SliceRecord) []byte {
	for _, r := range recs {
		var rec [recordWireSize]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(r.Sensor))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r.Group))
		binary.LittleEndian.PutUint32(rec[8:], uint32(r.Rank))
		binary.LittleEndian.PutUint64(rec[12:], uint64(r.SliceNs))
		binary.LittleEndian.PutUint32(rec[20:], uint32(r.Count))
		binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(r.AvgNs))
		binary.LittleEndian.PutUint64(rec[32:], math.Float64bits(r.AvgInstr))
		dst = append(dst, rec[:]...)
	}
	return dst
}

// decodeRecords deserializes n wire records (no frame header) onto out.
func decodeRecords(out []detect.SliceRecord, raw []byte, n int) []detect.SliceRecord {
	off := 0
	for i := 0; i < n; i++ {
		out = append(out, detect.SliceRecord{
			Sensor:   int(binary.LittleEndian.Uint32(raw[off:])),
			Group:    int(binary.LittleEndian.Uint32(raw[off+4:])),
			Rank:     int(binary.LittleEndian.Uint32(raw[off+8:])),
			SliceNs:  int64(binary.LittleEndian.Uint64(raw[off+12:])),
			Count:    int32(binary.LittleEndian.Uint32(raw[off+20:])),
			AvgNs:    math.Float64frombits(binary.LittleEndian.Uint64(raw[off+24:])),
			AvgInstr: math.Float64frombits(binary.LittleEndian.Uint64(raw[off+32:])),
		})
		off += recordWireSize
	}
	return out
}
