package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"vsensor/internal/obs"
	"vsensor/internal/storage"
)

// The write-ahead log. Every state transition the server's recovery cares
// about — an ingested frame (with its arrival ticket), an absorbed
// duplicate, a rejected frame, a heartbeat — is appended to the current WAL
// segment before the caller is acknowledged, so a crash that wipes the
// in-memory server loses at most the unsynced log tail, and Recover()
// rebuilds everything else by replay (recover.go).
//
// Entry framing (little endian):
//
//	off 0: u32 length    payload bytes that follow the 8-byte entry header
//	off 4: u32 crc       IEEE CRC32 over the payload
//	off 8: payload       u8 kind, u64 lsn, kind-specific body
//
// The LSN is a strictly increasing per-server sequence counting *delivery
// outcomes*, not entries: every kind but frame is counted — its entry covers
// a run of `count` consecutive outcomes and carries the LSN of the last one,
// so the LSN space stays dense — recovered LSN == delivery-schedule index —
// even when steady-state chatter (heartbeats, duplicate frames, rejects)
// collapses into O(1) journal bytes. Snapshots record the LSN they cover,
// so replay skips entries a snapshot already reflects even when old
// segments survive compaction. Reading stops at the first entry whose
// length or CRC does not check out: a torn or bit-rotten tail truncates the
// log there, and everything after it — even if intact — is discarded,
// keeping recovery a strict prefix of the acknowledged history (clients
// re-send past their last durable ack).
//
// Segments: entries append to "wal.<gen>"; a checkpoint (snapshot.go)
// starts generation gen+1. The log is also the record store: a snapshot
// section names each frame entry it covers by (generation, offset) instead
// of copying its records, so a segment stays on disk while a section names
// it. Replay scans only the segments at or after the base section's
// generation; older segments are read only at the entries a section names.
// Only Recover's seal deletes segments, and only those nothing names.
const (
	walEntryHeader = 8

	// One kind per outcome class. Every kind but frame stands for a run of
	// `count` consecutive outcomes of its class (count 1 when no run formed);
	// the entry's LSN is the LSN of the *last* outcome in the run.
	walKindFrame     = 1 // u64 ticket, raw frame bytes
	walKindDup       = 2 // u32 rank, u32 count
	walKindChecksum  = 3 // u32 count: frames rejected by CRC
	walKindReject    = 4 // u32 count: frames rejected for framing errors
	walKindHeartbeat = 5 // u32 rank, u64 folded now, u64 folded lease, u32 count
)

// countedBody is each counted kind's body length; count is its last u32.
var countedBody = [...]int{walKindDup: 8, walKindChecksum: 4, walKindReject: 4, walKindHeartbeat: 24}

// maxWALEntry bounds a decoded entry's claimed payload length: the largest
// legitimate entry is a frame entry around a maximum-size frame.
const maxWALEntry = walEntryHeader + 16 + FrameHeaderSize + MaxFrameRecords*recordWireSize

// maxCoalesced bounds the count field of a coalesced entry; a hostile
// segment claiming more outcomes per entry than any real run could produce
// is treated as corruption (replay truncates there).
const maxCoalesced = 1 << 30

// DurabilityConfig tunes the WAL + snapshot layer.
type DurabilityConfig struct {
	// FlushEvery is how many delivery outcomes make one commit group: the
	// group's entries accumulate in a staging buffer and hit the device as
	// one write + one sync (sooner when flushBytes are staged). <= 1 (the default) is a group of one: every
	// outcome is written and synced before its ack, so ack implies durable
	// — the mode under which transport-level exactly-once survives real
	// crashes. Larger values relax that: staged-but-unflushed outcomes are
	// acked, lost at a crash, and re-sent by clients from the recovered LSN.
	FlushEvery int

	// SnapshotEvery is how many frames are ingested between automatic
	// checkpoints (snapshot + WAL segment rotation). 0 selects
	// DefaultSnapshotEvery; negative disables automatic checkpoints
	// (Checkpoint can still be called explicitly).
	SnapshotEvery int

	// Disk is the storage device; nil creates a fresh fault-free disk.
	Disk *storage.Disk
}

// DefaultSnapshotEvery is the automatic checkpoint cadence in frames.
const DefaultSnapshotEvery = 256

// DefaultFlushEvery is the commit-group size callers that want group commit
// without picking a number use; the zero DurabilityConfig is a group of one.
const DefaultFlushEvery = 64

// flushBytes caps the group-commit staging buffer: a commit group flushes
// when it covers FlushEvery outcomes or this many staged bytes, whichever
// comes first.
const flushBytes = 1 << 16

// durability is the server's WAL/snapshot state. All fields except stateMu
// are guarded by mu (the atomic counters are also read without it);
// stateMu serializes ingest (read side) against crash, recovery, and
// checkpoint (write side).
type durability struct {
	// stateMu is held shared for every Receive and exclusively by
	// Crash/Recover/Checkpoint, so a wipe or a state capture never
	// interleaves with a half-applied frame.
	stateMu sync.RWMutex

	mu   sync.Mutex
	disk *storage.Disk
	cfg  DurabilityConfig
	enc  groupEncoder // the one commit path; its methods run with mu held

	gen     uint64 // current WAL segment generation == checkpoint count
	lsn     uint64 // last assigned log sequence number
	frames  int    // frames appended since the last checkpoint
	snapDue bool   // set when frames crosses SnapshotEvery; cleared by Checkpoint
	buf     []byte // reusable entry encode buffer

	// Snapshot section log (snapshot.go): link is the crc of the last
	// section written, which the next one names as its predecessor; section
	// is the encoder's reusable buffer.
	link    uint32
	section []byte

	// segLen is how many bytes the current segment holds once the staged
	// group is written; refs[t-1] is where the frame entry of ticket t lies,
	// the reference a section writes in place of the records.
	segLen uint64
	refs   []walRef

	// Lifetime counters (survive Crash; they describe the device, not the
	// server state). Written under mu but atomic, so /metrics reads them
	// through lifetime without waiting behind a commit's sync.
	entries    atomic.Int64
	bytes      atomic.Int64
	syncs      atomic.Int64 // one per commit group: DurabilityStats' Syncs and GroupCommits
	coalesced  atomic.Int64
	snapshots  atomic.Int64
	snapBytes  atomic.Int64 // section bytes appended to the slots, both mirrors counted
	recoveries atomic.Int64
	lastRec    RecoveryStats

	// Observability handles (nil-safe no-ops when obs is off), for what the
	// counters above do not record.
	obsFlushBytes *obs.Histogram
	obsSyncWait   *obs.Histogram
	obsSnapBytes  *obs.Gauge
	obsCkptNs     *obs.Histogram
	obsTruncated  *obs.Counter
	obsReplayed   *obs.Counter
	lin           *obs.Lineage // record-lineage tracer (nil = lineage off)
}

func walSegmentName(gen uint64) string { return fmt.Sprintf("wal.%d", gen) }

// walRef locates a frame entry: its segment's generation and its byte offset
// in that segment.
type walRef struct{ gen, off uint64 }

// setRef records where ticket's frame entry lies. Tickets are handed out
// under shard locks and journaled under mu, so they arrive nearly but not
// exactly in order; every ticket below the highest is set by its own frame
// before a checkpoint reads it. Caller holds mu.
func (d *durability) setRef(ticket uint64, r walRef) {
	for uint64(len(d.refs)) < ticket {
		d.refs = append(d.refs, walRef{})
	}
	d.refs[ticket-1] = r
}

// entryAt serializes the common payload prefix (kind + an explicit LSN)
// into d.buf. Caller holds d.mu.
func (d *durability) entryAt(kind byte, lsn uint64) []byte {
	b := d.buf[:0]
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	return b
}

// entryHead assigns the next LSN and serializes the payload prefix for an
// entry covering exactly one outcome. Caller holds d.mu.
func (d *durability) entryHead(kind byte) []byte {
	d.lsn++
	return d.entryAt(kind, d.lsn)
}

// groupEncoder is the commit path: encoded entries accumulate in a staging
// buffer and hit the device as ONE write + ONE sync when the group covers
// cfg.FlushEvery outcomes or flushBytes bytes. With the default group of
// one that is one write + one sync per outcome, before the ack. Inside a
// group, runs of heartbeat/dup/checksum/reject outcomes collapse into one
// counted entry materialized when the run closes, so steady-state chatter
// costs O(1) journal bytes; a group of one closes every run at count 1.
// Staged outcomes are acked before they are written: a crash loses the
// staged tail and clients re-send from the recovered LSN. All methods run
// with d.mu held and share the LSN counter and the reusable encode buffer on
// durability.
type groupEncoder struct {
	d *durability

	buf      []byte // framed entries staged for the next commit group
	entries  int    // finalized entries in buf
	outcomes int    // outcomes covered by the group, open run included

	// The one open coalescible run, held as scalars and materialized into
	// buf when it closes. openKind is a counted kind (walKindDup /
	// walKindChecksum / walKindReject / walKindHeartbeat); 0 = no open run.
	openKind  byte
	openRank  int
	openCount uint32
	openNow   int64 // heartbeat fold: max virtual now seen in the run
	openLease int64 // lease carried by the run's max-now heartbeat

	// syncTrace is the lineage trace of the newest sampled frame staged in
	// this group; its wal_sync span covers the group's single fsync.
	syncTrace uint64
	syncRank  int
}

// stage frames one encoded payload into the staging buffer (no device
// write). Caller holds d.mu.
func (e *groupEncoder) stage(payload []byte) {
	var hdr [walEntryHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	e.buf = append(e.buf, hdr[:]...)
	e.buf = append(e.buf, payload...)
	e.entries++
}

// closeOpen materializes the open run, if any, into the staging buffer as
// its kind's one encoding: the rank (dup, heartbeat), the folded now/lease
// (heartbeat), then the count. At close time d.lsn is exactly the LSN of the
// run's last outcome.
func (e *groupEncoder) closeOpen() {
	if e.openKind == 0 {
		return
	}
	d := e.d
	b := d.entryAt(e.openKind, d.lsn)
	if e.openKind == walKindDup || e.openKind == walKindHeartbeat {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.openRank))
	}
	if e.openKind == walKindHeartbeat {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.openNow))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.openLease))
	}
	b = binary.LittleEndian.AppendUint32(b, e.openCount)
	d.buf = b
	e.stage(b)
	e.openKind = 0
	e.openCount = 0
}

// chatter records one outcome of a counted kind: it extends the open
// run when that run has the same kind and rank (dup and heartbeat runs are
// per-rank; checksum/reject runs are global and pass rank 0), otherwise it
// closes the open run and starts a fresh one covering this outcome.
func (e *groupEncoder) chatter(kind byte, rank int) (extended bool) {
	d := e.d
	extended = e.openKind == kind && e.openRank == rank
	if extended {
		e.openCount++
		d.coalesced.Add(1)
	} else {
		e.closeOpen()
		e.openKind, e.openRank, e.openCount = kind, rank, 1
	}
	d.lsn++
	e.outcomes++
	return extended
}

func (e *groupEncoder) frame(ticket uint64, encoded []byte, trace uint64, rank int) error {
	d := e.d
	e.closeOpen()
	traced := d.lin != nil && trace != 0
	var t0 int64
	if traced {
		t0 = nowUnixNs()
	}
	b := d.entryHead(walKindFrame)
	b = binary.LittleEndian.AppendUint64(b, ticket)
	b = append(b, encoded...)
	d.buf = b
	d.setRef(ticket, walRef{gen: d.gen, off: d.segLen + uint64(len(e.buf))})
	e.stage(b)
	e.outcomes++
	if traced {
		d.lin.Record(trace, obs.StageWALAppend, rank, 0, t0, nowUnixNs()-t0, int64(len(b)))
		e.syncTrace, e.syncRank = trace, rank
	}
	return e.maybeFlush()
}

func (e *groupEncoder) dup(rank int) error {
	e.chatter(walKindDup, rank)
	return e.maybeFlush()
}

func (e *groupEncoder) badFrame(checksum bool) error {
	kind := byte(walKindReject)
	if checksum {
		kind = walKindChecksum
	}
	e.chatter(kind, 0)
	return e.maybeFlush()
}

func (e *groupEncoder) heartbeat(rank int, nowNs, leaseNs int64) error {
	// Fold with the same rule receiveHeartbeat applies (liveness.go): the
	// newest virtual now wins and carries its lease, so replaying the folded
	// pair once equals replaying the run in order.
	if !e.chatter(walKindHeartbeat, rank) || nowNs >= e.openNow {
		e.openNow, e.openLease = nowNs, leaseNs
	}
	return e.maybeFlush()
}

// stagedBytes is the staging buffer plus a conservative estimate for the
// open run's eventual entry (header + kind/lsn prefix + largest body).
func (e *groupEncoder) stagedBytes() int64 {
	n := int64(len(e.buf))
	if e.openKind != 0 {
		n += walEntryHeader + 9 + 24
	}
	return n
}

func (e *groupEncoder) maybeFlush() error {
	if e.outcomes >= e.d.cfg.FlushEvery || e.stagedBytes() >= flushBytes {
		return e.flush()
	}
	return nil
}

// flush commits the staged group: one device write, one sync. Caller holds
// d.mu. On error the group stays staged so a later flush can retry.
func (e *groupEncoder) flush() error {
	d := e.d
	e.closeOpen()
	if len(e.buf) == 0 {
		e.outcomes = 0
		return nil
	}
	seg := walSegmentName(d.gen)
	if err := d.disk.Append(seg, e.buf); err != nil {
		return err
	}
	trace := e.syncTrace
	timed := d.obsSyncWait != nil || (d.lin != nil && trace != 0)
	var t0 int64
	if timed {
		t0 = nowUnixNs()
	}
	if err := d.disk.Sync(seg); err != nil {
		return err
	}
	var wait int64
	if timed {
		wait = nowUnixNs() - t0
	}
	d.segLen += uint64(len(e.buf))
	d.entries.Add(int64(e.entries))
	d.bytes.Add(int64(len(e.buf)))
	d.syncs.Add(1)
	d.obsFlushBytes.ObserveInt(int64(len(e.buf)))
	d.obsSyncWait.ObserveExemplar(float64(wait), trace)
	if d.lin != nil && trace != 0 {
		d.lin.Record(trace, obs.StageWALSync, e.syncRank, 0, t0, wait, int64(len(e.buf)))
	}
	e.buf = e.buf[:0]
	e.entries = 0
	e.outcomes = 0
	e.syncTrace, e.syncRank = 0, 0
	return nil
}

// reset drops staged state after a crash: the staged tail was acked but
// never written, which is exactly the loss the group-commit ack contract
// permits.
func (e *groupEncoder) reset() {
	e.buf = e.buf[:0]
	e.entries = 0
	e.outcomes = 0
	e.openKind = 0
	e.openCount = 0
	e.syncTrace, e.syncRank = 0, 0
}

func (e *groupEncoder) staged() (int, int64) {
	n := e.entries
	if e.openKind != 0 {
		n++
	}
	return n, e.stagedBytes()
}

// logFrame appends a frame entry (arrival ticket + raw frame bytes) and
// reports whether an automatic checkpoint is now due. The caller performs
// the checkpoint after releasing its shared stateMu hold. rank and trace
// (0 = unsampled) are the frame's sender and lineage trace ID, for the WAL
// append/sync spans.
func (d *durability) logFrame(ticket uint64, encoded []byte, rank int, trace uint64) (snapDue bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.enc.frame(ticket, encoded, trace, rank); err != nil {
		return false, err
	}
	d.frames++
	every := d.cfg.SnapshotEvery
	if every == 0 {
		every = DefaultSnapshotEvery
	}
	if every > 0 && d.frames >= every && !d.snapDue {
		d.snapDue = true
	}
	return d.snapDue, nil
}

// logDup appends a duplicate-frame event for rank.
func (d *durability) logDup(rank int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.enc.dup(rank)
}

// logBadFrame appends a rejection event (checksum or framing).
func (d *durability) logBadFrame(checksum bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.enc.badFrame(checksum)
}

// logHeartbeat appends a liveness heartbeat event.
func (d *durability) logHeartbeat(rank int, nowNs, leaseNs int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.enc.heartbeat(rank, nowNs, leaseNs)
}

// walEntry is one decoded log entry.
type walEntry struct {
	kind byte
	lsn  uint64
	body []byte // kind-specific bytes, aliasing the segment buffer
	off  int    // where the entry starts in its segment
}

// outcomeSpan reports how many delivery outcomes e covers: 1 for a frame,
// the count field for the counted kinds. ok is false for an unknown kind, a
// body too short for its kind, or a count outside [1, maxCoalesced] —
// replay treats each like corruption.
func (e walEntry) outcomeSpan() (span uint64, ok bool) {
	if e.kind == walKindFrame {
		return 1, true
	}
	if int(e.kind) >= len(countedBody) || countedBody[e.kind] == 0 || len(e.body) < countedBody[e.kind] {
		return 0, false
	}
	c := binary.LittleEndian.Uint32(e.body[countedBody[e.kind]-4:])
	if c < 1 || c > maxCoalesced {
		return 0, false
	}
	return uint64(c), true
}

// decodeEntry decodes the entry at off in a segment; ok is false when its
// header is short, its length hostile, its payload truncated or its CRC
// wrong.
func decodeEntry(data []byte, off int) (e walEntry, ok bool) {
	if off < 0 || len(data)-off < walEntryHeader {
		return e, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n < 9 || n > maxWALEntry || len(data)-off-walEntryHeader < n {
		return e, false
	}
	payload := data[off+walEntryHeader : off+walEntryHeader+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
		return e, false
	}
	return walEntry{kind: payload[0], lsn: binary.LittleEndian.Uint64(payload[1:]), body: payload[9:], off: off}, true
}

// scanWAL decodes entries from raw segment bytes, stopping at the first
// entry that fails validation (short header, hostile length, CRC mismatch,
// or a truncated payload). It returns the valid prefix, how many bytes of
// the segment it consumed, and whether it stopped early (truncation).
func scanWAL(data []byte) (entries []walEntry, consumed int, truncated bool) {
	off := 0
	for off < len(data) {
		e, ok := decodeEntry(data, off)
		if !ok {
			return entries, off, true
		}
		entries = append(entries, e)
		off += walEntryHeader + 9 + len(e.body)
	}
	return entries, off, false
}

// DurabilityStats describes the WAL/snapshot layer for dashboards and
// /status.
type DurabilityStats struct {
	Enabled          bool
	Generation       uint64 // current WAL segment / checkpoint generation
	LSN              uint64 // last assigned log sequence number
	WALEntries       int64
	WALBytes         int64
	CheckpointBytes  int64 // snapshot-section bytes written; ÷ WALBytes is the write amplification
	Syncs            int64
	GroupCommits     int64 // commit groups flushed (== Syncs)
	CoalescedEntries int64 // outcomes absorbed into an open coalesced run
	StagedEntries    int   // entries acked but not yet written to the device
	StagedBytes      int64
	Snapshots        int64
	Recoveries       int64
	DiskBytes        int64 // total bytes on the backing device
	LastRecovery     RecoveryStats
	SnapshotEvery    int
	FlushEvery       int // 1 = every outcome is its own commit
	FlushBytes       int
}

// DurabilityStats returns the durability layer's state; the zero value when
// durability is off.
func (s *Server) DurabilityStats() DurabilityStats {
	if s.dur == nil {
		return DurabilityStats{}
	}
	return s.dur.stats()
}

// lifetime reads the lifetime counters without mu: the fields /metrics
// exports. stats reads them under mu, together with the rest.
func (d *durability) lifetime() DurabilityStats {
	syncs := d.syncs.Load()
	return DurabilityStats{
		Enabled:          true,
		WALEntries:       d.entries.Load(),
		WALBytes:         d.bytes.Load(),
		CheckpointBytes:  d.snapBytes.Load(),
		Syncs:            syncs,
		GroupCommits:     syncs,
		CoalescedEntries: d.coalesced.Load(),
		Snapshots:        d.snapshots.Load(),
		Recoveries:       d.recoveries.Load(),
	}
}

func (d *durability) stats() DurabilityStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.lifetime()
	st.Generation, st.LSN = d.gen, d.lsn
	st.StagedEntries, st.StagedBytes = d.enc.staged()
	st.DiskBytes = d.disk.Size()
	st.LastRecovery = d.lastRec
	st.SnapshotEvery = d.cfg.SnapshotEvery
	if st.SnapshotEvery == 0 {
		st.SnapshotEvery = DefaultSnapshotEvery
	}
	st.FlushEvery, st.FlushBytes = d.cfg.FlushEvery, flushBytes
	return st
}

// Disk returns the backing storage device (nil when durability is off) —
// chaos harnesses crash it directly.
func (s *Server) Disk() *storage.Disk {
	if s.dur == nil {
		return nil
	}
	return s.dur.disk
}

// AttachDurability enables the WAL + snapshot layer over disk (a fresh
// fault-free disk when cfg.Disk is nil). Must be called before any frame is
// ingested; attaching twice or after ingest panics — durability is a
// construction-time decision.
func (s *Server) AttachDurability(cfg DurabilityConfig) {
	if s.dur != nil {
		panic("server: durability already attached")
	}
	if s.ticket.Load() != 0 {
		panic("server: AttachDurability after ingest started")
	}
	if cfg.Disk == nil {
		cfg.Disk = storage.NewDisk(storage.Faults{})
	}
	if cfg.FlushEvery < 1 {
		cfg.FlushEvery = 1
	}
	d := &durability{disk: cfg.Disk, cfg: cfg}
	d.enc.d = d
	s.dur = d
	// The change marks checkpoints consume exist only on a durable server;
	// nil marks keep the plain ingest path free of them.
	for _, sh := range s.shards {
		sh.marks = &shardMarks{}
	}
}

// setObs registers the durability metrics: the lifetime counters as
// functions of lifetime, read once per scrape, plus the handles for what
// they do not record. Called from SetObs.
func (d *durability) setObs(o *obs.Obs) {
	lt := obs.NewSource(o.Registry(), d.lifetime)
	lt.Counter("server_wal_entries_total", func(st DurabilityStats) int64 { return st.WALEntries })
	lt.Counter("server_wal_bytes_total", func(st DurabilityStats) int64 { return st.WALBytes })
	lt.Counter("server_wal_syncs_total", func(st DurabilityStats) int64 { return st.Syncs })
	lt.Counter("wal_group_commits_total", func(st DurabilityStats) int64 { return st.GroupCommits })
	lt.Counter("wal_coalesced_entries_total", func(st DurabilityStats) int64 { return st.CoalescedEntries })
	lt.Counter("server_snapshots_total", func(st DurabilityStats) int64 { return st.Snapshots })
	lt.Counter("server_checkpoint_bytes_total", func(st DurabilityStats) int64 { return st.CheckpointBytes })
	lt.Counter("server_recoveries_total", func(st DurabilityStats) int64 { return st.Recoveries })
	d.obsFlushBytes = o.Histogram("wal_flush_bytes")
	d.obsSyncWait = o.Histogram("wal_sync_wait_ns")
	d.obsSnapBytes = o.Gauge("server_snapshot_bytes")
	d.obsCkptNs = o.Histogram("server_checkpoint_ns")
	d.obsTruncated = o.Counter("server_wal_truncated_bytes_total")
	d.obsReplayed = o.Counter("server_replayed_frames_total")
	d.lin = o.Lineage()
}
