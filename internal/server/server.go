// Package server implements the dedicated analysis-server process of paper
// §5.4. Each rank buffers its smoothed slice records locally and ships them
// in network-friendly framed batches; the server aggregates them, detects
// inter-process variance by comparing the performance of the same v-sensor
// across processes, and accounts the transferred data volume (the paper's
// 8.8 MB vs 501.5 MB tracing comparison).
//
// Frames carry a per-rank sequence number, a cumulative record count, and a
// CRC (see wire.go), so the server tolerates the failure modes of a real,
// lossy link (internal/transport): it deduplicates retransmissions, accepts
// frames out of order, rejects corrupted frames, and tracks per-rank
// delivery coverage so downstream analysis can report confidence on partial
// data instead of silently degrading.
//
// Ingest is sharded: each sender rank's one entry (flow, dedup window,
// progress, lease), its records' sub-log and their share of the epoch
// accumulators live in the shard rank&mask selects (shard.go), so Receives
// from different ranks proceed in parallel. A global arrival ticket,
// assigned under the owning shard's lock, linearizes the sub-logs —
// merging segments by ticket reproduces exactly the log a single global
// lock would have built. Inter-process analysis is incremental (epoch.go):
// in the same critical section that dedups and logs a frame, its records
// fold into the shard's per-(sensor, group, slice) epoch accumulators, and
// a query only evaluates epochs the cross-rank watermark has not yet
// sealed, instead of rescanning every record ever received.
package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
)

// DefaultBatchSize is how many slice records a client buffers before
// transferring them in one frame.
const DefaultBatchSize = 64

// DefaultShards is the ingest shard count when New is used directly.
// Shard counts are rounded up to a power of two so rank routing is a mask.
const DefaultShards = 16

// MaxShards bounds the shard count a caller may request.
const MaxShards = 1 << 10

// Server aggregates slice records from every rank. Concurrent Receives from
// ranks on different shards never contend; queries visit shards one at a
// time and never block ingest for longer than one shard's critical section.
type Server struct {
	shards []*shard
	mask   uint32

	// ticket is the global arrival counter linearizing frames across
	// shards; assigned under the ingesting shard's lock.
	ticket atomic.Uint64

	// rankEntries counts the rank entries over all shards: the capacity a
	// read's per-rank lists are sized with, so they allocate once.
	rankEntries atomic.Int64

	// an is the incremental inter-process analyzer (epoch.go).
	an *analyzer

	// dur is the optional WAL + snapshot layer (wal.go); nil when the server
	// is purely in-memory. down is set between Crash and Recover, making
	// Receive fail fast with ErrServerDown.
	dur  *durability
	down atomic.Bool

	// heartbeats counts liveness frames folded (liveness.go); kept out of
	// Messages and Coverage, which describe record delivery only.
	heartbeats atomic.Int64

	// Frame rejections happen before a trustworthy rank exists, so they are
	// accounted globally rather than per shard.
	checksumErrors atomic.Int64
	rejectedFrames atomic.Int64

	// lin is the record-lineage tracer (nil when lineage is off). Set from
	// SetObs; the unsampled/off ingest path pays only nil checks.
	lin *obs.Lineage

	// snap is the versioned report cache (snapshotcache.go): every ingest
	// outcome bumps its mutation counter, and Snapshot rebuilds the shared
	// report render at most once per state change.
	snap snapshotCache

	// obsBatch is server_batch_bytes (nil-safe no-op when obs is off): the
	// one ingest metric that is not a number the server already keeps.
	obsBatch *obs.Histogram
}

// New creates an empty analysis server with DefaultShards ingest shards.
func New() *Server {
	return NewSharded(DefaultShards)
}

// NewSharded creates an analysis server with the given number of ingest
// shards, rounded up to a power of two in [1, MaxShards]. More shards admit
// more concurrent senders; shards only cost a few empty maps each, so
// over-provisioning is cheap.
func NewSharded(n int) *Server {
	if n <= 0 {
		n = DefaultShards
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	s := &Server{
		shards: make([]*shard, p),
		mask:   uint32(p - 1),
	}
	for i := range s.shards {
		s.shards[i] = newShard(i)
	}
	s.an = newAnalyzer(s.shards)
	s.snap.init()
	return s
}

// Shards returns the ingest shard count.
func (s *Server) Shards() int { return len(s.shards) }

// SetObs attaches ingest metrics. Every number the server already keeps —
// coverage, messages, bytes, heartbeats, liveness, shard, epoch, report-cache
// and durability counts — is registered as a function of the state /status
// reads, evaluated at scrape time, so /metrics and /status never disagree.
// Every family the shards hold comes from one read per scrape (read.go), so
// a scrape's families agree with each other. Only what nothing else records
// is pushed: the batch-size histogram (server_batch_bytes), the
// epoch analyzer's close/reopen counters and lag histogram, and the
// durability layer's histograms and recovery counters. Call before the run
// starts.
func (s *Server) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	o.CounterFunc("server_heartbeats_total", s.Heartbeats)
	o.GaugeFunc("server_shards", func() int64 { return int64(s.Shards()) })
	r := o.Registry()
	src := obs.NewSource(r, func() view { return s.read(readShards) })
	src.Counter("server_messages_total", func(v view) int64 { return v.progress.Messages })
	src.Counter("server_bytes_total", func(v view) int64 { return v.progress.Bytes })
	src.Counter("server_records_total", func(v view) int64 { return v.coverage.IngestedRecords })
	src.Counter("server_dup_frames_total", func(v view) int64 { return v.coverage.DupFrames })
	src.Counter("server_checksum_errors_total", func(v view) int64 { return v.coverage.ChecksumErrors })
	src.Counter("server_rejected_frames_total", func(v view) int64 { return v.coverage.RejectedFrames })
	src.Gauge("server_records_expected", func(v view) int64 { return v.coverage.ExpectedRecords })
	src.Gauge("server_records_ingested", func(v view) int64 { return v.coverage.IngestedRecords })
	src.Gauge("server_ranks_alive", func(v view) int64 { return int64(v.liveness.Alive) })
	src.Gauge("server_ranks_suspect", func(v view) int64 { return int64(v.liveness.Suspect) })
	src.Gauge("server_ranks_dead", func(v view) int64 { return int64(v.liveness.Dead) })
	for i := range s.shards {
		label := strconv.Itoa(i)
		src.Gauge("server_shard_records", func(v view) int64 { return v.perShard[i].Records }, "shard", label)
		src.Gauge("server_shard_frames", func(v view) int64 { return v.perShard[i].Frames }, "shard", label)
	}
	snap := obs.NewSource(r, s.SnapshotStats)
	snap.Gauge("server_report_gen", func(st SnapshotStats) int64 { return int64(st.Gen) })
	snap.Counter("server_report_builds_total", func(st SnapshotStats) int64 { return st.Builds })
	snap.Counter("server_report_hits_total", func(st SnapshotStats) int64 { return st.Hits })
	s.obsBatch = o.Histogram("server_batch_bytes")
	s.lin = o.Lineage()
	s.an.setObs(o)
	if s.dur != nil {
		s.dur.setObs(o)
	}
}

// Receive ingests one encoded frame: validate (length, magic, bounded
// count, CRC), route to the sender rank's shard, deduplicate by (sender
// rank, sequence), copy the validated record bytes into the shard's sub-log
// as they arrived and fold them into the epoch analyzer.
// Duplicate frames are acknowledged (nil error) but not re-ingested;
// corrupted or malformed frames return an error without touching any log.
// Heartbeat frames (liveness.go) fold into the sender's lease state and are
// not counted as messages.
//
// With durability attached, every outcome — ingest, duplicate, rejection,
// heartbeat — is journaled to the WAL before Receive returns, under a
// shared lock that excludes Crash/Recover/Checkpoint, so an acknowledged
// frame is never half-applied when a crash captures the disk.
func (s *Server) Receive(encoded []byte) error {
	d := s.dur
	if d == nil {
		_, _, err := s.receiveLocked(encoded)
		return err
	}
	if s.down.Load() {
		return ErrServerDown
	}
	d.stateMu.RLock()
	if s.down.Load() { // re-check: Crash may have won the lock race
		d.stateMu.RUnlock()
		return ErrServerDown
	}
	h, snapDue, err := s.receiveLocked(encoded)
	d.stateMu.RUnlock()
	// An automatic checkpoint needs the exclusive lock, so it runs after
	// the shared hold is released. Concurrent Receives may all see snapDue;
	// checkpointIfDue lets exactly one of them pay for it.
	if snapDue && err == nil {
		if trace := s.lin.TraceID(h.Rank, h.Seq); trace != 0 {
			t0 := nowUnixNs()
			cerr := s.checkpointIfDue()
			s.lin.Record(trace, obs.StageSnapshot, h.Rank, 0, t0, nowUnixNs()-t0, 0)
			return cerr
		}
		return s.checkpointIfDue()
	}
	return err
}

// receiveLocked is Receive's body; with durability the caller holds the
// stateMu read lock. h is the data frame's parsed header; snapDue reports
// that journaling it made an automatic checkpoint due (always false without
// durability).
func (s *Server) receiveLocked(encoded []byte) (h FrameHeader, snapDue bool, err error) {
	// Every outcome — ingest, duplicate, rejection, heartbeat — invalidates
	// the cached report: any of them can advance the watermark, reopen an
	// epoch, move a liveness lease, or change a counter /status serves.
	defer s.bumpReadVersion()
	if IsHeartbeat(encoded) {
		rank, nowNs, leaseNs, err := parseHeartbeat(encoded)
		if err != nil {
			s.rejectedFrames.Add(1)
			if s.dur != nil {
				if werr := s.dur.logBadFrame(false); werr != nil {
					return h, false, werr
				}
			}
			return h, false, err
		}
		return h, false, s.receiveHeartbeat(rank, nowNs, leaseNs, true)
	}
	h, err = ParseFrame(encoded)
	if err != nil {
		checksum := errors.Is(err, ErrChecksum)
		if checksum {
			s.checksumErrors.Add(1)
		} else {
			s.rejectedFrames.Add(1)
		}
		if s.dur != nil {
			if werr := s.dur.logBadFrame(checksum); werr != nil {
				return h, false, werr
			}
		}
		return h, false, err
	}
	// Time the full live ingest only for sampled frames: the sampler is a
	// few multiplies, so unsampled frames skip both clock reads.
	lin := s.lin
	trace := lin.TraceID(h.Rank, h.Seq)
	var t0 int64
	if trace != 0 {
		t0 = nowUnixNs()
	}
	dup, ticket := s.ingestFrame(h, encoded, 0)
	if !dup {
		s.obsBatch.ObserveInt(int64(len(encoded)))
	}
	var werr error
	if s.dur != nil {
		if dup {
			werr = s.dur.logDup(h.Rank)
		} else {
			snapDue, werr = s.dur.logFrame(ticket, encoded, h.Rank, trace)
		}
	}
	if trace != 0 {
		now := nowUnixNs()
		dupArg := int64(0)
		if dup {
			dupArg = 1
		}
		lin.Record(trace, obs.StageDedup, h.Rank, 0, now, 0, dupArg)
		lin.Record(trace, obs.StageIngest, h.Rank, 0, t0, now-t0, int64(h.Count))
	}
	return h, snapDue, werr
}

// ingestFrame applies one parsed, validated frame to the shard state and
// the epoch analyzer in one critical section. forceTicket non-zero replays
// the frame under its original arrival ticket (WAL recovery), which records
// no lineage spans: replay reconstructs state, not history.
func (s *Server) ingestFrame(h FrameHeader, encoded []byte, forceTicket uint64) (dup bool, ticket uint64) {
	sh := s.shardFor(h.Rank)
	sh.mu.Lock()
	// Even a duplicate can raise the flow's maxSeq/maxCum, so the sender is
	// marked before dedup decides.
	rs := s.touch(sh, h.Rank)
	if h.Seq > rs.maxSeq {
		rs.maxSeq = h.Seq
	}
	if h.CumRecords > rs.maxCum {
		sh.expectedRecords += int64(h.CumRecords - rs.maxCum)
		rs.maxCum = h.CumRecords
	}
	if rs.seen(h.Seq) {
		sh.dupFrames++
		sh.mu.Unlock()
		return true, 0
	}
	rs.markSeen(h.Seq)
	rs.frames++
	rs.records += int64(h.Count)
	sh.ingestedRecords += int64(h.Count)

	if forceTicket != 0 {
		ticket = forceTicket
		// Replay runs under the exclusive stateMu, so a plain
		// load-compare-store cannot race another ticket assignment.
		if ticket > s.ticket.Load() {
			s.ticket.Store(ticket)
		}
	} else {
		ticket = s.ticket.Add(1)
	}
	recs := sh.store(encoded[FrameHeaderSize:])
	sh.segments = append(sh.segments, segment{ticket: ticket, recs: recs})
	sh.bytesReceived += int64(len(encoded))
	sh.messages++
	for off := 0; off < len(recs); off += recordWireSize {
		if ns := recAt(recs, off).sliceNs(); ns > rs.latestSliceNs {
			rs.latestSliceNs = ns
		}
	}
	sh.latestSliceNs = max(sh.latestSliceNs, rs.latestSliceNs)
	// Fold before the unlock publishes the rank's advanced slice, so no
	// watermark counts records an epoch lacks. Replay derives the same trace as live
	// ingest did, so recovered epochs keep their sampled journeys.
	s.an.fold(sh, recs, s.lin.TraceID(h.Rank, h.Seq), forceTicket == 0)
	sh.mu.Unlock()
	return false, ticket
}

// Records returns a snapshot of the received slice records in arrival
// (ticket) order. The snapshot is built from per-shard segment views — no
// shard lock is held while the merged copy is decoded, and an ingest racing
// the snapshot only affects whether its frame is included, never the
// integrity of the records that are.
func (s *Server) Records() []detect.SliceRecord {
	return decodeSegments(s.read(readLog).segs, 0)
}

// Client is a per-rank connection to the analysis server. It implements
// detect.Emitter, buffering records and transferring them in framed batches
// (paper: "each process buffers its data locally and periodically
// transfers them in batch to analysis-server"). This client delivers
// in-process and reliably; internal/transport wraps the same wire format in
// a lossy, fault-injectable link. Not safe for concurrent use; each rank
// owns one client.
type Client struct {
	server    *Server
	rank      int
	batchSize int
	buf       []detect.SliceRecord
	enc       []byte // reusable wire buffer; one allocation per client

	seq       uint64
	cum       uint64
	sent      int64
	bytesSent int64
	refused   bool  // last flush hit a down server; its records are still buffered
	packed    int64 // flushes that delivered more than one flush interval
}

// NewClient connects a rank to the server. batchSize <= 0 selects the
// default; batchSize 1 effectively disables batching (ablation A4).
func (s *Server) NewClient(rank, batchSize int) *Client {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Client{server: s, rank: rank, batchSize: batchSize}
}

// OnSlice buffers one record, flushing when the batch is full.
func (c *Client) OnSlice(r detect.SliceRecord) error {
	c.buf = append(c.buf, r)
	if len(c.buf) >= c.batchSize {
		return c.Flush()
	}
	return nil
}

// Flush transfers the buffered records as sequenced frames — normally one,
// chunked only when packing accumulated more than a frame can carry. The
// wire buffer is reused across flushes, so a warm client allocates nothing
// per batch.
//
// Backpressure packing: when the server is down (ErrServerDown, between
// Crash and Recover), the flush's sequence number is rolled back and the
// records stay buffered — a refused frame never touched the server's dedup
// state, so the next flush may legally re-cut the same sequence number
// around a bigger batch, packing multiple flush intervals into one frame.
// Any other delivery error (impossible for a self-encoded frame, but the
// emitter contract allows it) drops the chunk's records rather than
// retrying — retry belongs to internal/transport.
func (c *Client) Flush() error {
	for len(c.buf) > 0 {
		n := len(c.buf)
		if n > MaxFrameRecords {
			n = MaxFrameRecords
		}
		c.seq++
		c.cum += uint64(n)
		c.enc = AppendFrame(c.enc[:0], FrameHeader{Rank: c.rank, Seq: c.seq, CumRecords: c.cum}, c.buf[:n])
		if err := c.server.Receive(c.enc); err != nil {
			seq := c.seq
			if errors.Is(err, ErrServerDown) {
				c.seq--
				c.cum -= uint64(n)
				c.refused = true
			} else {
				c.buf = c.buf[:copy(c.buf, c.buf[n:])]
			}
			return fmt.Errorf("server: frame %d from rank %d rejected: %w", seq, c.rank, err)
		}
		if lin := c.server.lin; lin.TraceID(c.rank, c.seq) != 0 {
			lin.FrameSampled()
		}
		if c.refused {
			c.packed++
			c.refused = false
		}
		c.sent += int64(n)
		c.bytesSent += int64(len(c.enc))
		c.buf = c.buf[:copy(c.buf, c.buf[n:])]
	}
	return nil
}

// PackedFlushes reports how many flushes delivered records accumulated
// across more than one flush interval (backpressure packing).
func (c *Client) PackedFlushes() int64 { return c.packed }

// NextTrace reports the lineage trace ID of the *next* flushed frame (0
// when unsampled or lineage is off). Records buffered now leave in frame
// seq+1, so the detector can tag its emit span with the same trace the
// server derives for that frame. Implements detect.TraceSource.
func (c *Client) NextTrace() uint64 { return c.server.lin.TraceID(c.rank, c.seq+1) }

// BytesSent returns the client's total encoded payload bytes.
func (c *Client) BytesSent() int64 { return c.bytesSent }

// RecordsSent returns how many slice records this client shipped.
func (c *Client) RecordsSent() int64 { return c.sent }

// ---------- delivery coverage ----------

// Coverage summarizes how completely the server's record log reflects what
// the ranks sent: expected counts come from the frame headers' sequence and
// cumulative-record fields, so gaps from dropped or still-parked frames are
// visible even though their contents never arrived.
type Coverage struct {
	ExpectedRecords int64 // highest cumulative count claimed, summed over ranks
	IngestedRecords int64 // records actually stored in the log
	ExpectedFrames  int64 // highest sequence observed, summed over ranks
	IngestedFrames  int64 // distinct frames ingested
	DupFrames       int64 // retransmissions absorbed by dedup
	ChecksumErrors  int64 // frames rejected by CRC (bit corruption)
	RejectedFrames  int64 // frames rejected for framing/header errors
}

// Fraction returns ingested/expected records, 1.0 when nothing is missing
// (including the no-data case).
func (c Coverage) Fraction() float64 {
	if c.ExpectedRecords <= 0 {
		return 1
	}
	return float64(c.IngestedRecords) / float64(c.ExpectedRecords)
}

// Complete reports whether every record any rank claims to have sent was
// ingested.
func (c Coverage) Complete() bool { return c.IngestedRecords >= c.ExpectedRecords }

// Coverage returns the server's delivery-coverage snapshot.
func (s *Server) Coverage() Coverage { return s.read(0).coverage }

// ShardCoverage is one ingest shard's slice of the delivery accounting, for
// dashboards that want to see load spread across shards.
type ShardCoverage struct {
	Shard           int
	Ranks           int // distinct ranks routed to this shard
	Frames          int64
	Records         int64
	ExpectedRecords int64
	DupFrames       int64
}

// PerShardCoverage returns each shard's delivery accounting in shard order.
func (s *Server) PerShardCoverage() []ShardCoverage { return s.read(readShards).perShard }

// ---------- inter-process analysis ----------

// Outlier is a rank whose performance for one sensor in one time slice lags
// its peers — the inter-process variance of paper §5.4.
type Outlier struct {
	Sensor  int
	SliceNs int64
	Rank    int
	Perf    float64 // rank's normalized perf relative to the slice median
}

// InterProcessOutliers compares the same v-sensor across processes per
// slice: a rank is an outlier when its average time exceeds the cross-rank
// median by more than 1/threshold (e.g. threshold 0.8 → 25% slower).
//
// The comparison is evaluated incrementally: records were folded into
// per-(sensor, group, slice) epochs at ingest, so this call only computes
// medians for epochs still open under the cross-rank watermark — closed
// epochs reuse their cached result. The outcome is exactly what a batch
// recompute over Records() would produce, and is invariant under record
// arrival order: late records reopen their epoch rather than being dropped.
//
// The watermark is the earliest latest-slice over every rank that has
// reported and is not lease-expired — the virtual instant every live sender
// is known to have progressed past. Epochs for slices strictly before it are
// sealed; a reordered frame arriving later still reopens its epoch, so the
// watermark is a performance hint, never a correctness gate. Ranks the lease
// state machine classifies Dead (liveness.go) are excluded: a rank that
// stopped reporting would otherwise pin the watermark forever, so no epoch
// would ever close. Without leases every rank is Alive and this is exactly
// the all-ranks minimum.
func (s *Server) InterProcessOutliers(threshold float64) []Outlier {
	v := s.read(0)
	return s.outliersAt(threshold, v.watermarkNs, v.haveWatermark)
}

// outliersAt renders the outliers under the given watermark in the order
// every outlier surface serves.
func (s *Server) outliersAt(threshold float64, watermarkNs int64, haveWatermark bool) []Outlier {
	out := s.an.outliers(threshold, watermarkNs, haveWatermark)
	sortOutliers(out)
	return out
}

// OutlierReport pairs the inter-process outliers with the delivery coverage
// and rank liveness they were computed under, so a consumer of partial data
// sees "found these, but 12% of records never arrived and rank 3 is dead"
// instead of a silently thinner answer.
type OutlierReport struct {
	Outliers []Outlier
	Coverage Coverage

	// Liveness is every known rank's lease state; DeadRanks lists the ranks
	// whose leases expired past recovery (in rank order). Degraded is set
	// when any rank is dead: the verdict intentionally excludes senders that
	// stopped reporting rather than stalling on them.
	Liveness  []RankLiveness
	DeadRanks []int
	Degraded  bool

	// LivenessConfidence is the fraction of known ranks still contributing
	// (alive or suspect); 1.0 when no rank is dead.
	LivenessConfidence float64

	// Confidence combines delivery and liveness: Coverage.Fraction() ×
	// LivenessConfidence. 1.0 means a complete log from a fully live fleet.
	Confidence float64
}

// InterProcessReport runs InterProcessOutliers and stamps the result with
// the current coverage and liveness. With a permanently dead rank the
// report is degraded, not stalled: the dead rank is named, excluded from
// the watermark, and discounted from Confidence.
func (s *Server) InterProcessReport(threshold float64) OutlierReport {
	v := s.read(readRanks)
	return v.report(s.outliersAt(threshold, v.watermarkNs, v.haveWatermark))
}
