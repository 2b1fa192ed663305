package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/detect"
)

// DefaultSnapshotThreshold is the outlier threshold every snapshot
// generation renders its report at, so /status and /outliers serve one
// render. A direct InterProcessOutliers/InterProcessReport call passes its
// own threshold instead (the CLI and the benchmark 0.8, the examples
// 0.85), so its verdict can list outliers the snapshot's does not.
const DefaultSnapshotThreshold = 0.9

// Rebuild throttle: with thousands of pollers racing continuous ingest,
// every poll would otherwise observe a newer mutation version and trigger
// its own rebuild — reintroducing the per-request sweep tax the cache
// exists to remove. Consecutive rebuilds are therefore spaced by a multiple
// of the last rebuild's own cost (bounded below), which caps the rebuild
// rate at a fixed fraction of one core regardless of poller count while
// keeping staleness at roughly one interval: factor 39 bounds the rebuild
// duty cycle at ~2.5% of a core (1 build per 39 build-times of quiet),
// which keeps a 10k-poller storm inside the read-tax budget even on a
// single-core host where every rebuild steals directly from ingest. A
// quiescent server is exempt: once ingest stops, the version stops moving
// and the next rebuild is the last.
const (
	minSnapshotRebuildGap = 200 * time.Microsecond
	snapshotRebuildFactor = 39
)

// ReportSnapshot is one immutable generation of the server's full report:
// outliers, coverage, liveness, progress, and the ordered-segment record
// view, all captured at a single mutation version and stamped with the
// epoch watermark and arrival ticket of that instant. Every field is
// read-only after construction, so any number of pollers can share one
// snapshot without locks; /status, /records, the outlier endpoints, and the
// facade's Report all serve from the same instance until the watermark
// advances.
type ReportSnapshot struct {
	// Gen is the render generation — strictly monotone over the server's
	// lifetime (crash/recover included), and the value served as the HTTP
	// ETag. Two responses with equal Gen are byte-identical.
	Gen uint64

	// Ticket and watermark stamp the ingest instant the snapshot describes:
	// Ticket is the last arrival ticket assigned, WatermarkNs the cross-rank
	// epoch watermark (HaveWatermark false before any rank reports).
	Ticket        uint64
	WatermarkNs   int64
	HaveWatermark bool

	// Threshold is the outlier threshold Report was rendered at.
	Threshold float64

	// Down marks a snapshot served while the server is between Crash and
	// Recover. The remaining fields then describe the last state rendered
	// before the crash — the dashboard's "last known good" during an outage.
	Down bool

	Progress   Progress
	PerRank    []RankProgress
	Coverage   Coverage
	PerShard   []ShardCoverage
	Epochs     EpochStats
	Liveness   LivenessSummary
	Report     OutlierReport
	Durability DurabilityStats

	// version is the mutation counter value the snapshot was built at; segs
	// is the ordered-segment record view and total the records it holds, so
	// record windows are served without copying the log.
	version uint64
	segs    []segment
	total   int
}

// Outliers returns the rendered inter-process outliers.
func (sn *ReportSnapshot) Outliers() []Outlier { return sn.Report.Outliers }

// Total returns the number of records in the snapshot's ordered view — the
// cursor a fully caught-up client holds.
func (sn *ReportSnapshot) Total() int { return sn.total }

// BaseCursor returns the smallest valid cursor for this snapshot's record
// window. It is 0 today (the log is never compacted in place), but clients
// must take it from the response rather than assume it: a crash with an
// unsynced WAL tail recovers a shorter log, and the explicit base is how a
// client detects that its cursor now points past the end.
func (sn *ReportSnapshot) BaseCursor() int { return 0 }

// RecordsWindow returns the records at positions [cursor, Total()) of the
// snapshot's ordered view, the cursor to resume from, and the window base.
// ok is false when the cursor is outside [base, total] — negative, or
// beyond the end of a log that shrank across a crash — in which case the
// caller should restart from base. The returned slice is never nil.
func (sn *ReportSnapshot) RecordsWindow(cursor int) (recs []detect.SliceRecord, next, base int, ok bool) {
	base = sn.BaseCursor()
	if cursor < base || cursor > sn.total {
		return []detect.SliceRecord{}, base, base, false
	}
	return decodeSegments(sn.segs, cursor-base), sn.total, base, true
}

// Records materializes the snapshot's full ordered record view.
func (sn *ReportSnapshot) Records() []detect.SliceRecord {
	recs, _, _, _ := sn.RecordsWindow(sn.BaseCursor())
	return recs
}

// snapshotCache is the server-side versioned report cache. A mutation
// counter (ver) is bumped by every state change — frame ingest, dedup,
// reject, heartbeat, crash, recover — and Snapshot rebuilds lazily,
// single-flight, only when the counter moved past the cached render.
type snapshotCache struct {
	ver atomic.Uint64                  // mutation counter; bumped by every state change
	cur atomic.Pointer[ReportSnapshot] // latest render; nil before first Snapshot

	// mu serializes rebuilds and guards lastBuild/buildDur; the generation
	// is the published snapshot's Gen, read without it.
	mu        sync.Mutex
	lastBuild time.Time
	buildDur  time.Duration

	hits   atomic.Int64 // Snapshot calls served from cur without a rebuild
	builds atomic.Int64 // rebuilds performed

	// Long-poll fan-out: waiters park on notify, which is closed and
	// replaced on every version bump — one channel close wakes any number
	// of pollers. waiters gates the broadcast so poller-free ingest pays a
	// single atomic load.
	notifyMu sync.Mutex
	notify   chan struct{}
	waiters  atomic.Int32
}

func (c *snapshotCache) init() {
	c.notify = make(chan struct{})
}

// bumpReadVersion invalidates the cached report and wakes long-pollers.
// Called on every ingest outcome (any of which can advance the watermark,
// reopen an epoch, or flip a liveness lease) and by Crash/Recover.
func (s *Server) bumpReadVersion() {
	c := &s.snap
	c.ver.Add(1)
	if c.waiters.Load() > 0 {
		c.notifyMu.Lock()
		close(c.notify)
		c.notify = make(chan struct{})
		c.notifyMu.Unlock()
	}
}

func (c *snapshotCache) waitChan() <-chan struct{} {
	c.notifyMu.Lock()
	ch := c.notify
	c.notifyMu.Unlock()
	return ch
}

// Snapshot returns the current report snapshot, rebuilding it only if the
// server state changed since the last render. The fast path — nothing
// changed — is two atomic loads, so any number of concurrent pollers share
// one render per state change. Rebuilds are single-flight and throttled
// (see minSnapshotRebuildGap), and a reader never queues behind the
// builder: while a rebuild (or its throttle window) is in progress,
// concurrent readers are served the latest completed render. That bounds
// staleness under churn at roughly one throttle interval and makes a
// poller storm cost the ingest path one background sweep per interval
// instead of a convoy. Once the server quiesces the rebuild lock is
// uncontended, so the first Snapshot after the last mutation renders the
// final state — sequential read-your-writes callers (the CLI, tests) are
// always exact.
func (s *Server) Snapshot() *ReportSnapshot {
	c := &s.snap
	if sn := c.cur.Load(); sn != nil && sn.version == c.ver.Load() {
		c.hits.Add(1)
		return sn
	}
	if !c.mu.TryLock() {
		// A rebuild is in flight. First-ever render: wait for it (there is
		// nothing to serve yet). Otherwise serve the latest completed one.
		if c.cur.Load() == nil {
			c.mu.Lock()
		} else {
			sn := c.cur.Load()
			c.hits.Add(1)
			return sn
		}
	}
	defer c.mu.Unlock()
	if sn := c.cur.Load(); sn != nil && sn.version == c.ver.Load() {
		c.hits.Add(1)
		return sn
	}
	if c.cur.Load() != nil {
		gap := c.buildDur * snapshotRebuildFactor
		if gap < minSnapshotRebuildGap {
			gap = minSnapshotRebuildGap
		}
		// Sleeping while holding mu is the throttle: other readers are not
		// blocked (they serve the previous render above), and state changes
		// accumulated during the sleep are folded into the build below.
		if wait := time.Until(c.lastBuild.Add(gap)); wait > 0 {
			time.Sleep(wait)
		}
	}
	start := time.Now()
	sn := s.buildSnapshot()
	if sn == nil {
		// Down (between Crash and Recover): serve the last pre-crash render
		// as "last known good" rather than a half-wiped sweep. Recover bumps
		// the version, so the first post-recovery read rebuilds.
		if old := c.cur.Load(); old != nil {
			c.hits.Add(1)
			return old
		}
		sn = &ReportSnapshot{
			version:   c.ver.Load(),
			Threshold: DefaultSnapshotThreshold,
			Down:      true,
		}
	}
	// Only a builder holding mu publishes, so Gen stays strictly monotone.
	sn.Gen = s.SnapshotStats().Gen + 1
	c.cur.Store(sn)
	c.lastBuild = time.Now()
	c.buildDur = c.lastBuild.Sub(start)
	c.builds.Add(1)
	return sn
}

// buildSnapshot renders the full report at the current mutation version, or
// nil when the server is down. With durability attached it holds the shared
// state lock, so a render never interleaves with Crash/Recover wiping or
// reinstalling the shards.
func (s *Server) buildSnapshot() *ReportSnapshot {
	if d := s.dur; d != nil {
		d.stateMu.RLock()
		defer d.stateMu.RUnlock()
	}
	if s.down.Load() {
		return nil
	}
	// The version is taken before the read, so a state change racing it
	// leaves the render behind the counter and the next Snapshot rebuilds.
	version := s.snap.ver.Load()
	v := s.read(readRanks | readShards | readLog)
	sn := &ReportSnapshot{
		version: version, Ticket: v.ticket, Threshold: DefaultSnapshotThreshold,
		WatermarkNs: v.watermarkNs, HaveWatermark: v.haveWatermark,
		Progress: v.progress, PerRank: v.perRank, Coverage: v.coverage,
		PerShard: v.perShard, Liveness: v.liveness, segs: v.segs,
	}
	for _, sg := range sn.segs {
		sn.total += sg.records()
	}
	sn.Report = v.report(s.outliersAt(DefaultSnapshotThreshold, v.watermarkNs, v.haveWatermark))
	// Epoch counts are captured after the outlier render: computing outliers
	// seals epochs under the watermark, and the cached report must agree
	// with a fresh recompute at the same instant (sealing is idempotent).
	sn.Epochs = s.EpochStats()
	sn.Durability = s.DurabilityStats()
	return sn
}

// WaitSnapshot is the long-poll primitive behind ?wait=1: it blocks until
// the snapshot generation exceeds afterGen, or timeout elapses, and returns
// the current snapshot either way. N parked pollers cost one channel close
// per state change — no per-poller goroutines or timers on the ingest path.
// When the state already moved past the render Snapshot served — another
// reader's rebuild, or its throttle sleep, holds the rebuild lock — the
// waiter parks behind that rebuild rather than spinning back into Snapshot,
// so a wait can overrun its timeout by at most one rebuild window.
func (s *Server) WaitSnapshot(afterGen uint64, timeout time.Duration) *ReportSnapshot {
	c := &s.snap
	deadline := time.Now().Add(timeout)
	for {
		sn := s.Snapshot()
		if sn.Gen > afterGen || !time.Now().Before(deadline) {
			return sn
		}
		// Register before re-checking the version: a bump after registration
		// is guaranteed to broadcast, and a bump before it is caught by the
		// re-check. While down, Snapshot serves a stale render whose version
		// lags the counter permanently — park anyway; Recover's bump wakes us.
		c.waiters.Add(1)
		ch := c.waitChan()
		if c.ver.Load() != sn.version && !s.down.Load() {
			c.waiters.Add(-1)
			c.mu.Lock() // wait out the in-flight rebuild, then look again
			c.mu.Unlock()
			continue
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
		case <-timer.C:
		}
		timer.Stop()
		c.waiters.Add(-1)
	}
}

// SnapshotStats describes the report cache: the current generation, how
// many reads it served, and how many of those required a rebuild.
type SnapshotStats struct {
	Gen    uint64
	Reads  int64
	Hits   int64
	Builds int64
}

// HitRate is the fraction of reads served without a rebuild.
func (st SnapshotStats) HitRate() float64 {
	if st.Reads == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Reads)
}

// SnapshotStats returns the report cache counters. It never waits: Gen is
// the published snapshot's, not read under the rebuild lock that Snapshot
// holds across its throttle sleep.
func (s *Server) SnapshotStats() SnapshotStats {
	hits := s.snap.hits.Load()
	builds := s.snap.builds.Load()
	var gen uint64
	if sn := s.snap.cur.Load(); sn != nil {
		gen = sn.Gen
	}
	return SnapshotStats{Gen: gen, Reads: hits + builds, Hits: hits, Builds: builds}
}

// sortOutliers orders outliers by (slice, sensor, rank, perf) — the
// arrival-order-invariant order every outlier surface serves.
func sortOutliers(out []Outlier) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].SliceNs != out[j].SliceNs {
			return out[i].SliceNs < out[j].SliceNs
		}
		if out[i].Sensor != out[j].Sensor {
			return out[i].Sensor < out[j].Sensor
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		// Perf breaks the remaining tie (two records from one rank in the
		// same keyed group) so the order never depends on arrival order.
		return out[i].Perf < out[j].Perf
	})
}
