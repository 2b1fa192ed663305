package server

import (
	"cmp"
	"slices"
)

// Progress summarizes how much data the server has seen, for live
// dashboards.
type Progress struct {
	Records  int
	Messages int64
	Bytes    int64
	// LatestSliceNs is the most recent slice start observed; it advances
	// with the job's virtual time.
	LatestSliceNs int64
}

// RankProgress is one rank's ingest state, for live per-rank dashboards.
type RankProgress struct {
	Rank          int
	Records       int
	LatestSliceNs int64
}

// What a read copies beyond the totals, the liveness counts and the
// watermark, which every read carries.
const (
	readRanks  = 1 << iota // the per-rank progress and liveness lists
	readShards             // the per-shard coverage list
	readLog                // the ticket-ordered record log
)

// view is what one read copied out of the shards. Every number in it was
// taken inside the same per-shard critical sections, so its totals, lists,
// liveness counts and watermark agree with each other: a /status generation
// or a /metrics scrape never mixes instants.
type view struct {
	ticket   uint64 // arrival tickets assigned when the read began
	progress Progress
	perRank  []RankProgress // readRanks: every rank that reported records, in rank order
	coverage Coverage
	perShard []ShardCoverage // readShards: in shard order
	liveness LivenessSummary
	ranks    []RankLiveness // readRanks: every known rank, in rank order

	// watermarkNs is the earliest latest-slice over the ranks that reported
	// records and are not Dead (haveWatermark false before any did); see
	// InterProcessOutliers.
	watermarkNs   int64
	haveWatermark bool

	// segs (readLog) is every shard's committed segments placed by ticket
	// and cut at the first gap.
	segs []segment
}

// heldRank is a leased rank's row, held until the end of the sweep knows the
// frontier its lease state is measured against.
type heldRank struct {
	rank                      int
	lastNs, leaseNs, latestNs int64
	reported                  bool
}

// read sweeps the shards once, taking each shard's lock once and copying
// everything the caller asked for (want, a set of read* bits) inside that
// critical section. It is the only place reader state is taken from the
// shards; every public reader, the snapshot build and the scrape-time
// families are projections of one read.
//
// A rank is known once it reported records or heartbeats. Its lease state
// compares its lag behind the frontier — the newest last-seen mark of any
// rank — with its lease, and only the end of the sweep knows the frontier.
// A lease-free rank is always Alive, so it is counted and folded into the
// watermark in place; only a leased rank is held as a row until the end. A
// read without readRanks therefore costs no row, sort or allocation per
// rank while no rank holds a lease, which keeps dashboard polls racing
// ingest cheap.
//
// The log is placed by ticket: committed segments carry the dense tickets
// 1..N, so one pass rebuilds the linearized log. The ticket read before the
// sweep bounds it; a segment committed after carries a higher ticket and
// waits for the next read. A reader can see ticket t+1 committed on one
// shard while t is still being written on another, so the log is cut at the
// first gap: withholding everything from there on keeps the merged log
// append-only across reads, which a RecordsWindow cursor requires.
func (s *Server) read(want int) view {
	v := view{ticket: s.ticket.Load()}
	v.coverage.ChecksumErrors = s.checksumErrors.Load()
	v.coverage.RejectedFrames = s.rejectedFrames.Load()
	lists := want&readRanks != 0
	if lists {
		n := int(s.rankEntries.Load())
		v.perRank = make([]RankProgress, 0, n)
		v.ranks = make([]RankLiveness, 0, n)
	}
	if want&readShards != 0 {
		v.perShard = make([]ShardCoverage, len(s.shards))
	}
	if want&readLog != 0 {
		v.segs = make([]segment, v.ticket)
	}
	lower := func(sliceNs int64) {
		if !v.haveWatermark || sliceNs < v.watermarkNs {
			v.watermarkNs, v.haveWatermark = sliceNs, true
		}
	}
	var held []heldRank
	for i, sh := range s.shards {
		sh.mu.Lock()
		v.progress.Records += int(sh.ingestedRecords)
		v.progress.Messages += sh.messages
		v.progress.Bytes += sh.bytesReceived
		v.progress.LatestSliceNs = max(v.progress.LatestSliceNs, sh.latestSliceNs)
		v.coverage.ExpectedRecords += sh.expectedRecords
		v.coverage.IngestedRecords += sh.ingestedRecords
		v.coverage.DupFrames += sh.dupFrames
		if v.perShard != nil {
			v.perShard[i] = ShardCoverage{Shard: i, Ranks: len(sh.ranks), Frames: int64(len(sh.segments)),
				Records: sh.ingestedRecords, ExpectedRecords: sh.expectedRecords, DupFrames: sh.dupFrames}
		}
		for rank, rs := range sh.ranks {
			v.coverage.ExpectedFrames += int64(rs.maxSeq)
			v.coverage.IngestedFrames += rs.frames
			if rs.records == 0 && !rs.heartbeat {
				continue
			}
			last := max(rs.latestSliceNs, rs.hbNs)
			v.liveness.FrontierNs = max(v.liveness.FrontierNs, last)
			if lists && rs.records > 0 {
				v.perRank = append(v.perRank, RankProgress{Rank: rank, Records: int(rs.records), LatestSliceNs: rs.latestSliceNs})
			}
			if rs.leaseNs > 0 {
				held = append(held, heldRank{rank, last, rs.leaseNs, rs.latestSliceNs, rs.records > 0})
				continue
			}
			v.liveness.Alive++
			if rs.records > 0 {
				lower(rs.latestSliceNs)
			}
			if lists {
				v.ranks = append(v.ranks, RankLiveness{Rank: rank, LastSeenNs: last})
			}
		}
		if v.segs != nil {
			for _, sg := range sh.segments {
				if sg.ticket <= v.ticket {
					v.segs[sg.ticket-1] = sg
				}
			}
		}
		sh.mu.Unlock()
	}
	frontier := v.liveness.FrontierNs
	for i := range v.ranks {
		v.ranks[i].LagNs = frontier - v.ranks[i].LastSeenNs
	}
	for _, h := range held {
		rl := RankLiveness{Rank: h.rank, LastSeenNs: h.lastNs, LeaseNs: h.leaseNs, LagNs: frontier - h.lastNs}
		switch {
		case rl.LagNs > deadFactor*rl.LeaseNs:
			rl.State = Dead
			v.liveness.Dead++
		case rl.LagNs > rl.LeaseNs:
			rl.State = Suspect
			v.liveness.Suspect++
		default:
			v.liveness.Alive++
		}
		if h.reported && rl.State != Dead {
			lower(h.latestNs)
		}
		if lists {
			v.ranks = append(v.ranks, rl)
		}
	}
	if lists {
		slices.SortFunc(v.perRank, func(a, b RankProgress) int { return cmp.Compare(a.Rank, b.Rank) })
		slices.SortFunc(v.ranks, func(a, b RankLiveness) int { return cmp.Compare(a.Rank, b.Rank) })
	}
	for i := range v.segs {
		if v.segs[i].ticket == 0 {
			v.segs = v.segs[:i]
			break
		}
	}
	return v
}

// report stamps rendered outliers with the view's coverage and liveness —
// shared by InterProcessReport and the snapshot build so both produce the
// same OutlierReport for the same read. The view must carry readRanks.
func (v *view) report(outliers []Outlier) OutlierReport {
	rep := OutlierReport{Outliers: outliers, Coverage: v.coverage, Liveness: v.ranks, LivenessConfidence: 1}
	for _, rl := range v.ranks {
		if rl.State == Dead {
			rep.DeadRanks = append(rep.DeadRanks, rl.Rank)
		}
	}
	rep.Degraded = len(rep.DeadRanks) > 0
	if n := len(v.ranks); n > 0 {
		rep.LivenessConfidence = float64(n-len(rep.DeadRanks)) / float64(n)
	}
	rep.Confidence = v.coverage.Fraction() * rep.LivenessConfidence
	return rep
}

// Progress returns the server's ingest totals. Every field is kept
// incrementally at ingest, so a poll costs a sweep of the shards' counters
// and rank entries regardless of how many records have accumulated.
func (s *Server) Progress() Progress { return s.read(0).progress }

// PerRankProgress returns the ingest state of every rank that has reported
// records, in rank order.
func (s *Server) PerRankProgress() []RankProgress { return s.read(readRanks).perRank }
