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

// Progress returns a snapshot of the server's ingest state. All fields are
// maintained incrementally at ingest, so a poll touches one counter per
// shard regardless of how many records have accumulated.
func (s *Server) Progress() Progress {
	var p Progress
	for _, sh := range s.shards {
		sh.mu.Lock()
		p.Records += int(sh.ingestedRecords)
		p.Messages += sh.messages
		p.Bytes += sh.bytesReceived
		if sh.latestSliceNs > p.LatestSliceNs {
			p.LatestSliceNs = sh.latestSliceNs
		}
		sh.mu.Unlock()
	}
	return p
}

// RankProgress is one rank's ingest state, for live per-rank dashboards.
type RankProgress struct {
	Rank          int
	Records       int
	LatestSliceNs int64
}

// PerRankProgress returns the ingest state of every rank that has reported
// records, in rank order. Like Progress, it reads pre-aggregated per-shard
// state rather than rescanning records; each rank's entry lives in one shard.
func (s *Server) PerRankProgress() []RankProgress {
	out := make([]RankProgress, 0, s.rankCount())
	for _, sh := range s.shards {
		sh.mu.Lock()
		for rank, rs := range sh.ranks {
			if rs.records > 0 {
				out = append(out, RankProgress{Rank: rank, Records: int(rs.records), LatestSliceNs: rs.latestSliceNs})
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b RankProgress) int { return cmp.Compare(a.Rank, b.Rank) })
	return out
}
