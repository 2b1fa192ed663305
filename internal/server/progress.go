package server

import (
	"sort"

	"vsensor/internal/detect"
)

// RecordsSince returns the slice records received after the given cursor
// along with the new cursor. It lets a reporting loop poll the server while
// a job is still running and update figures incrementally — the paper's
// "the performance report is updated periodically, thus users can notice
// performance variance without waiting for a program to finish" (§2).
//
// The cursor counts records in the linearized (ticket-ordered) log. Because
// the snapshot only exposes the contiguous ticket prefix (see
// orderedSegments), the merged log is strictly append-only across polls: a
// frame whose ticket is committed but whose predecessor is still in flight
// stays invisible until the predecessor lands, so a cursor handed back to
// the caller never points past records a later poll would insert before it.
func (s *Server) RecordsSince(cursor int) ([]detect.SliceRecord, int) {
	if cursor < 0 {
		cursor = 0
	}
	segs := s.orderedSegments()
	total := 0
	for _, sg := range segs {
		total += len(sg.recs)
	}
	if cursor > total {
		cursor = total
	}
	out := make([]detect.SliceRecord, 0, total-cursor)
	skip := cursor
	for _, sg := range segs {
		if skip >= len(sg.recs) {
			skip -= len(sg.recs)
			continue
		}
		out = append(out, sg.recs[skip:]...)
		skip = 0
	}
	return out, total
}

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

// PerRankProgress returns each rank's incremental ingest state in rank
// order. Like Progress, it reads pre-aggregated per-shard state rather
// than rescanning records.
func (s *Server) PerRankProgress() []RankProgress {
	// Records are routed to shards by the frame header's rank, but progress
	// is keyed by the record payload's rank; a frame carrying records for a
	// different rank would leave entries for one rank in two shards, so
	// merge by rank before sorting.
	merged := make(map[int]RankProgress)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, rp := range sh.perRank {
			m := merged[rp.Rank]
			m.Rank = rp.Rank
			m.Records += rp.Records
			if rp.LatestSliceNs > m.LatestSliceNs {
				m.LatestSliceNs = rp.LatestSliceNs
			}
			merged[rp.Rank] = m
		}
		sh.mu.Unlock()
	}
	out := make([]RankProgress, 0, len(merged))
	for _, m := range merged {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}
