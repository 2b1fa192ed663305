package server

import (
	"sync"
	"time"

	"vsensor/internal/obs"
)

// StatusView is the server's part of the /status "run" body for one
// snapshot generation; Durability and Down only with durability attached.
type StatusView struct {
	Gen         uint64           `json:"gen"`
	Ticket      uint64           `json:"ticket"`
	WatermarkNs int64            `json:"watermark_ns"`
	Progress    Progress         `json:"progress"`
	PerRank     []RankProgress   `json:"per_rank"`
	Coverage    Coverage         `json:"coverage"`
	PerShard    []ShardCoverage  `json:"per_shard"`
	Epochs      EpochStats       `json:"epochs"`
	Liveness    LivenessSummary  `json:"liveness"`
	Durability  *DurabilityStats `json:"durability,omitempty"`
	Down        *bool            `json:"down,omitempty"`
}

// OutliersView is the /outliers body; empty slices render as [], not null.
type OutliersView struct {
	Gen         uint64    `json:"gen"`
	Threshold   float64   `json:"threshold"`
	WatermarkNs int64     `json:"watermark_ns"`
	Outliers    []Outlier `json:"outliers"`
	Degraded    bool      `json:"degraded"`
	DeadRanks   []int     `json:"dead_ranks"`
	Confidence  float64   `json:"confidence"`
}

// StatusView returns the snapshot's /status view.
func (sn *ReportSnapshot) StatusView() *StatusView {
	v := &StatusView{Gen: sn.Gen, Ticket: sn.Ticket, WatermarkNs: sn.WatermarkNs,
		Progress: sn.Progress, PerRank: sn.PerRank, Coverage: sn.Coverage,
		PerShard: sn.PerShard, Epochs: sn.Epochs, Liveness: sn.Liveness}
	if sn.Durability.Enabled {
		d, down := sn.Durability, sn.Down
		v.Durability, v.Down = &d, &down
	}
	return v
}

// OutliersView returns the snapshot's /outliers view.
func (sn *ReportSnapshot) OutliersView() *OutliersView {
	v := &OutliersView{Gen: sn.Gen, Threshold: sn.Threshold, WatermarkNs: sn.WatermarkNs,
		Outliers: sn.Report.Outliers, Degraded: sn.Report.Degraded,
		DeadRanks: sn.Report.DeadRanks, Confidence: sn.Report.Confidence}
	if v.Outliers == nil {
		v.Outliers = []Outlier{}
	}
	if v.DeadRanks == nil {
		v.DeadRanks = []int{}
	}
	return v
}

// ServeReport makes the server's versioned snapshot the source of o's
// /status, /outliers and /records, with one obs.ReportSnapshot per
// generation shared by every poller at it. status, called once per
// generation, wraps the view into the /status "run" body; nil serves the
// view itself. It runs under the memo's lock: two pollers racing to a new
// generation must get one body, or its ETag would name two.
func (s *Server) ServeReport(o *obs.Obs, status func(*StatusView) any) {
	var mu sync.Mutex
	var last *obs.ReportSnapshot
	wrap := func(sn *ReportSnapshot) *obs.ReportSnapshot {
		if sn == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if last == nil || last.Gen != sn.Gen {
			v := sn.StatusView()
			var st any = v
			if status != nil {
				st = status(v)
			}
			last = &obs.ReportSnapshot{Gen: sn.Gen, Status: st, Outliers: sn.OutliersView(),
				Records: func(cursor int) (any, int, int, bool) {
					recs, next, base, ok := sn.RecordsWindow(cursor)
					return recs, next, base, ok
				}}
		}
		return last
	}
	o.SetReport(func() *obs.ReportSnapshot { return wrap(s.Snapshot()) },
		func(afterGen uint64, timeout time.Duration) *obs.ReportSnapshot {
			return wrap(s.WaitSnapshot(afterGen, timeout))
		})
}
