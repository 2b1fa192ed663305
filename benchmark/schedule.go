package main

import (
	"fmt"
	"math/rand"
	"sort"

	"vsensor/internal/detect"
	"vsensor/internal/server"
)

// The ingest schedule: every slice record the ingest workloads push, built
// from the seed before anything is timed. The program under test only ever
// sees these records; the seed picks the straggler ranks, the per-record
// AvgNs jitter and the order ranks are visited in.

const (
	sliceNs        = 1_000_000 // one smoothing slice of virtual time
	stragglerCount = 4
	// stragglerFactor makes a straggler's records 1.6x the nominal time:
	// perf 0.625 against the median, clear of both the 0.8 threshold the
	// final report uses and the 0.9 one snapshots render at.
	stragglerFactor = 1.6
	// jitterFrac bounds the per-record AvgNs jitter; +-1% keeps every
	// healthy record's perf above 0.98, far from any threshold.
	jitterFrac = 0.01
)

// shape is the part of a schedule that does not depend on the seed.
type shape struct {
	Ranks   int
	Slices  int
	Sensors int
	// Lanes is how many generator goroutines share the ranks (rank % Lanes).
	Lanes int
	// Phase staggers the ranks: rank r runs r%Phase slices behind the sweep,
	// so only 1/Phase of the ranks fill a frame in any one sweep. 1 keeps
	// every rank in lockstep.
	Phase int
}

func (s shape) records() int64 { return int64(s.Ranks) * int64(s.Slices) * int64(s.Sensors) }

// framesPerRank is how many frames a rank's connection cuts at the
// production batch size: one per full batch plus the remainder at Close.
func (s shape) framesPerRank() int64 {
	per := int64(s.Slices) * int64(s.Sensors)
	return (per + server.DefaultBatchSize - 1) / server.DefaultBatchSize
}

// schedule is one lane's records in send order per lane, plus the oracle
// inputs. A visit is one rank's Sensors records for one slice; visit v of a
// lane is recs[v*Sensors : (v+1)*Sensors].
type schedule struct {
	shape
	Stragglers []int // sorted
	lanes      [][]detect.SliceRecord
}

// visits returns how many visits lane g makes.
func (s *schedule) visits(g int) int { return len(s.lanes[g]) / s.Sensors }

// visit returns the records of visit v on lane g.
func (s *schedule) visit(g, v int) []detect.SliceRecord {
	return s.lanes[g][v*s.Sensors : (v+1)*s.Sensors]
}

// buildSchedule generates the schedule for a shape from a seed. The same
// seed always yields byte-identical records.
func buildSchedule(sh shape, seed int64) (*schedule, error) {
	if sh.Ranks < 4*stragglerCount {
		return nil, fmt.Errorf("schedule: %d ranks cannot hide %d stragglers from the median", sh.Ranks, stragglerCount)
	}
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{shape: sh, lanes: make([][]detect.SliceRecord, sh.Lanes)}

	slow := make(map[int]bool, stragglerCount)
	for len(slow) < stragglerCount {
		slow[rng.Intn(sh.Ranks)] = true
	}
	for r := range slow {
		s.Stragglers = append(s.Stragglers, r)
	}
	sort.Ints(s.Stragglers)

	for g := 0; g < sh.Lanes; g++ {
		var order []int
		for r := g; r < sh.Ranks; r += sh.Lanes {
			order = append(order, r)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		recs := make([]detect.SliceRecord, 0, len(order)*sh.Slices*sh.Sensors)
		for sweep := 0; sweep < sh.Slices+sh.Phase-1; sweep++ {
			for _, r := range order {
				slice := sweep - r%sh.Phase
				if slice < 0 || slice >= sh.Slices {
					continue
				}
				for sensor := 0; sensor < sh.Sensors; sensor++ {
					avg := float64(1000 + 100*sensor)
					if slow[r] {
						avg *= stragglerFactor
					}
					avg *= 1 + jitterFrac*(2*rng.Float64()-1)
					recs = append(recs, detect.SliceRecord{
						Sensor:   sensor,
						Rank:     r,
						SliceNs:  int64(slice) * sliceNs,
						Count:    4,
						AvgNs:    avg,
						AvgInstr: 1000,
					})
				}
			}
		}
		s.lanes[g] = recs
	}
	return s, nil
}

// expectedOutliers is the oracle for the inter-process report: every
// straggler is an outlier on every sensor of every slice, and nobody else
// is, in the server's canonical (slice, sensor, rank) order. It is computed
// from the schedule's parameters alone, never from the program's output.
func (s *schedule) expectedOutliers() []server.Outlier {
	var out []server.Outlier
	for slice := 0; slice < s.Slices; slice++ {
		for sensor := 0; sensor < s.Sensors; sensor++ {
			for _, r := range s.Stragglers {
				out = append(out, server.Outlier{Sensor: sensor, SliceNs: int64(slice) * sliceNs, Rank: r})
			}
		}
	}
	return out
}

// checkReport compares a final inter-process report with the oracle:
// complete coverage, exactly the generated records ingested, no frame
// rejected, duplicated or lost, and exactly the straggler outlier set.
func (s *schedule) checkReport(rep server.OutlierReport) error {
	cov := rep.Coverage
	want := s.records()
	switch {
	case cov.IngestedRecords != want || cov.ExpectedRecords != want:
		return fmt.Errorf("oracle: ingested %d, expected-by-headers %d, generated %d records", cov.IngestedRecords, cov.ExpectedRecords, want)
	case cov.Fraction() != 1:
		return fmt.Errorf("oracle: coverage %.6f, want 1", cov.Fraction())
	case cov.DupFrames != 0 || cov.ChecksumErrors != 0 || cov.RejectedFrames != 0:
		return fmt.Errorf("oracle: %d dup, %d checksum-rejected, %d rejected frames, want none", cov.DupFrames, cov.ChecksumErrors, cov.RejectedFrames)
	case rep.Degraded:
		return fmt.Errorf("oracle: report degraded (dead ranks %v)", rep.DeadRanks)
	}
	exp := s.expectedOutliers()
	if len(rep.Outliers) != len(exp) {
		return fmt.Errorf("oracle: %d outliers, want %d", len(rep.Outliers), len(exp))
	}
	for i, o := range rep.Outliers {
		e := exp[i]
		if o.Sensor != e.Sensor || o.SliceNs != e.SliceNs || o.Rank != e.Rank {
			return fmt.Errorf("oracle: outlier %d is sensor %d slice %d rank %d, want sensor %d slice %d rank %d",
				i, o.Sensor, o.SliceNs, o.Rank, e.Sensor, e.SliceNs, e.Rank)
		}
	}
	return nil
}
