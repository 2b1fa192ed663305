package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vsensor/internal/detect"
)

// The differential conformance property: for ANY randomized scenario —
// rank count, shard count, fault plan (drops, duplicates, bit corruption,
// adversarial frame permutations), concurrent delivery interleaving, and
// mid-stream analysis polls that close (and later reopen) epochs — the
// incremental sharded engine's InterProcessOutliers must equal the
// reference single-threaded batch recompute over the final record log,
// exactly, field for field, bit for bit.
//
// This is the acceptance gate for the epoch-watermark design: closing an
// epoch is only a caching decision, never an approximation.

// conformancePlan is a frame-level fault plan applied by the test harness
// itself (internal/transport would be an import cycle from this package).
type conformancePlan struct {
	drop    float64 // frame never delivered
	dup     float64 // frame delivered twice
	corrupt float64 // a bit-flipped copy is delivered as well
	shuffle bool    // permute global delivery order across ranks
}

// buildConformanceFrames generates each rank's record stream and splits it
// into sequenced frames, returning the encoded frames in per-rank order.
func buildConformanceFrames(rng *rand.Rand, ranks, sensors, slices int) [][]byte {
	var frames [][]byte
	for rank := 0; rank < ranks; rank++ {
		var recs []detect.SliceRecord
		for sl := 0; sl < slices; sl++ {
			for sn := 0; sn < sensors; sn++ {
				if rng.Float64() < 0.15 {
					continue // sensor didn't fire on this rank in this slice
				}
				n := 1
				if rng.Float64() < 0.1 {
					n = 2 // a rank can report the same key twice
				}
				for i := 0; i < n; i++ {
					recs = append(recs, detect.SliceRecord{
						Sensor:  sn,
						Group:   rng.Intn(2),
						Rank:    rank,
						SliceNs: int64(sl) * 1_000_000,
						Count:   int32(1 + rng.Intn(9)),
						AvgNs:   50 + 400*rng.Float64(),
					})
				}
			}
		}
		var seq, cum uint64
		for len(recs) > 0 {
			n := 1 + rng.Intn(4)
			if n > len(recs) {
				n = len(recs)
			}
			seq++
			cum += uint64(n)
			frames = append(frames, AppendFrame(nil, FrameHeader{Rank: rank, Seq: seq, CumRecords: cum}, recs[:n]))
			recs = recs[n:]
		}
	}
	return frames
}

// applyPlan expands the frame list into the delivery schedule the plan
// dictates: dropped frames vanish, duplicated frames appear twice, corrupt
// copies are injected alongside the original, and the whole schedule is
// optionally permuted so frames from one rank arrive interleaved with (and
// reordered against) every other rank's.
func applyPlan(rng *rand.Rand, frames [][]byte, plan conformancePlan) [][]byte {
	var schedule [][]byte
	for _, f := range frames {
		if rng.Float64() < plan.drop {
			continue
		}
		schedule = append(schedule, f)
		if rng.Float64() < plan.dup {
			schedule = append(schedule, f)
		}
		if rng.Float64() < plan.corrupt {
			schedule = append(schedule, corruptCopy(rng, f))
		}
	}
	if plan.shuffle {
		rng.Shuffle(len(schedule), func(i, j int) {
			schedule[i], schedule[j] = schedule[j], schedule[i]
		})
	}
	return schedule
}

// corruptCopy returns f with one seeded bit flipped.
func corruptCopy(rng *rand.Rand, f []byte) []byte {
	bad := append([]byte(nil), f...)
	bit := rng.Intn(len(bad) * 8)
	bad[bit/8] ^= 1 << (bit % 8)
	return bad
}

func outliersEqual(t *testing.T, trial int, got, want []Outlier) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: incremental found %d outliers, reference %d\n got: %+v\nwant: %+v",
			trial, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d: outlier %d differs:\n got: %+v\nwant: %+v", trial, i, got[i], want[i])
		}
	}
}

func TestDifferentialConformance(t *testing.T) {
	const trials = 240
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(trial)*7919))
			ranks := 3 + rng.Intn(14)
			shards := 1 << rng.Intn(5) // 1..16: includes the degenerate single-shard case
			sensors := 1 + rng.Intn(3)
			slices := 2 + rng.Intn(4)
			threshold := []float64{0.7, 0.8, 0.9}[rng.Intn(3)]
			plan := conformancePlan{
				drop:    []float64{0, 0.1, 0.3}[rng.Intn(3)],
				dup:     []float64{0, 0.15}[rng.Intn(2)],
				corrupt: []float64{0, 0.1}[rng.Intn(2)],
				shuffle: rng.Intn(4) != 0,
			}

			frames := buildConformanceFrames(rng, ranks, sensors, slices)
			schedule := applyPlan(rng, frames, plan)
			s := NewSharded(shards)

			// Deliver concurrently from a few senders, with a mid-stream
			// analysis poll racing ingest: the poll advances the watermark
			// machinery, closing epochs that later (reordered) frames must
			// reopen. Corrupted frames are rejected by CRC; both engines
			// therefore see the identical final record set.
			workers := 1 + rng.Intn(4)
			chunk := (len(schedule) + workers - 1) / workers
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(schedule) {
					hi = len(schedule)
				}
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(frames [][]byte) {
					defer wg.Done()
					for i, f := range frames {
						_ = s.Receive(f) // corrupt frames error; that's their job
						if i == len(frames)/2 {
							_ = s.InterProcessOutliers(threshold)
						}
					}
				}(schedule[lo:hi])
			}
			wg.Wait()

			// Exercise the threshold-change path on closed epochs too: a
			// poll at a different threshold must not poison later queries.
			if trial%3 == 0 {
				_ = s.InterProcessOutliers(0.95)
			}

			ref := batchOutliers(s.Records(), threshold)
			got := s.InterProcessOutliers(threshold)
			outliersEqual(t, trial, got, ref)

			// Idempotence: a second query (served largely from closed-epoch
			// caches) returns the same answer.
			outliersEqual(t, trial, s.InterProcessOutliers(threshold), ref)
		})
	}
}
