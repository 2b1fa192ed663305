package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"vsensor/internal/feed"
)

// The differential conformance property: for ANY trial the feed draws —
// rank count, shard count, drops, duplicates, bit corruption, adversarial
// frame permutations, concurrent delivery interleaving, and mid-stream
// analysis polls that close (and later reopen) epochs — the incremental
// sharded engine's InterProcessOutliers must equal the reference
// single-threaded batch recompute over the final record log, exactly, field
// for field, bit for bit, and that log must hold every record the trial
// delivered intact exactly once.
//
// This is the acceptance gate for the epoch-watermark design: closing an
// epoch is only a caching decision, never an approximation.

// wire encodes the feed's frames and heartbeats in this package's format.
var wire = feed.Codec{
	Frame: func(f feed.Frame) []byte {
		return AppendFrame(nil, FrameHeader{Rank: f.Rank, Seq: f.Seq, CumRecords: f.Cum}, f.Recs)
	},
	Heartbeat: func(rank int, nowNs, leaseNs int64) []byte { return AppendHeartbeat(nil, rank, nowNs, leaseNs) },
}

// deliverAll feeds every delivery of tr to s, in order, ignoring the
// rejects the trial's corrupt copies earn.
func deliverAll(s *Server, tr feed.Trial) {
	for _, f := range tr.Deliveries(wire) {
		_ = s.Receive(f)
	}
}

// sameState compares what two servers serve: the record log in order,
// coverage, heartbeats, liveness and the outliers at threshold.
func sameState(got, want *Server, threshold float64) error {
	return errors.Join(
		feed.Same("record", got.Records(), want.Records()),
		feed.Equal("coverage", got.Coverage(), want.Coverage()),
		feed.Equal("heartbeats", got.Heartbeats(), want.Heartbeats()),
		feed.Same("liveness", got.Liveness(), want.Liveness()),
		feed.Same("outlier", got.InterProcessOutliers(threshold), want.InterProcessOutliers(threshold)),
	)
}

var differentialSpec = feed.Spec{
	Seed: 0xC0FFEE, Step: 7919, Trials: 240,
	Ranks: [2]int{3, 16}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 5},
	Events: map[feed.Kind][]float64{
		feed.Drop: {0, 0.1, 0.3}, feed.Dup: {0, 0.15}, feed.Corrupt: {0, 0.1},
		feed.Shuffle: {0.75}, feed.Poll: {0.05, 0.15},
	},
}

func TestDifferentialConformance(t *testing.T) { feed.Run(t, differentialSpec, differential) }

// driveParts drives steps from parts goroutines at once, each taking one
// contiguous part of the schedule through feed.Drive with one more poll at
// the part's midpoint, so every trial queries mid-ingest whatever polls it
// drew, and joins their errors.
func driveParts(parts int, steps []feed.Step, deliver func(i int, data []byte) error, poll func(), crash func(delivered int) (int, error)) error {
	size := max(1, (len(steps)+parts-1)/parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := range parts {
		part := steps[min(p*size, len(steps)):min((p+1)*size, len(steps))]
		part = slices.Insert(slices.Clone(part), len(part)/2, feed.Step{Poll: true})
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = feed.Drive(part, deliver, poll, crash)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// differential delivers the trial's schedule from a few concurrent senders,
// each running the polls in its part of the schedule and one at its
// midpoint: a poll advances the watermark machinery, closing epochs that
// later (reordered or held-back) frames must reopen. Corrupt copies are
// rejected by CRC, so the engine and the batch recompute see the identical
// final record set.
func differential(t *testing.T, tr feed.Trial) error {
	r := tr.Rand("server")
	s := NewSharded(1 << r.IntN(5)) // 1..16: includes the degenerate single-shard case
	threshold := []float64{0.7, 0.8, 0.9}[r.IntN(3)]
	steps := tr.Schedule(wire)
	_ = driveParts(1+r.IntN(4), steps, func(_ int, f []byte) error { _ = s.Receive(f); return nil },
		func() { s.InterProcessOutliers(threshold) }, nil)

	// Exercise the threshold-change path on closed epochs too: a poll at a
	// different threshold must not poison later queries.
	if r.IntN(3) == 0 {
		_ = s.InterProcessOutliers(0.95)
	}
	ref := batchOutliers(s.Records(), threshold)
	return errors.Join(
		tr.ExactlyOnce(s.Records()),
		feed.Same("outlier", s.InterProcessOutliers(threshold), ref),
		// Idempotence: a second query, served largely from closed-epoch
		// caches, returns the same answer.
		feed.Same("second query's outlier", s.InterProcessOutliers(threshold), ref),
	)
}

// TestDeliveryRegressions replays trials a delivery property once failed on
// (or that killed a planted bug), each pasted from the property's failure
// output.
func TestDeliveryRegressions(t *testing.T) {
	for i, row := range []struct {
		why   string
		prop  feed.Property
		trial feed.Trial
	}{{
		why:   "a dedup that let a frame's retransmit in while its seq was the rank's contiguous mark (seq < contig in rankState.seen)",
		prop:  differential,
		trial: feed.Trial{Seed: 12656349, Shape: feed.Shape{Ranks: 14, Sensors: 1, Slices: 2}, Events: []feed.Event{{Kind: feed.Dup, At: 14, Arg: 10}}},
	}, {
		why:   "a late record that bumped a closed epoch's generation but left it closed (analyzer.touch)",
		prop:  partitioning(new(int)),
		trial: feed.Trial{Seed: 39463, Shape: feed.Shape{Ranks: 80, Sensors: 3, Slices: 5}, Events: []feed.Event{{Kind: feed.Poll, At: 442}}},
	}} {
		t.Run(fmt.Sprintf("%d", i), func(t *testing.T) {
			t.Log(row.why)
			feed.Check(t, row.trial, row.prop)
		})
	}
}
