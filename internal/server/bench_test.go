package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/obs"
)

// The benchmarks model the production streaming shape: many ranks deliver
// sequenced frames concurrently while an operator dashboard polls
// InterProcessReport on a fixed cadence. One benchmark op is one complete
// streaming session (ingest everything + all polls).

const (
	benchFramesPerRank = 4 // one slice per frame
	benchSensors       = 8 // records per frame
	benchPolls         = 64
	benchWorkers       = 8
)

// buildBenchFrames pre-encodes round round of the session: frames[rank][sl]
// holds benchSensors records for that rank at slice sl of the round. Round r
// continues each rank's stream where round r-1 left off (sequences, slice
// timestamps and cumulative counts all advance), so successive rounds are
// fresh records, not duplicates. Values are arranged so some slices
// genuinely contain outliers (rank 0 runs slow).
func buildBenchFrames(ranks, round int) [][][]byte {
	frames := make([][][]byte, ranks)
	recs := make([]detect.SliceRecord, benchSensors)
	base := round * benchFramesPerRank
	for rank := 0; rank < ranks; rank++ {
		perRank := make([][]byte, benchFramesPerRank)
		cum := uint64(base * benchSensors)
		for sl := 0; sl < benchFramesPerRank; sl++ {
			for sn := 0; sn < benchSensors; sn++ {
				avg := 100.0 + float64(sn)
				if rank == 0 {
					avg *= 2 // rank 0 is the straggler the analysis must find
				}
				recs[sn] = detect.SliceRecord{
					Sensor:  sn,
					Rank:    rank,
					SliceNs: int64(base+sl) * 1_000_000,
					Count:   4,
					AvgNs:   avg,
				}
			}
			cum += uint64(len(recs))
			perRank[sl] = AppendFrame(nil, FrameHeader{Rank: rank, Seq: uint64(base+sl) + 1, CumRecords: cum}, recs)
		}
		frames[rank] = perRank
	}
	return frames
}

// runStreamingSession drives one full session: benchWorkers goroutines each
// own a partition of the ranks and deliver frames slice-by-slice (so the
// watermark advances the way a real run's does), polling outliers on a
// cadence that totals benchPolls polls per session.
func runStreamingSession(b *testing.B, srv *Server, frames [][][]byte) {
	ranks := len(frames)
	totalFrames := ranks * benchFramesPerRank
	pollEvery := totalFrames / benchPolls
	if pollEvery == 0 {
		pollEvery = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < benchWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			delivered := 0
			for sl := 0; sl < benchFramesPerRank; sl++ {
				for rank := w; rank < ranks; rank += benchWorkers {
					if err := srv.Receive(frames[rank][sl]); err != nil {
						b.Error(err)
						return
					}
					delivered++
					if delivered%pollEvery == 0 {
						srv.InterProcessOutliers(0.9)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := srv.InterProcessOutliers(0.9); len(got) == 0 {
		b.Fatal("session produced no outliers; workload is miswired")
	}
}

func benchSizes() []int { return []int{64, 512, 4096} }

// BenchmarkIngestParallel is the sharded incremental engine under the
// streaming workload.
func BenchmarkIngestParallel(b *testing.B) {
	for _, ranks := range benchSizes() {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			frames := buildBenchFrames(ranks, 0)
			records := ranks * benchFramesPerRank * benchSensors
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runStreamingSession(b, NewSharded(DefaultShards), frames)
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkIngestLineage measures the lineage tax on the streaming ingest
// workload. Both modes attach the observability layer and ingest the same
// frames; "on" additionally enables record-lineage tracing at the
// production sampling rate (1 in obs.DefaultSampleEvery), so the on/off
// delta is the cost of lineage itself — the trace derivation on every
// frame plus span recording on the sampled ones.
func BenchmarkIngestLineage(b *testing.B) {
	for _, ranks := range []int{64, 4096} {
		frames := buildBenchFrames(ranks, 0)
		for _, on := range []bool{false, true} {
			mode := "off"
			if on {
				mode = "on"
			}
			b.Run(fmt.Sprintf("lineage=%s/ranks=%d", mode, ranks), func(b *testing.B) {
				records := ranks * benchFramesPerRank * benchSensors
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := NewSharded(DefaultShards)
					o := obs.New()
					if on {
						o.EnableLineage(obs.LineageConfig{})
					}
					s.SetObs(o)
					runStreamingSession(b, s, frames)
				}
				b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}

// TestStreamingSessionEnginesAgree pins that the benchmark workload means
// what it says: the sharded engine's incremental verdict over the session
// equals a batch recompute over the flat record log.
func TestStreamingSessionEnginesAgree(t *testing.T) {
	frames := buildBenchFrames(64, 0)
	srv := NewSharded(DefaultShards)
	for sl := 0; sl < benchFramesPerRank; sl++ {
		for rank := 0; rank < len(frames); rank++ {
			if err := srv.Receive(frames[rank][sl]); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := srv.InterProcessOutliers(0.9)
	if err := feed.Same("outlier", a, batchOutliers(srv.Records(), 0.9)); err != nil || len(a) == 0 {
		t.Fatalf("engines disagree (%d incremental outliers): %v", len(a), err)
	}
}

// BenchmarkEvaluate times one query over open epochs holding the given
// number of entries in all (4096 ranks a key, the ingest benchmark's
// shape; no watermark, so every epoch is a candidate of every query), on
// one core and on every core: the measurement behind evalMinEntries. With
// evalMinEntries set to 1, the split's cost shows below the cut-over too.
func BenchmarkEvaluate(b *testing.B) {
	const ranks = 4096
	for _, entries := range []int{1 << 13, 1 << 15, 1 << 16, 1 << 19} {
		s := NewSharded(DefaultShards)
		recs := make([]detect.SliceRecord, entries/ranks)
		for rank := range ranks {
			avg := 100 + float64(rank%7)/100
			if rank == 0 {
				avg = 200 // the one outlier of every key
			}
			for k := range recs {
				recs[k] = detect.SliceRecord{Sensor: k % 8, Rank: rank, SliceNs: int64(k / 8), Count: 1, AvgNs: avg}
			}
			if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: rank, Seq: 1, CumRecords: uint64(len(recs))}, recs)); err != nil {
				b.Fatal(err)
			}
		}
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("entries=%d/procs=%d", entries, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.an.outliers(0.99, 0, false)
				}
			})
		}
	}
}

// BenchmarkSelectMedian times selectMedian on 4,096 values, one epoch of the
// ingest benchmark, for four shapes of input: ±1 % jitter around one time,
// BenchmarkEvaluate's 7-value alphabet in random order, all equal, and
// sorted. Each iteration copies the next of 256 inputs generated up front
// into the scratch slice and selects over it. Rotating matters: on one input
// copied back every iteration the branch predictor learns the input, and a
// branchy select reads about five times faster than it runs on the fresh
// epochs a query sees.
func BenchmarkSelectMedian(b *testing.B) {
	const n, inputs = 4096, 256
	shapes := []struct {
		name string
		gen  func(rng *rand.Rand, v []float64)
	}{
		{"jitter", func(rng *rand.Rand, v []float64) {
			for i := range v {
				v[i] = 100 * (1 + (rng.Float64()-0.5)/50)
			}
		}},
		{"alphabet7", func(rng *rand.Rand, v []float64) {
			for i := range v {
				v[i] = 100 + float64(rng.Intn(7))/100
			}
		}},
		{"equal", func(_ *rand.Rand, v []float64) {
			for i := range v {
				v[i] = 100
			}
		}},
		{"sorted", func(rng *rand.Rand, v []float64) {
			for i := range v {
				v[i] = 100 * (1 + (rng.Float64()-0.5)/50)
			}
			slices.Sort(v)
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := make([][]float64, inputs)
			for i := range in {
				in[i] = make([]float64, n)
				sh.gen(rng, in[i])
			}
			vals := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(vals, in[i%inputs])
				benchMedian = selectMedian(vals)
			}
		})
	}
}

// benchMedian keeps BenchmarkSelectMedian's result live.
var benchMedian float64
