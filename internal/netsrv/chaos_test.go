package netsrv

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/server"
	"vsensor/internal/storage"
	"vsensor/internal/transport"
)

// These are the ROADMAP's "suites keep running unchanged" tests: the same
// chaos and kill-recover conformance properties the in-process suites
// assert, but with every frame crossing a real loopback TCP socket. The
// fault-injecting transport.Link now proxies onto a *Session (one pluggable
// Medium among others), so the identical FaultPlan dice land on real socket
// traffic.

func sortRecs(recs []detect.SliceRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.SliceNs != b.SliceNs {
			return a.SliceNs < b.SliceNs
		}
		if a.Sensor != b.Sensor {
			return a.Sensor < b.Sensor
		}
		return a.Group < b.Group
	})
}

func chaosRec(rank, i int) detect.SliceRecord {
	return detect.SliceRecord{
		Sensor: i % 7, Group: i % 3, Rank: rank,
		SliceNs: int64(i) * 1_000_000, Count: 1, AvgNs: float64(100 + i%13),
	}
}

// runRanksOver pushes the workload through a transport.Link wrapping an
// arbitrary Medium, from concurrent rank goroutines — the socket twin of
// the in-process transport test harness.
func runRanksOver(t *testing.T, m transport.Medium, plan transport.FaultPlan, ranks, perRank int) {
	t.Helper()
	link := transport.NewLinkOver(m, plan)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			conn := link.NewConn(rank, transport.Config{
				BatchSize: 8, TimeoutNs: 10, BackoffBaseNs: 10, MaxRetries: 12,
			})
			for i := 0; i < perRank; i++ {
				if err := conn.OnSlice(chaosRec(rank, i)); err != nil {
					errs[rank] = err
					return
				}
			}
			errs[rank] = conn.Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestSocketChaosExactlyOnce is TestChaosExactlyOnce over real loopback
// TCP: under seeded drops, duplicates, reordering, corruption, and a
// link-level crash window, the networked tenant's final record log must
// equal a fault-free in-process reference after sorting — exactly-once
// delivery of every record across the socket, from concurrent rank
// goroutines, under -race.
func TestSocketChaosExactlyOnce(t *testing.T) {
	const ranks, perRank = 8, 200
	for _, seed := range []int64{11, 29, 47} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := transport.FaultPlan{
				Seed: seed, Drop: 0.25, Dup: 0.1, Reorder: 0.15, Corrupt: 0.05,
				CrashAfterFrames: 60, CrashDownFrames: 20,
			}

			svc, err := Listen("127.0.0.1:0", Config{Shards: 1, MaxWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			// The resilient session is a windowed medium, so the dice and
			// the Link's crash window run over frames in flight; a plain
			// *Session has no ack observer and would stay synchronous.
			sess, err := DialResilient(ReconnectConfig{Addr: svc.Addr().String(), Hello: Hello{RunID: "chaos", Rank: 0}})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			runRanksOver(t, sess, plan, ranks, perRank)

			clean := server.New()
			runRanksOver(t, clean, transport.FaultPlan{}, ranks, perRank)

			faulty := svc.Tenant("chaos")
			got, want := faulty.Records(), clean.Records()
			sortRecs(got)
			sortRecs(want)
			if len(got) != len(want) {
				t.Fatalf("socket log has %d records, in-process reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d differs after sorting:\n got: %+v\nwant: %+v", i, got[i], want[i])
				}
			}
			cov := faulty.Coverage()
			if !cov.Complete() {
				t.Errorf("coverage incomplete over socket: %+v", cov)
			}
			if cov.DupFrames == 0 || cov.ChecksumErrors == 0 {
				t.Errorf("chaos plan injected no dups/corruption over the socket? coverage = %+v", cov)
			}
		})
	}
}

// buildRankFrames generates each rank's record stream and splits it into
// sequenced frames (the netsrv copy of the server conformance generator;
// that one is package-internal).
func buildRankFrames(rng *rand.Rand, ranks, sensors, slices int) [][]byte {
	var frames [][]byte
	for rank := 0; rank < ranks; rank++ {
		var recs []detect.SliceRecord
		for sl := 0; sl < slices; sl++ {
			for sn := 0; sn < sensors; sn++ {
				if rng.Float64() < 0.15 {
					continue
				}
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
		var seq, cum uint64
		for len(recs) > 0 {
			n := 1 + rng.Intn(4)
			if n > len(recs) {
				n = len(recs)
			}
			seq++
			cum += uint64(n)
			frames = append(frames, server.AppendFrame(nil, server.FrameHeader{Rank: rank, Seq: seq, CumRecords: cum}, recs[:n]))
			recs = recs[n:]
		}
	}
	return frames
}

// schedulePlan is the harness-level fault plan applied to a frame list
// (deterministic, interleaving-free — the faults live in the schedule
// itself, so a networked run and an in-process run see identical inputs).
type schedulePlan struct {
	drop    float64
	dup     float64
	corrupt float64
	shuffle bool
}

func buildSchedule(rng *rand.Rand, frames [][]byte, plan schedulePlan) [][]byte {
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
			bad := append([]byte(nil), f...)
			bit := rng.Intn(len(bad) * 8)
			bad[bit/8] ^= 1 << (bit % 8)
			schedule = append(schedule, bad)
		}
	}
	if plan.shuffle {
		rng.Shuffle(len(schedule), func(i, j int) {
			schedule[i], schedule[j] = schedule[j], schedule[i]
		})
	}
	return schedule
}

// referenceVerdicts feeds the schedule to the undisturbed reference and
// records which entries it accepted — the per-entry outcome every
// disturbed delivery of the same entry must reproduce.
func referenceVerdicts(ref *server.Server, schedule [][]byte) []bool {
	accepted := make([]bool, len(schedule))
	for i, f := range schedule {
		accepted[i] = ref.Receive(f) == nil
	}
	return accepted
}

// verdictMismatch reports a delivery the conformance drivers must not
// swallow: an outage (the item was not delivered at all, so a later
// record-count mismatch would have no cause attached) or an accept/reject
// outcome the reference did not produce. resumeProven marks a delivery a
// ResilientSession proved by the resume LSN: its ack died with the wire,
// so nil ("journaled exactly once") is all the session can say about it.
func verdictMismatch(got error, refAccepted, resumeProven bool) bool {
	if errors.Is(got, server.ErrServerDown) {
		return true
	}
	if got == nil && resumeProven {
		return false
	}
	return (got == nil) != refAccepted
}

// TestSocketKillRecoverConformance is TestKillRecoverConformance with the
// delivery schedule crossing loopback TCP: a durable tenant behind the
// service, fed through a session, crashing and recovering mid-stream, must
// end exactly equal to an in-process server that never crashed — same
// record log, same coverage, same heartbeats. The LSN that Recover reports
// (and that a reconnecting client would read from its vSA1 session ack)
// tells the sender where to resume, exactly as in process.
func TestSocketKillRecoverConformance(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x50C4E7 + int64(trial)*104729))
			ranks := 3 + rng.Intn(8)
			shards := 1 << rng.Intn(3)
			sensors := 1 + rng.Intn(3)
			slices := 2 + rng.Intn(3)
			threshold := []float64{0.7, 0.8, 0.9}[rng.Intn(3)]
			plan := schedulePlan{
				drop:    []float64{0, 0.15}[rng.Intn(2)],
				dup:     []float64{0, 0.15}[rng.Intn(2)],
				corrupt: []float64{0, 0.1}[rng.Intn(2)],
				shuffle: rng.Intn(2) == 0,
			}
			frames := buildRankFrames(rng, ranks, sensors, slices)
			schedule := buildSchedule(rng, frames, plan)
			withHB := make([][]byte, 0, len(schedule)+ranks)
			for i, f := range schedule {
				withHB = append(withHB, f)
				if i%7 == 3 {
					withHB = append(withHB, server.AppendHeartbeat(nil, i%ranks, int64(i)*1_000_000, 5_000_000))
				}
			}
			schedule = withHB
			nCrashes := 1 + rng.Intn(3)
			var crashes []int
			for i := 0; i < nCrashes; i++ {
				crashes = append(crashes, rng.Intn(len(schedule)+1))
			}

			// Reference: in-process, in order, no crashes, no network.
			ref := server.NewSharded(shards)
			accepted := referenceVerdicts(ref, schedule)

			// The durable tenant is built by the service's factory hook; the
			// test keeps the pointer so it can crash it mid-stream.
			var dur *server.Server
			svc, err := Listen("127.0.0.1:0", Config{
				MaxWorkers: 4,
				NewServer: func(runID string) *server.Server {
					dur = server.NewSharded(shards)
					dur.AttachDurability(server.DurabilityConfig{
						FlushEvery:    []int{0, 0, 2, 8}[rng.Intn(4)],
						SnapshotEvery: []int{0, -1, 3, 8}[rng.Intn(4)],
						Disk: storage.NewDisk(storage.Faults{
							Seed:      0xBAD + int64(trial),
							TornWrite: []float64{0, 0.5, 1}[rng.Intn(3)],
							SyncLoss:  []float64{0, 0.3}[rng.Intn(2)],
							BitRot:    []float64{0, 0.4}[rng.Intn(2)],
						}),
					})
					return dur
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			sess, err := Dial(svc.Addr().String(), Hello{RunID: "kill", Rank: 0}, DialConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if dur == nil {
				t.Fatal("tenant factory never ran")
			}

			// Racing pollers throughout ingest, crash, and recovery: one on
			// the tenant server (locking story under -race) and one dialing
			// fresh sessions against the same run (exercising the resumed
			// handshake concurrently with crashes).
			done := make(chan struct{})
			var wg sync.WaitGroup
			var stopOnce sync.Once
			stop := func() { stopOnce.Do(func() { close(done); wg.Wait() }) }
			defer stop() // a failed delivery must not leave the pollers spinning
			wg.Add(2)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					_ = dur.InterProcessOutliers(threshold)
					_ = dur.Coverage()
					_ = dur.Liveness()
					_ = dur.Records()
					_ = dur.DurabilityStats()
				}
			}()
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if p, err := Dial(svc.Addr().String(), Hello{RunID: "kill", Rank: 1}, DialConfig{}); err == nil {
						p.Close()
					}
				}
			}()

			deliver := func(i int) {
				if err := sess.Receive(schedule[i]); verdictMismatch(err, accepted[i], false) {
					t.Fatalf("seed %d item %d: delivery = %v, reference accepted = %v", trial, i, err, accepted[i])
				}
			}
			i := 0
			for _, cp := range crashes {
				for i < cp && i < len(schedule) {
					deliver(i)
					i++
				}
				if err := dur.Crash(); err != nil {
					t.Fatalf("crash at %d: %v", i, err)
				}
				if len(schedule) > 0 {
					// The wire reports the outage as an explicit down ack,
					// which the client maps back to ErrServerDown.
					if err := sess.Receive(schedule[0]); !errors.Is(err, server.ErrServerDown) {
						t.Fatalf("Receive while down = %v, want ErrServerDown over the socket", err)
					}
				}
				rs, err := dur.Recover()
				if err != nil {
					t.Fatalf("recover at %d: %v", i, err)
				}
				if rs.LSN > uint64(i) {
					t.Fatalf("recovered LSN %d exceeds %d delivered items", rs.LSN, i)
				}
				i = int(rs.LSN)
			}
			for ; i < len(schedule); i++ {
				deliver(i)
			}
			stop()

			gotRecs, refRecs := dur.Records(), ref.Records()
			if len(gotRecs) != len(refRecs) {
				t.Fatalf("recovered log holds %d records, reference %d", len(gotRecs), len(refRecs))
			}
			for j := range gotRecs {
				if gotRecs[j] != refRecs[j] {
					t.Fatalf("record %d differs:\n got: %+v\nwant: %+v", j, gotRecs[j], refRecs[j])
				}
			}
			if got, want := dur.Coverage(), ref.Coverage(); got != want {
				t.Fatalf("coverage differs:\n got: %+v\nwant: %+v", got, want)
			}
			if got, want := dur.Heartbeats(), ref.Heartbeats(); got != want {
				t.Fatalf("heartbeats %d, want %d", got, want)
			}
			gotOut, refOut := dur.InterProcessOutliers(threshold), ref.InterProcessOutliers(threshold)
			if len(gotOut) != len(refOut) {
				t.Fatalf("outliers: %d vs reference %d", len(gotOut), len(refOut))
			}
			for j := range gotOut {
				if gotOut[j] != refOut[j] {
					t.Fatalf("outlier %d differs:\n got: %+v\nwant: %+v", j, gotOut[j], refOut[j])
				}
			}
			// A fresh session against the recovered run reads the durable
			// LSN from its session ack — the resume contract over the wire.
			s2, err := Dial(svc.Addr().String(), Hello{RunID: "kill", Rank: 2}, DialConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Ack().Flags&AckFlagResumed == 0 {
				t.Fatal("reconnect not flagged as resumed")
			}
			if got, want := s2.Ack().LSN, dur.DurabilityStats().LSN; got != want {
				t.Fatalf("session-ack LSN %d, want durable LSN %d", got, want)
			}
		})
	}
}
