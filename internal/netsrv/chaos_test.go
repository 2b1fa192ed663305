package netsrv

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/netsrv/chaosproxy"
	"vsensor/internal/server"
	"vsensor/internal/storage"
	"vsensor/internal/transport"
)

// The in-process chaos and kill-recover properties over real loopback TCP and
// the one client, each one table over two media: "socket", the bare listener
// (FaultPlan dice, tenant crashes), and "socket+proxy", a seeded chaosproxy
// attacking the byte stream itself — resets, partitions, stalls, bit flips,
// runt and coalesced writes, half-open peers. The final state must be EXACTLY
// the undisturbed in-process reference: envelope CRCs keep corruption out of
// tenant accounting, and resume-LSN reconnects redeliver precisely the
// unjournaled suffix.

func sortRecs(recs []detect.SliceRecord) {
	slices.SortFunc(recs, func(a, b detect.SliceRecord) int {
		return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.SliceNs, b.SliceNs),
			cmp.Compare(a.Sensor, b.Sensor), cmp.Compare(a.Group, b.Group))
	})
}

// sameRecords fails the test unless got and want hold the same records in
// the same order.
func sameRecords(t *testing.T, got, want []detect.SliceRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("log holds %d records, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
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

// dialTuned builds a ResilientSession tuned for tests: tight I/O deadlines
// so wire faults surface in milliseconds, and a generous outage budget so
// no fault window is ever misread as a down server.
func dialTuned(t *testing.T, addr, runID string, seed int64) *ResilientSession {
	t.Helper()
	rs, err := DialResilient(ReconnectConfig{
		Addr:  addr,
		Hello: Hello{RunID: runID, Rank: 0},
		Dial:  DialConfig{Timeout: 500 * time.Millisecond, OpTimeout: 300 * time.Millisecond},
		Retry: RetryPolicy{MaxElapsed: 30 * time.Second, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// netMedium is what a conformance row's sessions dial: the service itself,
// or the chaos proxy in front of it.
type netMedium struct {
	svc  *Service
	px   *chaosproxy.Proxy // nil on the bare socket
	addr string
}

// listenVia starts the service and, when wire is non-nil, a chaos proxy in
// front of it; both close when the test ends.
func listenVia(t *testing.T, cfg Config, wire *chaosproxy.Plan) netMedium {
	t.Helper()
	svc, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	m := netMedium{svc: svc, addr: svc.Addr().String()}
	if wire != nil {
		if m.px, err = chaosproxy.New(m.addr, *wire); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.px.Close() })
		m.addr = m.px.Addr()
	}
	return m
}

// String is the medium's fault ledger, for failure messages.
func (m netMedium) String() string {
	if m.px == nil {
		return "bare socket"
	}
	return fmt.Sprintf("proxy %+v", m.px.Stats())
}

// TestNetChaosExactlyOnce is TestChaosExactlyOnce over real loopback TCP:
// concurrent rank goroutines push their records through a transport.Link
// onto one session, and the tenant's final record log must equal a
// fault-free in-process reference after sorting, with complete coverage —
// exactly-once delivery of every record across the socket, under -race.
func TestNetChaosExactlyOnce(t *testing.T) {
	const ranks, perRank = 8, 200
	rows := []struct {
		name  string
		seeds []int64
		svc   Config
		wire  func(seed int64) *chaosproxy.Plan // nil: the bare socket
		link  func(seed int64) transport.FaultPlan
		check func(t *testing.T, m netMedium, rs *ResilientSession, cov server.Coverage)
	}{{
		// Seeded drops, duplicates, reordering, corruption and a link-level
		// crash window, landing on frames in flight in the session's window.
		name: "socket", seeds: []int64{11, 29, 47},
		svc: Config{Shards: 1, MaxWorkers: 4},
		link: func(seed int64) transport.FaultPlan {
			return transport.FaultPlan{
				Seed: seed, Drop: 0.25, Dup: 0.1, Reorder: 0.15, Corrupt: 0.05,
				CrashAfterFrames: 60, CrashDownFrames: 20,
			}
		},
		check: func(t *testing.T, _ netMedium, _ *ResilientSession, cov server.Coverage) {
			if cov.DupFrames == 0 || cov.ChecksumErrors == 0 {
				t.Errorf("chaos plan injected no dups/corruption over the socket? coverage = %+v", cov)
			}
		},
	}, {
		// Every wire fault at once, below a perfect link: exactly-once while
		// the wire itself lies.
		name: "socket+proxy", seeds: []int64{3, 17, 59},
		svc: Config{Shards: 1, MaxWorkers: 4, IdleSession: 2 * time.Second, WriteTimeout: 2 * time.Second},
		wire: func(seed int64) *chaosproxy.Plan {
			return &chaosproxy.Plan{
				Seed: seed, SplitWrites: true, CoalesceWrites: true, CorruptBit: 0.005,
				ResetEvery: 6 << 10, StallEvery: 10 << 10, Stall: 30 * time.Millisecond,
				HalfOpenEvery: 28 << 10, PartitionAfter: 150 * time.Millisecond, Partition: 100 * time.Millisecond,
			}
		},
		link: func(int64) transport.FaultPlan { return transport.FaultPlan{} },
		check: func(t *testing.T, m netMedium, rs *ResilientSession, _ server.Coverage) {
			pst, sst, cst := m.px.Stats(), rs.Stats(), m.svc.Stats()
			if pst.Resets == 0 {
				t.Errorf("proxy injected no resets; plan too tame: %+v", pst)
			}
			if sst.Reconnects == 0 {
				t.Errorf("session never reconnected through %d resets: %+v", pst.Resets, sst)
			}
			if pst.BitFlips > 0 && cst.CorruptEnvelopes == 0 && sst.Reconnects <= pst.Resets {
				t.Errorf("%d bit flips but no corruption-triggered teardown anywhere: svc=%+v sess=%+v",
					pst.BitFlips, cst, sst)
			}
			if rs.Ack().Flags&AckFlagResumed == 0 {
				t.Error("reconnected session ack not flagged resumed")
			}
		},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, seed := range row.seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					var wire *chaosproxy.Plan
					if row.wire != nil {
						wire = row.wire(seed)
					}
					m := listenVia(t, row.svc, wire)
					rs := dialTuned(t, m.addr, "chaos", seed)
					defer rs.Close()

					runRanksOver(t, rs, row.link(seed), ranks, perRank)
					clean := server.New()
					runRanksOver(t, clean, transport.FaultPlan{}, ranks, perRank)

					tenant := m.svc.Tenant("chaos")
					got, want := tenant.Records(), clean.Records()
					sortRecs(got)
					sortRecs(want)
					sameRecords(t, got, want)
					cov := tenant.Coverage()
					if !cov.Complete() {
						t.Errorf("coverage incomplete over the %v: %+v", m, cov)
					}
					row.check(t, m, rs, cov)
				})
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

// TestNetKillRecoverConformance is TestKillRecoverConformance with the
// delivery schedule crossing loopback TCP: a durable tenant on a faulty disk
// (torn writes, sync loss, bit rot), fed through one session, crashing and
// recovering mid-stream while pollers race its read surface and a re-dialer
// hammers the resumed handshake, must end exactly equal to an in-process
// server that saw the same schedule with no network, no crashes and no disk —
// same record log, coverage, heartbeats and outlier verdicts. Every delivery
// is checked against the reference's verdict for that entry and fails on the
// spot — seed, index, session and medium — on an outage or a disagreement.
func TestNetKillRecoverConformance(t *testing.T) {
	rows := []struct {
		name               string
		trials             int
		seedBase, seedStep int64 // trial k draws from rand.NewSource(seedBase + k*seedStep)
		diskSeed           int64
		svc                Config // NewServer is the driver's
		wire               func(trial int, rng *rand.Rand) *chaosproxy.Plan
	}{{
		name: "socket", trials: 12, seedBase: 0x50C4E7, seedStep: 104729, diskSeed: 0xBAD,
		svc: Config{MaxWorkers: 4},
	}, {
		name: "socket+proxy", trials: 8, seedBase: 0x9E7C4A, seedStep: 7919, diskSeed: 0xD15C,
		svc: Config{MaxWorkers: 4, IdleSession: 500 * time.Millisecond, WriteTimeout: time.Second},
		wire: func(trial int, rng *rand.Rand) *chaosproxy.Plan {
			return &chaosproxy.Plan{
				Seed:           0xFACADE + int64(trial),
				SplitWrites:    true,
				CoalesceWrites: rng.Intn(2) == 0,
				CorruptBit:     []float64{0, 0.01, 0.03}[rng.Intn(3)],
				ResetEvery:     int64(4+rng.Intn(12)) << 10,
				StallEvery:     16 << 10,
				Stall:          20 * time.Millisecond,
				HalfOpenEvery:  64 << 10,
				PartitionAfter: 100 * time.Millisecond,
				Partition:      60 * time.Millisecond,
			}
		},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var reconnects int64
			for trial := 0; trial < row.trials; trial++ {
				t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
					rng := rand.New(rand.NewSource(row.seedBase + int64(trial)*row.seedStep))
					ranks := 3 + rng.Intn(8)
					shards := 1 << rng.Intn(3)
					sensors := 1 + rng.Intn(3)
					nSlices := 2 + rng.Intn(3)
					threshold := []float64{0.7, 0.8, 0.9}[rng.Intn(3)]
					plan := schedulePlan{
						drop:    []float64{0, 0.15}[rng.Intn(2)],
						dup:     []float64{0, 0.15}[rng.Intn(2)],
						corrupt: []float64{0, 0.1}[rng.Intn(2)],
						shuffle: rng.Intn(2) == 0,
					}
					frames := buildRankFrames(rng, ranks, sensors, nSlices)
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

					// Reference: in-process, in order, no faults of any kind.
					ref := server.NewSharded(shards)
					accepted := referenceVerdicts(ref, schedule)

					// The durable tenant is built by the service's factory hook
					// at the first hello; the test keeps the pointer so it can
					// crash it mid-stream.
					var dur *server.Server
					cfg := row.svc
					cfg.NewServer = func(runID string) *server.Server {
						dur = server.NewSharded(shards)
						dur.AttachDurability(server.DurabilityConfig{
							FlushEvery:    []int{0, 0, 2, 8}[rng.Intn(4)],
							SnapshotEvery: []int{0, -1, 3, 8}[rng.Intn(4)],
							Disk: storage.NewDisk(storage.Faults{
								Seed:      row.diskSeed + int64(trial),
								TornWrite: []float64{0, 0.5, 1}[rng.Intn(3)],
								SyncLoss:  []float64{0, 0.3}[rng.Intn(2)],
								BitRot:    []float64{0, 0.4}[rng.Intn(2)],
							}),
						})
						return dur
					}
					var wire *chaosproxy.Plan
					if row.wire != nil {
						wire = row.wire(trial, rng)
					}
					m := listenVia(t, cfg, wire)
					rs := dialTuned(t, m.addr, "kill", int64(trial))
					defer rs.Close()
					if dur == nil {
						t.Fatal("tenant factory never ran")
					}

					// Racing pollers throughout ingest, crash and recovery: the
					// tenant's read surface (the locking story under -race), and
					// a re-dialer opening fresh sessions against the same run
					// (the resumed handshake concurrently with crashes).
					done := make(chan struct{})
					var wg sync.WaitGroup
					race := func(poll func()) {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for {
								select {
								case <-done:
									return
								default:
									poll()
								}
							}
						}()
					}
					var stopOnce sync.Once
					stop := func() { stopOnce.Do(func() { close(done); wg.Wait() }) }
					defer stop() // a failed delivery must not leave the pollers spinning
					race(func() {
						_, _, _ = dur.InterProcessOutliers(threshold), dur.Coverage(), dur.Liveness()
						_, _ = dur.Records(), dur.DurabilityStats()
					})
					race(func() {
						if p, err := DialResilient(ReconnectConfig{
							Addr: m.addr, Hello: Hello{RunID: "kill", Rank: 1},
							Dial:  DialConfig{Timeout: 200 * time.Millisecond, OpTimeout: 200 * time.Millisecond},
							Retry: RetryPolicy{MaxElapsed: time.Nanosecond},
						}); err == nil {
							p.Close()
						}
					})

					// Drive the schedule. Every delivered envelope journals
					// exactly one outcome, so the durable LSN counts schedule
					// positions — the in-process suite's dense-LSN re-drive
					// contract, with the session absorbing connection deaths
					// underneath.
					deliver := func(i int) {
						resumed := rs.Stats().Resumed
						err := rs.Receive(schedule[i])
						if verdictMismatch(err, accepted[i], rs.Stats().Resumed > resumed) {
							t.Fatalf("seed %d item %d: delivery = %v, reference accepted = %v\nsession: %+v\n%v",
								trial, i, err, accepted[i], rs.Stats(), m)
						}
					}
					i := 0
					for _, cp := range crashes {
						for ; i < cp && i < len(schedule); i++ {
							deliver(i)
						}
						if err := dur.Crash(); err != nil {
							t.Fatalf("crash at %d: %v", i, err)
						}
						if m.px == nil && len(schedule) > 0 {
							// The wire reports the outage as an explicit down
							// ack, which the client maps back to ErrServerDown.
							if err := rs.Receive(schedule[0]); !errors.Is(err, server.ErrServerDown) {
								t.Fatalf("Receive while down = %v, want ErrServerDown over the socket", err)
							}
						}
						recov, err := dur.Recover()
						if err != nil {
							t.Fatalf("recover at %d: %v", i, err)
						}
						if recov.LSN > uint64(i) {
							t.Fatalf("recovered LSN %d exceeds %d delivered items", recov.LSN, i)
						}
						// Acked-but-unsynced WAL tail died with the crash: rewind
						// the session's durable-position belief to the recovered
						// LSN before re-driving, like any checkpointed producer.
						rs.ResyncLSN(recov.LSN)
						i = int(recov.LSN)
					}
					for ; i < len(schedule); i++ {
						deliver(i)
					}
					stop()

					sameRecords(t, dur.Records(), ref.Records())
					if got, want := dur.Coverage(), ref.Coverage(); got != want {
						t.Fatalf("coverage differs:\n got: %+v\nwant: %+v", got, want)
					}
					if got, want := dur.Heartbeats(), ref.Heartbeats(); got != want {
						t.Fatalf("heartbeats %d, want %d", got, want)
					}
					if got, want := dur.InterProcessOutliers(threshold), ref.InterProcessOutliers(threshold); !slices.Equal(got, want) {
						t.Fatalf("outliers differ:\n got: %+v\nwant: %+v", got, want)
					}
					st := rs.Stats()
					reconnects += st.Reconnects
					if st.Outages != 0 {
						t.Errorf("retry budget exhausted %d times; faults should never look like a down server here", st.Outages)
					}
					// A fresh session against the recovered run reads the
					// durable LSN from its vSA1 ack — the resume contract over
					// the wire. Through the proxy its own hello may meet a fault.
					s2, err := dialOnce(m.addr, Hello{RunID: "kill", Rank: 2})
					if err != nil {
						if m.px == nil {
							t.Fatal(err)
						}
						return
					}
					defer s2.Close()
					if s2.Ack().Flags&AckFlagResumed == 0 {
						t.Fatal("fresh session not flagged as resumed")
					}
					if got, want := s2.Ack().LSN, dur.DurabilityStats().LSN; got != want {
						t.Fatalf("session-ack LSN %d, want durable LSN %d", got, want)
					}
				})
			}
			if row.wire != nil && reconnects == 0 {
				t.Errorf("no trial ever reconnected; the proxy plans are too tame to prove resilience")
			}
		})
	}
}
