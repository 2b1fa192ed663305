package netsrv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
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
				BatchSize: 8,
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

// tuned is a ResilientSession config for the net tables: the shipped
// deadlines on netClock, so wire faults surface in milliseconds, and an
// outage budget of 20 minutes of clock time (30s of wall) so no fault window
// is ever misread as a down server.
func tuned(addr, runID string, seed int64) ReconnectConfig {
	return ReconnectConfig{
		Addr:  addr,
		Hello: Hello{RunID: runID, Rank: 0},
		Retry: RetryPolicy{MaxElapsed: 20 * time.Minute, Seed: seed},
		clock: netClock,
	}
}

// dialTuned dials a tuned session; the first dial must succeed.
func dialTuned(t *testing.T, addr, runID string, seed int64) *ResilientSession {
	t.Helper()
	rs, err := DialResilient(tuned(addr, runID, seed))
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

// listenVia starts the service on netClock and, when wire is non-nil, a
// chaos proxy in front of it; both close when the test ends.
func listenVia(t *testing.T, cfg Config, wire *chaosproxy.Plan) netMedium {
	t.Helper()
	cfg.clock = netClock
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
		svc: Config{Shards: 1, MaxWorkers: 4, IdleSession: 80 * time.Second},
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
					if err := feed.Same("record", feed.Sorted(tenant.Records()), feed.Sorted(clean.Records())); err != nil {
						t.Fatal(err)
					}
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

// codec encodes the feed's frames and heartbeats in the server's format.
var codec = feed.Codec{
	Frame: func(f feed.Frame) []byte {
		return server.AppendFrame(nil, server.FrameHeader{Rank: f.Rank, Seq: f.Seq, CumRecords: f.Cum}, f.Recs)
	},
	Heartbeat: func(rank int, nowNs, leaseNs int64) []byte { return server.AppendHeartbeat(nil, rank, nowNs, leaseNs) },
}

// referenceVerdicts feeds the deliveries to the undisturbed reference and
// records which it accepted — the per-delivery outcome every disturbed
// delivery of the same bytes must reproduce.
func referenceVerdicts(ref *server.Server, deliveries [][]byte) []bool {
	accepted := make([]bool, len(deliveries))
	for i, f := range deliveries {
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

// sameTenant compares a tenant with the in-process reference fed the same
// deliveries: record log in order, coverage, heartbeats and every outlier
// verdict field.
func sameTenant(got, want *server.Server, threshold float64) error {
	return errors.Join(
		feed.Same("record", got.Records(), want.Records()),
		feed.Equal("coverage", got.Coverage(), want.Coverage()),
		feed.Equal("heartbeats", got.Heartbeats(), want.Heartbeats()),
		feed.Same("outlier", got.InterProcessOutliers(threshold), want.InterProcessOutliers(threshold)),
	)
}

// netKillRecoverSpec draws the socket row's trials; the proxy row reseeds it.
var netKillRecoverSpec = feed.Spec{
	Seed: 0x50C4E7, Step: 104729, Trials: 12,
	Ranks: [2]int{3, 10}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 4},
	Events: map[feed.Kind][]float64{
		feed.Drop: {0, 0.15}, feed.Dup: {0, 0.15}, feed.Corrupt: {0, 0.1}, feed.Shuffle: {0.5},
		feed.Heartbeat: {1.0 / 7}, feed.Crash: {1, 2, 3},
		feed.TornWrite: {0, 0.5, 1}, feed.SyncLoss: {0, 0.3}, feed.BitRot: {0, 0.4},
	},
}

// TestNetKillRecoverConformance is TestKillRecoverConformance with the
// delivery schedule crossing loopback TCP: a durable tenant on a faulty disk
// (torn writes, sync loss, bit rot), fed through one session, crashing and
// recovering mid-stream while pollers race its read surface and a re-dialer
// hammers the resumed handshake, must end exactly equal to an in-process
// server that saw the same schedule with no network, no crashes and no disk —
// same record log, coverage, heartbeats and outlier verdicts — and hold
// every record delivered intact exactly once. Every delivery is checked
// against the reference's verdict for that entry and fails on the spot —
// index, session and medium — on an outage or a disagreement.
func TestNetKillRecoverConformance(t *testing.T) {
	proxySpec := netKillRecoverSpec
	proxySpec.Seed, proxySpec.Step, proxySpec.Trials = 0x9E7C4A, 7919, 8
	rows := []struct {
		name string
		spec feed.Spec
		svc  Config // NewServer is the property's
		wire func(r *rand.Rand) *chaosproxy.Plan
	}{{
		name: "socket", spec: netKillRecoverSpec, svc: Config{MaxWorkers: 4},
	}, {
		name: "socket+proxy", spec: proxySpec,
		svc: Config{MaxWorkers: 4, IdleSession: 20 * time.Second},
		wire: func(r *rand.Rand) *chaosproxy.Plan {
			return &chaosproxy.Plan{
				Seed:           r.Int64(),
				SplitWrites:    true,
				CoalesceWrites: r.IntN(2) == 0,
				CorruptBit:     []float64{0, 0.01, 0.03}[r.IntN(3)],
				ResetEvery:     int64(4+r.IntN(12)) << 10,
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
			feed.Run(t, row.spec, netKillRecover(row.svc, row.wire, &reconnects))
			if row.wire != nil && reconnects == 0 {
				t.Errorf("no trial ever reconnected; the proxy plans are too tame to prove resilience")
			}
		})
	}
}

// netKillRecover is the property over one medium: the bare listener when
// wire is nil, else a chaos proxy running the plan wire draws.
func netKillRecover(svc Config, wire func(r *rand.Rand) *chaosproxy.Plan, reconnects *int64) feed.Property {
	return func(t *testing.T, tr feed.Trial) error {
		r := tr.Rand("server")
		shards := 1 << r.IntN(3)
		threshold := []float64{0.7, 0.8, 0.9}[r.IntN(3)]
		durability := server.DurabilityConfig{
			FlushEvery:    []int{0, 0, 2, 8}[r.IntN(4)],
			SnapshotEvery: []int{0, -1, 3, 8}[r.IntN(4)],
			Disk:          storage.NewDisk(tr.Disk()),
		}
		// Reference: in-process, in order, no faults of any kind.
		ref := server.NewSharded(shards)
		deliveries := tr.Deliveries(codec)
		accepted := referenceVerdicts(ref, deliveries)

		// The durable tenant is built by the service's factory hook at the
		// first hello; the property keeps the pointer so it can crash it
		// mid-stream.
		var dur *server.Server
		cfg := svc
		cfg.NewServer = func(string) *server.Server {
			dur = server.NewSharded(shards)
			dur.AttachDurability(durability)
			return dur
		}
		var plan *chaosproxy.Plan
		if wire != nil {
			plan = wire(tr.Rand("proxy"))
		}
		m := listenVia(t, cfg, plan)
		// A first dial fails fast on any network error, a bit the proxy
		// flipped in its handshake included (the plan's CorruptBit spares
		// no byte), so through the proxy that error alone is dialed again.
		rs, err := DialResilient(tuned(m.addr, "kill", tr.Seed))
		for attempt := 1; m.px != nil && errors.Is(err, ErrEnvelopeCorrupt) && attempt < 5; attempt++ {
			rs, err = DialResilient(tuned(m.addr, "kill", tr.Seed))
		}
		if err != nil {
			return err
		}
		defer rs.Close()
		if dur == nil {
			return errors.New("tenant factory never ran")
		}

		// Racing pollers throughout ingest, crash and recovery: the tenant's
		// read surface (the locking story under -race), and a re-dialer
		// opening fresh sessions against the same run (the resumed handshake
		// concurrently with crashes).
		stop := feed.Race(func() {
			_, _, _ = dur.InterProcessOutliers(threshold), dur.Coverage(), dur.Liveness()
			_, _ = dur.Records(), dur.DurabilityStats()
		}, func() {
			if p, err := DialResilient(ReconnectConfig{
				Addr: m.addr, Hello: Hello{RunID: "kill", Rank: 1},
				Retry: RetryPolicy{MaxElapsed: time.Nanosecond},
				clock: netClock,
			}); err == nil {
				p.Close()
			}
		})
		defer stop() // a failed delivery must not leave the pollers spinning

		// Every delivered envelope journals exactly one outcome, so the
		// durable LSN counts deliveries — the in-process suite's dense-LSN
		// re-drive contract, with the session absorbing connection deaths
		// underneath.
		err = feed.Drive(tr.Schedule(codec), func(i int, f []byte) error {
			resumed := rs.Stats().Resumed
			err := rs.Receive(f)
			if verdictMismatch(err, accepted[i], rs.Stats().Resumed > resumed) {
				return fmt.Errorf("item %d: delivery = %v, reference accepted = %v\nsession: %+v\n%v",
					i, err, accepted[i], rs.Stats(), m)
			}
			return nil
		}, nil, func(delivered int) (int, error) {
			if err := dur.Crash(); err != nil {
				return 0, fmt.Errorf("crash at %d: %w", delivered, err)
			}
			if m.px == nil && len(deliveries) > 0 {
				// The wire reports the outage as an explicit down ack, which
				// the client maps back to ErrServerDown.
				if err := rs.Receive(deliveries[0]); !errors.Is(err, server.ErrServerDown) {
					return 0, fmt.Errorf("Receive while down = %v, want ErrServerDown over the socket", err)
				}
			}
			recov, err := dur.Recover()
			if err != nil || recov.LSN > uint64(delivered) {
				return 0, fmt.Errorf("recover at %d: %v, LSN %d", delivered, err, recov.LSN)
			}
			// The acked-but-unsynced WAL tail died with the crash: rewind the
			// session's durable-position belief to the recovered LSN before
			// re-driving, like any checkpointed producer.
			rs.ResyncLSN(recov.LSN)
			return int(recov.LSN), nil
		})
		stop()
		if err != nil {
			return err
		}
		if err := errors.Join(sameTenant(dur, ref, threshold), tr.ExactlyOnce(dur.Records())); err != nil {
			return err
		}
		st := rs.Stats()
		*reconnects += st.Reconnects
		if st.Outages != 0 {
			return fmt.Errorf("retry budget exhausted %d times; faults should never look like a down server here", st.Outages)
		}
		// A fresh session against the recovered run reads the durable LSN
		// from its vSA1 ack — the resume contract over the wire. Through the
		// proxy its own hello may meet a fault.
		s2, err := dialOnce(m.addr, Hello{RunID: "kill", Rank: 2})
		if err != nil {
			if m.px == nil {
				return err
			}
			return nil
		}
		defer s2.Close()
		if s2.Ack().Flags&AckFlagResumed == 0 {
			return errors.New("fresh session not flagged as resumed")
		}
		return feed.Equal("session-ack LSN", s2.Ack().LSN, dur.DurabilityStats().LSN)
	}
}
