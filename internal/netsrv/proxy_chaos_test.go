package netsrv

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vsensor/internal/netsrv/chaosproxy"
	"vsensor/internal/server"
	"vsensor/internal/storage"
	"vsensor/internal/transport"
)

// These suites push faults below every layer the repo already attacks:
// not frame dice (transport.FaultPlan), not disk faults (storage.Faults),
// but the TCP byte stream itself — resets, partitions, stalls, bit flips,
// runt and coalesced writes, half-open peers — via the seeded
// chaosproxy. The client is a ResilientSession, so the assertion is the
// strongest the repo makes: the final state must be EXACTLY the
// undisturbed reference, because envelope CRCs keep corruption out of
// tenant accounting and resume-LSN reconnects redeliver precisely the
// unjournaled suffix.

// proxyDial builds a ResilientSession tuned for tests: tight I/O
// deadlines so proxy faults surface in milliseconds, and a generous
// outage budget so no fault window is ever misread as a down server.
func proxyDial(t *testing.T, addr, runID string, seed int64) *ResilientSession {
	t.Helper()
	rs, err := DialResilient(ReconnectConfig{
		Addr:  addr,
		Hello: Hello{RunID: runID, Rank: 0},
		Dial:  DialConfig{Timeout: 500 * time.Millisecond, OpTimeout: 300 * time.Millisecond},
		Retry: RetryPolicy{
			MaxElapsed:  30 * time.Second,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			Seed:        seed,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestProxyChaosExactlyOnce drives the concurrent-rank workload through a
// chaos proxy injecting every wire fault at once. The tenant's final
// record log must equal a fault-free in-process reference after sorting,
// with complete coverage — exactly-once delivery while the wire itself
// lies, under -race.
func TestProxyChaosExactlyOnce(t *testing.T) {
	const ranks, perRank = 8, 200
	for _, seed := range []int64{3, 17, 59} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			svc, err := Listen("127.0.0.1:0", Config{
				Shards: 1, MaxWorkers: 4,
				IdleSession:  2 * time.Second,
				WriteTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			px, err := chaosproxy.New(svc.Addr().String(), chaosproxy.Plan{
				Seed:           seed,
				SplitWrites:    true,
				CoalesceWrites: true,
				CorruptBit:     0.005,
				ResetEvery:     6 << 10,
				StallEvery:     10 << 10,
				Stall:          30 * time.Millisecond,
				HalfOpenEvery:  28 << 10,
				PartitionAfter: 150 * time.Millisecond,
				Partition:      100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer px.Close()

			rs := proxyDial(t, px.Addr(), "proxychaos", seed)
			defer rs.Close()

			runRanksOver(t, rs, transport.FaultPlan{}, ranks, perRank)

			clean := server.New()
			runRanksOver(t, clean, transport.FaultPlan{}, ranks, perRank)

			faulty := svc.Tenant("proxychaos")
			got, want := faulty.Records(), clean.Records()
			sortRecs(got)
			sortRecs(want)
			if len(got) != len(want) {
				t.Fatalf("proxied log has %d records, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d differs after sorting:\n got: %+v\nwant: %+v", i, got[i], want[i])
				}
			}
			if cov := faulty.Coverage(); !cov.Complete() {
				t.Errorf("coverage incomplete through the chaos proxy: %+v", cov)
			}
			pst, sst, cst := px.Stats(), rs.Stats(), svc.Stats()
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
		})
	}
}

// TestProxyKillRecoverConformance is the everything-at-once suite: seeded
// proxy wire faults × tenant crash windows × seeded disk faults, driven
// as a deterministic delivery schedule through a ResilientSession. Every
// trial's records, coverage, heartbeats, and outlier verdicts must be
// exactly equal to an in-process reference that saw the same schedule
// with no proxy, no crashes, and no disk — the vSensor fixed-workload
// promise surviving all three fault domains at once, under -race.
func TestProxyKillRecoverConformance(t *testing.T) {
	const trials = 8
	var totalReconnects int64
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x9E7C4A + int64(trial)*7919))
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

			// Reference: in-process, in order, no faults of any kind.
			ref := server.NewSharded(shards)
			accepted := referenceVerdicts(ref, schedule)

			var dur *server.Server
			svc, err := Listen("127.0.0.1:0", Config{
				MaxWorkers:   4,
				IdleSession:  500 * time.Millisecond,
				WriteTimeout: time.Second,
				NewServer: func(runID string) *server.Server {
					dur = server.NewSharded(shards)
					dur.AttachDurability(server.DurabilityConfig{
						FlushEvery:    []int{0, 0, 2, 8}[rng.Intn(4)],
						SnapshotEvery: []int{0, -1, 3, 8}[rng.Intn(4)],
						Disk: storage.NewDisk(storage.Faults{
							Seed:      0xD15C + int64(trial),
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

			px, err := chaosproxy.New(svc.Addr().String(), chaosproxy.Plan{
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
			})
			if err != nil {
				t.Fatal(err)
			}
			defer px.Close()

			rs := proxyDial(t, px.Addr(), "pxkill", int64(trial))
			defer rs.Close()
			if dur == nil {
				t.Fatal("tenant factory never ran")
			}

			// Racing pollers: the tenant read surface under -race, plus a
			// re-dialer hammering the resumed handshake through the proxy
			// while crashes and wire faults land.
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
					if p, err := Dial(px.Addr(), Hello{RunID: "pxkill", Rank: 1},
						DialConfig{Timeout: 200 * time.Millisecond, OpTimeout: 200 * time.Millisecond}); err == nil {
						p.Close()
					}
				}
			}()

			// Drive the schedule. Every delivered envelope journals exactly
			// one outcome, so the durable LSN counts schedule positions —
			// the same dense-LSN re-drive contract as the in-process
			// kill-recover suite, except here the ResilientSession is also
			// absorbing proxy-induced connection deaths underneath us.
			deliver := func(i int) {
				resumed := rs.Stats().Resumed
				err := rs.Receive(schedule[i])
				if verdictMismatch(err, accepted[i], rs.Stats().Resumed > resumed) {
					t.Fatalf("seed %d item %d: delivery = %v, reference accepted = %v\nsession: %+v\nproxy:   %+v",
						trial, i, err, accepted[i], rs.Stats(), px.Stats())
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
			st := rs.Stats()
			totalReconnects += st.Reconnects
			if st.Outages != 0 {
				t.Errorf("retry budget exhausted %d times; faults should never look like a down server here", st.Outages)
			}
			// A fresh session against the survivor reads the durable LSN
			// from its vSA1 ack — the resume contract across all faults.
			s2, err := Dial(px.Addr(), Hello{RunID: "pxkill", Rank: 2}, DialConfig{})
			if err == nil {
				defer s2.Close()
				if s2.Ack().Flags&AckFlagResumed == 0 {
					t.Error("fresh session not flagged as resumed")
				}
				if got, want := s2.Ack().LSN, dur.DurabilityStats().LSN; got != want {
					t.Fatalf("session-ack LSN %d, want durable LSN %d", got, want)
				}
			}
		})
	}
	if totalReconnects == 0 {
		t.Errorf("no trial ever reconnected; the proxy plans are too tame to prove resilience")
	}
}
