package netsrv

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// The multi-tenant differential conformance property: N concurrent runs
// interleaved over ONE listener must each produce a report bit-identical
// to an isolated single-run server fed the same schedule. Tenancy is an
// addressing layer, never an approximation: no cross-run bleed in records,
// coverage, or outlier verdicts, no matter how the sessions' goroutines
// interleave, and no matter who polls /status meanwhile.
func TestMultiTenantDifferentialConformance(t *testing.T) {
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x7E4A47 + int64(trial)*7919))
			runs := 2 + rng.Intn(3)
			ranks := 2 + rng.Intn(5)
			shards := 1 << rng.Intn(3)
			threshold := []float64{0.7, 0.8, 0.9}[rng.Intn(3)]

			// Per-run schedules, faults baked deterministically into the
			// schedule itself so the networked tenant and its isolated
			// reference see byte-identical inputs.
			schedules := make([][][]byte, runs)
			for r := range schedules {
				plan := schedulePlan{
					drop:    []float64{0, 0.1, 0.3}[rng.Intn(3)],
					dup:     []float64{0, 0.15}[rng.Intn(2)],
					corrupt: []float64{0, 0.1}[rng.Intn(2)],
					shuffle: rng.Intn(4) != 0,
				}
				frames := buildRankFrames(rng, ranks, 1+rng.Intn(3), 2+rng.Intn(3))
				schedules[r] = buildSchedule(rng, frames, plan)
			}

			// Isolated references: one private server per run, and the
			// verdict each schedule entry earned there.
			refs := make([]*server.Server, runs)
			accepted := make([][]bool, runs)
			for r := range refs {
				refs[r] = server.NewSharded(shards)
				accepted[r] = referenceVerdicts(refs[r], schedules[r])
			}

			// One listener, N concurrent tenant sessions.
			o := obs.New()
			svc, err := Listen("127.0.0.1:0", Config{Shards: shards, MaxWorkers: runs + 2})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			svc.SetObs(o)
			o.SetStatus(func() any { return svc.Stats() })
			ts := httptest.NewServer(o.Handler())
			defer ts.Close()

			// Racing /status and /metrics pollers hammer the introspection
			// endpoint while the tenants stream; /metrics reads Stats at
			// scrape time.
			done := make(chan struct{})
			var pollers sync.WaitGroup
			for p := 0; p < 2; p++ {
				pollers.Add(1)
				go func() {
					defer pollers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						for _, path := range []string{"/status", "/metrics"} {
							if res, err := ts.Client().Get(ts.URL + path); err == nil {
								res.Body.Close()
							}
						}
					}
				}()
			}

			var wg sync.WaitGroup
			errs := make([]error, runs)
			for r := 0; r < runs; r++ {
				wg.Add(1)
				go func(run int) {
					defer wg.Done()
					rs, err := DialResilient(ReconnectConfig{Addr: svc.Addr().String(), Hello: Hello{RunID: fmt.Sprintf("run-%d", run)}})
					if err != nil {
						errs[run] = err
						return
					}
					defer rs.Close()
					for i, f := range schedules[run] {
						if err := rs.Receive(f); verdictMismatch(err, accepted[run][i], false) {
							errs[run] = fmt.Errorf("item %d: delivery = %v, reference accepted = %v\nsession: %+v",
								i, err, accepted[run][i], rs.Stats())
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(done)
			pollers.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("run %d session: %v", r, err)
				}
			}

			// Bit-for-bit equality, tenant by tenant: record log in order,
			// full coverage struct, messages/bytes accounting, and every
			// outlier verdict field.
			for r := 0; r < runs; r++ {
				ten := svc.Tenant(fmt.Sprintf("run-%d", r))
				if ten == nil {
					t.Fatalf("tenant run-%d missing", r)
				}
				ref := refs[r]
				got, want := ten.Records(), ref.Records()
				if len(got) != len(want) {
					t.Fatalf("run %d: %d records, reference %d", r, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("run %d record %d differs:\n got: %+v\nwant: %+v", r, i, got[i], want[i])
					}
				}
				if g, w := ten.Coverage(), ref.Coverage(); g != w {
					t.Fatalf("run %d coverage differs:\n got: %+v\nwant: %+v", r, g, w)
				}
				if g, w := ten.Progress().Messages, ref.Progress().Messages; g != w {
					t.Fatalf("run %d messages %d, want %d", r, g, w)
				}
				if g, w := ten.Progress().Bytes, ref.Progress().Bytes; g != w {
					t.Fatalf("run %d bytes %d, want %d", r, g, w)
				}
				gotOut, wantOut := ten.InterProcessOutliers(threshold), ref.InterProcessOutliers(threshold)
				if len(gotOut) != len(wantOut) {
					t.Fatalf("run %d: %d outliers, reference %d", r, len(gotOut), len(wantOut))
				}
				for i := range gotOut {
					if gotOut[i] != wantOut[i] {
						t.Fatalf("run %d outlier %d differs:\n got: %+v\nwant: %+v", r, i, gotOut[i], wantOut[i])
					}
				}
				gRep, wRep := ten.InterProcessReport(threshold), ref.InterProcessReport(threshold)
				if gRep.Coverage != wRep.Coverage || gRep.Degraded != wRep.Degraded ||
					len(gRep.Outliers) != len(wRep.Outliers) || len(gRep.DeadRanks) != len(wRep.DeadRanks) {
					t.Fatalf("run %d report header differs:\n got: %+v\nwant: %+v", r, gRep, wRep)
				}
			}
			if st := svc.Stats(); st.Runs != int64(runs) {
				t.Fatalf("service hosts %d runs, want %d", st.Runs, runs)
			}
		})
	}
}
