package netsrv

import (
	"fmt"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/server"
)

// BenchmarkNetIngest prices the process boundary: the identical streaming
// workload (4 frames/rank × 8 records, total rank count held constant as
// it spreads over more tenants) delivered either straight into in-process
// servers or through vSS1 sessions over real loopback TCP with pipelined
// frame/ack envelopes. A developer tool: the gated numbers for this path
// are benchmark/'s ingest-tcp-durable workload.

const (
	netBenchFramesPerRank = 4
	netBenchSensors       = 8
)

// buildNetBenchFrames pre-encodes one tenant's session: frames for
// ranks [lo, hi), slice-major so the watermark advances realistically.
func buildNetBenchFrames(lo, hi int) [][]byte {
	var frames [][]byte
	recs := make([]detect.SliceRecord, netBenchSensors)
	for sl := 0; sl < netBenchFramesPerRank; sl++ {
		for rank := lo; rank < hi; rank++ {
			for sn := 0; sn < netBenchSensors; sn++ {
				avg := 100.0 + float64(sn)
				if rank == lo {
					avg *= 2 // each tenant has one straggler rank
				}
				recs[sn] = detect.SliceRecord{
					Sensor:  sn,
					Rank:    rank,
					SliceNs: int64(sl) * 1_000_000,
					Count:   4,
					AvgNs:   avg,
				}
			}
			h := server.FrameHeader{
				Rank:       rank,
				Seq:        uint64(sl) + 1,
				CumRecords: uint64(sl+1) * netBenchSensors,
			}
			frames = append(frames, server.AppendFrame(nil, h, recs))
		}
	}
	return frames
}

// tenantFrames splits totalRanks across tenants and pre-encodes each
// tenant's frame schedule.
func tenantFrames(tenants, totalRanks int) [][][]byte {
	perTenant := totalRanks / tenants
	out := make([][][]byte, tenants)
	for t := 0; t < tenants; t++ {
		out[t] = buildNetBenchFrames(t*perTenant, (t+1)*perTenant)
	}
	return out
}

func BenchmarkNetIngest(b *testing.B) {
	for _, tenants := range []int{1, 8, 64} {
		for _, ranks := range []int{64, 512, 4096} {
			if ranks < tenants {
				continue
			}
			frames := tenantFrames(tenants, ranks)
			records := ranks * netBenchFramesPerRank * netBenchSensors

			b.Run(fmt.Sprintf("mode=inproc/tenants=%d/ranks=%d", tenants, ranks), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srvs := make([]*server.Server, tenants)
					for t := range srvs {
						srvs[t] = server.NewSharded(server.DefaultShards)
					}
					var wg sync.WaitGroup
					for t := 0; t < tenants; t++ {
						wg.Add(1)
						go func(t int) {
							defer wg.Done()
							for _, f := range frames[t] {
								if err := srvs[t].Receive(f); err != nil {
									b.Error(err)
									return
								}
							}
						}(t)
					}
					wg.Wait()
				}
				b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})

			b.Run(fmt.Sprintf("mode=tcp/tenants=%d/ranks=%d", tenants, ranks), func(b *testing.B) {
				svc, err := Listen("127.0.0.1:0", Config{
					Shards:     server.DefaultShards,
					MaxWorkers: tenants + 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					// Fresh run IDs per iteration: sequence dedup would
					// otherwise absorb the repeat deliveries. Sessions go
					// through the self-healing wrapper — reconnect armed,
					// no faults — so the gate prices the resilience layer
					// the production path actually runs.
					sessions := make([]*ResilientSession, tenants)
					for t := range sessions {
						s, err := DialResilient(ReconnectConfig{
							Addr:  svc.Addr().String(),
							Hello: Hello{RunID: fmt.Sprintf("bench-%d-%d", i, t), Rank: 0},
						})
						if err != nil {
							b.Fatal(err)
						}
						sessions[t] = s
					}
					b.StartTimer()
					var wg sync.WaitGroup
					for t := 0; t < tenants; t++ {
						wg.Add(1)
						go func(t int) {
							defer wg.Done()
							for _, f := range frames[t] {
								if err := sessions[t].SendAsync(f); err != nil {
									b.Error(err)
									return
								}
							}
							if err := sessions[t].Drain(); err != nil {
								b.Error(err)
							}
						}(t)
					}
					wg.Wait()
					b.StopTimer()
					for _, s := range sessions {
						s.Close()
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}
