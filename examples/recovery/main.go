// Command recovery demonstrates the durable analysis server and rank
// liveness leases. A bad-node workload streams monitoring data over a
// faulty link while:
//
//   - the analysis server runs with a write-ahead log and snapshots, and
//     the fault plan's crash window REALLY crashes it mid-run — memory
//     wiped, disk crashed — so the verdict below was computed by a server
//     that rebuilt itself from snapshot + WAL replay;
//   - one rank dies permanently partway through (deadrank fault). Liveness
//     leases notice the silence: the dead rank is excluded from the
//     analysis watermark, so the run terminates with a degraded verdict
//     naming the rank instead of stalling forever waiting for it.
package main

import (
	"fmt"
	"log"

	vsensor "vsensor"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/server"
	"vsensor/internal/transport"
)

func main() {
	const (
		ranks        = 32
		ranksPerNode = 8
		badNode      = 2
		deadRank     = 13
	)
	app := apps.MustGet("CG", apps.Scale{Iters: 60, Work: 80})
	cl := cluster.New(cluster.Config{Nodes: ranks / ranksPerNode, RanksPerNode: ranksPerNode})
	cl.SetNodeMemSpeed(badNode, 0.55)

	plan := &transport.FaultPlan{
		Seed: 11, Drop: 0.1, Dup: 0.05,
		CrashAfterFrames: 60, CrashDownFrames: 20,
		DeadRank: deadRank, DeadAfterFrames: 2,
	}
	rep, err := vsensor.Run(app.Source, vsensor.Options{
		Ranks:      ranks,
		Cluster:    cl,
		Faults:     plan,
		Durability: &server.DurabilityConfig{SnapshotEvery: 64},
		Transport:  &transport.Config{BatchSize: 8, LeaseNs: 1_000_000}, // 1ms lease, heartbeat every 0.5ms
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run: %.3f ms over %d ranks, fault plan [%s]\n",
		rep.TotalSeconds()*1e3, ranks, plan)

	ds := rep.Durability()
	fmt.Printf("\ndurability: %d WAL entries (%d bytes, %d syncs), %d snapshots, %d crash recoveries\n",
		ds.WALEntries, ds.WALBytes, ds.Syncs, ds.Snapshots, ds.Recoveries)
	if ds.Recoveries > 0 {
		lr := ds.LastRecovery
		fmt.Printf("last recovery: snapshot gen %d (lsn %d) + %d WAL entries replayed "+
			"(%d frames, %d records rebuilt, %d torn bytes discarded)\n",
			lr.SnapshotGen, lr.SnapshotLSN, lr.WALEntriesReplayed,
			lr.FramesReplayed, lr.RecordsRecovered, lr.TruncatedBytes)
	}

	fmt.Println("\nrank liveness:")
	for _, rl := range rep.Liveness() {
		if rl.State != server.Alive {
			fmt.Printf("  rank %-3d %-8s last seen %.3f ms, lag %.3f ms (lease %.3f ms)\n",
				rl.Rank, rl.State, float64(rl.LastSeenNs)/1e6, float64(rl.LagNs)/1e6, float64(rl.LeaseNs)/1e6)
		}
	}
	sum := rep.Server.LivenessSummary()
	fmt.Printf("  %d alive, %d suspect, %d dead\n", sum.Alive, sum.Suspect, sum.Dead)

	verdict := rep.Server.InterProcessReport(0.85)
	fmt.Printf("\nverdict: %d outlier flags", len(verdict.Outliers))
	if verdict.Degraded {
		fmt.Printf(" — DEGRADED: dead ranks %v excluded from the watermark\n", verdict.DeadRanks)
	} else {
		fmt.Println(" (fully live fleet)")
	}
	fmt.Printf("confidence: %.3f = coverage %.3f x liveness %.3f\n",
		verdict.Confidence, verdict.Coverage.Fraction(), verdict.LivenessConfidence)

	byNode := map[int]int{}
	for _, o := range verdict.Outliers {
		byNode[o.Rank/ranksPerNode]++
	}
	top, cnt := -1, 0
	for n, c := range byNode {
		if c > cnt {
			top, cnt = n, c
		}
	}
	if top == badNode {
		fmt.Printf("\nbad node %d still localized (%d flags) through crash, recovery, and a dead rank\n", badNode, cnt)
	} else {
		fmt.Printf("\nWARNING: bad node %d not dominant (top node %d with %d flags)\n", badNode, top, cnt)
	}
}
