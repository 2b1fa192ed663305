package mpisim

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"vsensor/internal/cluster"
)

func newWorld(p int) *World {
	c := cluster.New(cluster.Config{Nodes: p, RanksPerNode: 1})
	return NewWorld(p, c)
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := newWorld(8)
	var mu sync.Mutex
	exits := make([]int64, 8)
	w.Run(func(p *Proc) {
		// Each rank does a different amount of work first.
		p.Compute(float64(p.Rank)*1e6, 0)
		p.Barrier()
		mu.Lock()
		exits[p.Rank] = p.Now()
		mu.Unlock()
	})
	for r := 1; r < 8; r++ {
		if exits[r] != exits[0] {
			t.Fatalf("barrier exit times differ: %v", exits)
		}
	}
	// The barrier exit must not precede the slowest rank's arrival (~7ms).
	if exits[0] < 7_000_000 {
		t.Errorf("barrier exited before slowest arrival: %d", exits[0])
	}
}

func TestSendRecvTiming(t *testing.T) {
	w := newWorld(2)
	var recvTime int64
	var got float64
	w.Run(func(p *Proc) {
		if p.Rank == 0 {
			p.Compute(5e6, 0) // sender is slow to post
			p.Send(1, 1<<20, 42)
		} else {
			got = p.Recv(0, 1<<20)
			recvTime = p.Now()
		}
	})
	if got != 42 {
		t.Errorf("received value = %v", got)
	}
	// Receiver completes after the send post (~5ms) plus transfer.
	if recvTime < 5_000_000 {
		t.Errorf("recv completed too early: %d", recvTime)
	}
}

func TestSendRecvExchange(t *testing.T) {
	w := newWorld(4)
	var mu sync.Mutex
	vals := make([]float64, 4)
	w.Run(func(p *Proc) {
		peer := p.Rank ^ 1
		v := p.SendRecv(peer, 4096, float64(p.Rank))
		mu.Lock()
		vals[p.Rank] = v
		mu.Unlock()
	})
	want := []float64{1, 0, 3, 2}
	for i := range vals {
		if vals[i] != want[i] {
			t.Errorf("rank %d exchanged value %v, want %v", i, vals[i], want[i])
		}
	}
}

// A sender runs ahead of its receiver by eagerBound messages and no more:
// the next unreceived send completes only after the receiver's next
// receive, and every message arrives in the order it was sent, across the
// queue's growth and wrap. The ranks append to one log as they go; only
// the rank holding the baton runs, so the log is the order of events.
func TestEagerBoundBlocksSender(t *testing.T) {
	type event struct {
		recv bool
		i    int
	}
	var log []event
	newWorld(2).Run(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, 8, -1) // the ring's head now sits mid-ring when it grows
			p.Recv(1, 8)     // wait until it is received
			for i := 0; i <= eagerBound; i++ {
				p.Send(1, 8, float64(i))
				log = append(log, event{false, i})
			}
			return
		}
		if v := p.Recv(0, 8); v != -1 {
			t.Errorf("first message = %v, want -1", v)
		}
		p.Send(0, 8, 0)
		for i := 0; i <= eagerBound; i++ {
			if v := p.Recv(0, 8); v != float64(i) {
				t.Errorf("message %d = %v", i, v)
			}
			log = append(log, event{true, i})
		}
	})
	firstRecv := slices.Index(log, event{true, 0})
	if firstRecv != eagerBound {
		t.Fatalf("rank 1's first receive is event %d, want %d: after every send the bound lets through", firstRecv, eagerBound)
	}
	if last := slices.Index(log, event{false, eagerBound}); last < firstRecv {
		t.Errorf("send %d completed (event %d) with %d messages unreceived", eagerBound+1, last, eagerBound)
	}
}

// A collective is priced with the largest byte count any rank passes, so
// its exit time does not depend on which rank arrives last: rank 7 passes
// the most, and arrives last, then (after a chain of messages from rank 7
// down to rank 0) first.
func TestCollectiveCostUsesMaxBytes(t *testing.T) {
	const p = 8
	for _, chain := range []bool{false, true} {
		w := newWorld(p)
		exits := make([]int64, p)
		var maxT int64
		w.Run(func(pr *Proc) {
			if chain && pr.Rank < p-1 {
				pr.Recv(pr.Rank+1, 8)
			}
			if chain && pr.Rank > 0 {
				pr.Send(pr.Rank-1, 8, 0)
			}
			pr.Compute(float64(pr.Rank%3)*1e5, 0)
			maxT = max(maxT, pr.Now())
			pr.Allreduce(100000*int64(pr.Rank+1), 1)
			exits[pr.Rank] = pr.Now()
		})
		want := maxT + w.Cluster.CollectiveCost("allreduce", p, 800000, maxT)
		for r, e := range exits {
			if e != want {
				t.Errorf("chain=%v: rank %d exits at %d, want %d (latest arrival %d plus the cost of 800000 bytes)", chain, r, e, want, maxT)
			}
		}
	}
}

// When every unfinished rank is parked, each unwinds with a *Deadlock
// naming what it waits for, and Run returns.
func TestDeadlockUnwindsParkedRanks(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(p *Proc)
		want []string // by rank; "" for a rank that returns
	}{
		{"recv-nobody-sends", func(p *Proc) {
			if p.Rank == 0 {
				p.Recv(1, 8)
			}
		}, []string{"deadlock: waits for a message from rank 1 and no other rank can run", "", ""}},
		{"barrier-not-all-reach", func(p *Proc) {
			if p.Rank != 1 {
				p.Barrier()
			}
		}, []string{
			"deadlock: waits in barrier, which 2 of 3 ranks reached, and no other rank can run",
			"",
			"deadlock: waits in barrier, which 2 of 3 ranks reached, and no other rank can run",
		}},
		{"recv-cycle", func(p *Proc) {
			p.Recv((p.Rank+1)%3, 8)
		}, []string{
			"deadlock: waits for a message from rank 1 and no other rank can run",
			"deadlock: waits for a message from rank 2 and no other rank can run",
			"deadlock: waits for a message from rank 0 and no other rank can run",
		}},
		{"eager-bound-to-self", func(p *Proc) {
			if p.Rank == 2 {
				for i := 0; i <= eagerBound; i++ {
					p.Send(2, 8, 0)
				}
			}
		}, []string{"", "", "deadlock: waits for rank 2 to receive one of 4096 queued messages and no other rank can run"}},
		{"mismatched-kinds", func(p *Proc) {
			if p.Rank == 0 {
				p.Barrier()
			} else {
				p.Allreduce(8, 1)
			}
		}, []string{
			"deadlock: waits in barrier, which 1 of 3 ranks reached, and no other rank can run",
			"deadlock: waits in allreduce, which 2 of 3 ranks reached, and no other rank can run",
			"deadlock: waits in allreduce, which 2 of 3 ranks reached, and no other rank can run",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := make([]string, 3)
			newWorld(3).Run(func(p *Proc) {
				defer func() {
					if r := recover(); r != nil {
						d := r.(*Deadlock)
						if d.Rank != p.Rank {
							t.Errorf("rank %d unwound with rank %d's deadlock", p.Rank, d.Rank)
						}
						got[p.Rank] = d.Error()
					}
				}()
				c.body(p)
			})
			if !slices.Equal(got, c.want) {
				t.Errorf("deadlocks:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}

// A reduction's value is its contributions summed in rank order, whichever
// rank arrives last: 0.1*rank + 0.3 over 256 ranks has sums that differ in
// the last bit by order.
func TestAllreduceSumsInRankOrder(t *testing.T) {
	const p = 256
	var want float64
	for r := 0; r < p; r++ {
		want += 0.1*float64(r) + 0.3
	}
	for run := 0; run < 30; run++ {
		got := make([]float64, p)
		newWorld(p).Run(func(pr *Proc) {
			got[pr.Rank] = pr.Allreduce(8, 0.1*float64(pr.Rank)+0.3)
		})
		for r, v := range got {
			if v != want {
				t.Fatalf("run %d: rank %d's allreduce = %v, want the rank-order sum %v", run, r, v, want)
			}
		}
	}
}

func TestSelfSendRecv(t *testing.T) {
	w := newWorld(2)
	w.Run(func(p *Proc) {
		if v := p.SendRecv(p.Rank, 64, 7); v != 7 {
			t.Errorf("self exchange value = %v", v)
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	w := newWorld(16)
	var mu sync.Mutex
	sums := make([]float64, 16)
	w.Run(func(p *Proc) {
		s := p.Allreduce(8, float64(p.Rank))
		mu.Lock()
		sums[p.Rank] = s
		mu.Unlock()
	})
	want := float64(15 * 16 / 2)
	for r, s := range sums {
		if s != want {
			t.Fatalf("rank %d allreduce = %v, want %v", r, s, want)
		}
	}
}

func TestBcastValue(t *testing.T) {
	w := newWorld(8)
	var mu sync.Mutex
	vals := make([]float64, 8)
	w.Run(func(p *Proc) {
		var v float64
		if p.Rank == 3 {
			v = 99
		}
		got := p.Bcast(3, 64, v)
		mu.Lock()
		vals[p.Rank] = got
		mu.Unlock()
	})
	for r, v := range vals {
		if v != 99 {
			t.Errorf("rank %d bcast = %v", r, v)
		}
	}
}

func TestConsecutiveCollectivesIndependent(t *testing.T) {
	w := newWorld(4)
	w.Run(func(p *Proc) {
		a := p.Allreduce(8, 1)
		b := p.Allreduce(8, 2)
		if a != 4 || b != 8 {
			t.Errorf("rank %d: a=%v b=%v", p.Rank, a, b)
		}
	})
}

func TestNetworkWindowSlowsCollective(t *testing.T) {
	mk := func(degrade bool) int64 {
		c := cluster.New(cluster.Config{Nodes: 8, RanksPerNode: 1})
		if degrade {
			c.AddNetWindow(0, 1<<62, 0.1)
		}
		w := NewWorld(8, c)
		return w.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Alltoall(1 << 16)
			}
		})
	}
	normal, slow := mk(false), mk(true)
	if slow < normal*5 {
		t.Errorf("degraded network should be ~10x slower: %d vs %d", slow, normal)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() int64 {
		c := cluster.New(cluster.Config{Nodes: 4, RanksPerNode: 2, Seed: 7, JitterPct: 0.02})
		w := NewWorld(8, c)
		return w.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Compute(1e5, 1e4)
				p.SendRecv(p.Rank^1, 4096, 0)
				if i%5 == 0 {
					p.Barrier()
				}
			}
		})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs not deterministic: %d vs %d", a, b)
	}
}

func TestRunReturnsMaxClock(t *testing.T) {
	w := newWorld(4)
	total := w.Run(func(p *Proc) {
		p.Compute(float64(p.Rank)*1e6+1, 0)
	})
	if total < 3_000_000 {
		t.Errorf("total = %d, want >= slowest rank", total)
	}
}

func TestManyRanksBarrierScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := cluster.New(cluster.Config{Nodes: 256, RanksPerNode: 16})
	w := NewWorld(4096, c)
	total := w.Run(func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Compute(1e4, 0)
			p.Barrier()
		}
	})
	if total <= 0 {
		t.Error("no time elapsed")
	}
}

func TestPanicsOnBadPeer(t *testing.T) {
	var got any
	newWorld(2).Run(func(p *Proc) {
		if p.Rank == 0 {
			defer func() { got = recover() }()
			p.Send(5, 1, 0)
		}
	})
	if got != "mpisim: rank 0: peer 5 out of range [0,2)" {
		t.Errorf("send to peer 5 panicked with %v, want the out-of-range message", got)
	}
}

// Steady-state communication allocates nothing: no slot per collective,
// nothing per rank or message, no formatted keys. A collective's state is
// reset in place and a pair's queue reuses its ring.
func TestSteadyStateAllocs(t *testing.T) {
	const k = 1000
	w := newWorld(2)
	var before, after runtime.MemStats
	w.Run(func(p *Proc) {
		for round := 0; round < 2*k; round++ {
			if round == k && p.Rank == 0 {
				runtime.ReadMemStats(&before)
			}
			p.SendRecv(p.Rank^1, 4096, 1)
			p.Allreduce(8, 1)
			p.Barrier()
		}
		if p.Rank == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if got := after.Mallocs - before.Mallocs; got > 8 {
		t.Errorf("%d mallocs over %d rounds of sendrecv+allreduce+barrier, want none that grow with the rounds", got, k)
	}
}
