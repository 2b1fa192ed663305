package mpisim

import (
	"runtime"
	"sync"
	"testing"
	"time"

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
// the next unreceived send blocks until one receive, and every message
// arrives in the order it was sent, across the queue's growth and wrap.
func TestEagerBoundBlocksSender(t *testing.T) {
	w := newWorld(2)
	src, dst := w.Proc(0), w.Proc(1)
	src.Send(1, 8, -1) // the ring's head now sits mid-ring when it grows
	if v := dst.Recv(0, 8); v != -1 {
		t.Fatalf("first message = %v, want -1", v)
	}
	for i := 0; i < eagerBound; i++ {
		src.Send(1, 8, float64(i))
	}
	sent := make(chan struct{})
	go func() {
		src.Send(1, 8, eagerBound)
		close(sent)
	}()
	// A blocked send has no event to wait on: a send that does not block
	// completes well inside the window.
	select {
	case <-sent:
		t.Fatalf("send %d completed with %d messages unreceived", eagerBound+1, eagerBound)
	case <-time.After(50 * time.Millisecond):
	}
	if v := dst.Recv(0, 8); v != 0 {
		t.Fatalf("message 0 = %v", v)
	}
	<-sent
	for i := 1; i <= eagerBound; i++ {
		if v := dst.Recv(0, 8); v != float64(i) {
			t.Fatalf("message %d = %v", i, v)
		}
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
	w := newWorld(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range peer")
		}
	}()
	p := w.Proc(0)
	p.Send(5, 1, 0)
}

// Steady-state communication allocates one collSlot per collective instance
// (plus the slot table's amortized growth): nothing per rank, nothing per
// message, no formatted keys.
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
	const collectives = 2 * k // an allreduce and a barrier per round
	if got := after.Mallocs - before.Mallocs; got > collectives+32 {
		t.Errorf("%d mallocs over %d rounds of sendrecv+allreduce+barrier, want at most one per collective (%d)", got, k, collectives)
	}
}
