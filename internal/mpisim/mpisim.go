// Package mpisim is a message-passing runtime over simulated ranks, each
// with its own virtual clock; communication operations synchronize clocks
// and charge costs through the cluster's network model. It stands in for
// MPI on the paper's Tianhe-2 testbed: barrier, send/recv/sendrecv, and the
// bcast / reduce / allreduce / alltoall collectives.
//
// Each rank has a goroutine but runs only while it holds the baton. A rank
// that must wait parks and hands the baton to the next rank of a FIFO run
// queue; whatever unblocks it queues it again. A run is thus a function of
// its program and seed, not of the Go scheduler. With no wildcard receive
// the ranks form a Kahn network, so an empty run queue while ranks are
// unfinished is a true deadlock: each parked rank unwinds with a *Deadlock.
package mpisim

import (
	"fmt"

	"vsensor/internal/cluster"
	"vsensor/internal/obs"
)

// World is one parallel job: P ranks on a cluster. It runs once.
type World struct {
	P       int
	Cluster *cluster.Cluster

	// colls is each kind's instance in progress; its last arrival
	// completes it and resets it in place.
	colls [numCollKinds]struct {
		arrived int
		maxT    int64
		bytes   int64     // the largest any rank passed
		contrib []float64 // by rank; the last arrival sums it in rank order
		waiters []*Proc   // parked arrivals
	}
	pairs map[int]*queue // by src*P+dst

	// runq is the ranks ready to run, in the order they became ready: a
	// ring of P, as a rank is queued at most once.
	procs, runq                 []*Proc
	runHead, runLen, unfinished int
	done                        chan struct{}

	// Communication counters, resolved once by SetObs before Run.
	obsColl     [numCollKinds]*obs.Counter
	obsP2PMsgs  *obs.Counter
	obsP2PBytes *obs.Counter
}

// collKind names a collective; the string is the cluster cost model's and
// the metric label's name for it.
type collKind uint8

const (
	collBarrier collKind = iota
	collBcast
	collReduce
	collAllreduce
	collAlltoall
	numCollKinds
)

var collNames = [numCollKinds]string{"barrier", "bcast", "reduce", "allreduce", "alltoall"}

// SetObs attaches communication metrics (mpi_collectives_total{kind=...},
// mpi_p2p_messages_total, mpi_p2p_bytes_total). Must be called before Run.
func (w *World) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	for kind, name := range collNames {
		w.obsColl[kind] = o.Counter("mpi_collectives_total", "kind", name)
	}
	w.obsP2PMsgs = o.Counter("mpi_p2p_messages_total")
	w.obsP2PBytes = o.Counter("mpi_p2p_bytes_total")
}

// message is an in-flight point-to-point payload.
type message struct {
	sentAt, bytes int64
	value         float64
}

// Proc is one rank's handle: its clock and communication endpoints.
// Methods must only be called from the rank's own goroutine, inside Run.
type Proc struct {
	Rank  int
	World *World
	now   int64

	wake   chan struct{} // the baton arrives here (capacity 1)
	parked bool          // waiting to be readied
	stuck  bool          // parked when the job deadlocked: it can never run on
	sum    float64       // a completed collective's result, set by its last arrival
}

// Deadlock is the panic a parked rank unwinds with once every unfinished
// rank is parked.
type Deadlock struct {
	Rank           int
	Op             string // "send", "recv" or the collective's name
	Peer           int    // the rank a send or receive waits on
	Arrived, Ranks int    // how many of the job's ranks reached the collective
}

func (d *Deadlock) Error() string {
	what := fmt.Sprintf("in %s, which %d of %d ranks reached,", d.Op, d.Arrived, d.Ranks)
	switch d.Op {
	case "recv":
		what = fmt.Sprintf("for a message from rank %d", d.Peer)
	case "send":
		what = fmt.Sprintf("for rank %d to receive one of %d queued messages", d.Peer, eagerBound)
	}
	return "deadlock: waits " + what + " and no other rank can run"
}

// NewWorld creates a job with p ranks on c.
func NewWorld(p int, c *cluster.Cluster) *World {
	if p <= 0 {
		panic("mpisim: world needs at least one rank")
	}
	w := &World{P: p, Cluster: c, pairs: make(map[int]*queue)}
	for kind := range w.colls {
		w.colls[kind].contrib = make([]float64, p)
		w.colls[kind].waiters = make([]*Proc, 0, p)
	}
	return w
}

// Run executes body once per rank, each on its own goroutine but one at a
// time, and returns the maximum final clock across ranks (the job's
// execution time) once every body has returned. A body that does not
// recover a *Deadlock crashes the program; one that does must return
// without communicating again.
func (w *World) Run(body func(p *Proc)) int64 {
	w.procs, w.runq = make([]*Proc, w.P), make([]*Proc, w.P)
	w.unfinished, w.done = w.P, make(chan struct{})
	for r := range w.procs {
		p := &Proc{Rank: r, World: w, wake: make(chan struct{}, 1)}
		w.procs[r] = p
		w.ready(p)
		go func() {
			<-p.wake
			defer func() { w.unfinished--; w.pass() }()
			body(p)
		}()
	}
	w.pass()
	<-w.done
	var total int64
	for _, p := range w.procs {
		total = max(total, p.now)
	}
	return total
}

// ready queues a rank to run.
func (w *World) ready(p *Proc) {
	p.parked = false
	w.runq[(w.runHead+w.runLen)%w.P] = p
	w.runLen++
}

// pass hands the baton on from a rank that parked or finished. With no
// rank ready every unfinished one is parked: each is readied to unwind.
func (w *World) pass() {
	if w.runLen == 0 {
		if w.unfinished == 0 {
			close(w.done)
			return
		}
		for _, p := range w.procs {
			if p.parked {
				p.stuck = true
				w.ready(p)
			}
		}
	}
	p := w.runq[w.runHead]
	w.runHead = (w.runHead + 1) % w.P
	w.runLen--
	p.wake <- struct{}{}
}

// park blocks the rank until another readies it, passing the baton
// meanwhile. It reports false if the job deadlocked instead.
func (p *Proc) park() bool {
	p.parked = true
	p.World.pass()
	<-p.wake
	return !p.stuck
}

// Now returns the rank's virtual clock.
func (p *Proc) Now() int64 { return p.now }

// AdvanceTo moves the clock forward to t (no-op if t is in the past).
func (p *Proc) AdvanceTo(t int64) { p.now = max(p.now, t) }

// Compute charges cpuNs of nominal CPU work and memNs of nominal memory
// work at the current time, through the cluster's speed model.
func (p *Proc) Compute(cpuNs, memNs float64) {
	p.now += p.World.Cluster.ComputeCost(p.Rank, p.now, cpuNs, memNs)
}

// eagerBound is how many messages a sender may run ahead of its receiver
// before a send blocks.
const eagerBound = 4096

// queue carries the messages from one rank to another, in order. Its ring
// starts in two inline slots and doubles with what is outstanding, up to
// eagerBound, so a pair costs one allocation until more than two of its
// messages wait at once. waiter is its sender or receiver, parked.
type queue struct {
	ring    []message
	head, n int
	inline  [2]message
	waiter  *Proc
}

// wakeWaiter readies the rank parked on q, if any.
func (q *queue) wakeWaiter(w *World) {
	if r := q.waiter; r != nil {
		q.waiter = nil
		w.ready(r)
	}
}

// pair returns the queue carrying messages from src to dst.
func (w *World) pair(src, dst int) *queue {
	key := src*w.P + dst
	q, ok := w.pairs[key]
	if !ok {
		q = &queue{}
		q.ring = q.inline[:]
		w.pairs[key] = q
	}
	return q
}

// Send posts bytes to dst. Eager semantics: the sender continues after a
// local injection overhead; the transfer cost is charged at the receiver.
func (p *Proc) Send(dst int, bytes int64, value float64) {
	p.checkPeer(dst)
	w := p.World
	w.obsP2PMsgs.Inc()
	w.obsP2PBytes.Add(bytes)
	q := w.pair(p.Rank, dst)
	for q.n == eagerBound {
		q.waiter = p
		if !p.park() {
			panic(&Deadlock{Rank: p.Rank, Op: "send", Peer: dst})
		}
	}
	if q.n == len(q.ring) {
		grown := make([]message, 2*len(q.ring))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = message{sentAt: p.now, bytes: bytes, value: value}
	q.n++
	q.wakeWaiter(w)
	// Injection overhead: a fraction of the latency.
	p.now += w.Cluster.P2PCost(p.now, 0) / 4
}

// Recv blocks for a message from src and returns its value. Completion time
// is the later of the local post time and the send time, plus the transfer.
func (p *Proc) Recv(src int, bytes int64) float64 {
	p.checkPeer(src)
	q := p.World.pair(src, p.Rank)
	for q.n == 0 {
		q.waiter = p
		if !p.park() {
			panic(&Deadlock{Rank: p.Rank, Op: "recv", Peer: src})
		}
	}
	m := q.ring[q.head]
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	q.wakeWaiter(p.World)
	start := max(p.now, m.sentAt)
	p.now = start + p.World.Cluster.P2PCost(start, max(bytes, m.bytes))
	return m.value
}

// SendRecv exchanges bytes with peer and returns the received value.
func (p *Proc) SendRecv(peer int, bytes int64, value float64) float64 {
	if peer == p.Rank {
		p.now += 1
		return value
	}
	p.Send(peer, bytes, value)
	return p.Recv(peer, bytes)
}

func (p *Proc) checkPeer(r int) {
	if r < 0 || r >= p.World.P {
		panic(fmt.Sprintf("mpisim: rank %d: peer %d out of range [0,%d)", p.Rank, r, p.World.P))
	}
}

// collective runs one instance of a collective: all ranks arrive, the exit
// time is the latest arrival plus the modeled cost of the largest byte
// count any rank passed, and the contributions' sum, in rank order, is
// available for reductions. Neither depends on the arrival order. Ranks
// must call collectives in the same order (standard MPI requirement).
func (p *Proc) collective(kind collKind, bytes int64, contrib float64) float64 {
	w := p.World
	w.obsColl[kind].Inc() // a nil counter's Inc is a no-op
	c := &w.colls[kind]
	c.arrived++
	c.maxT = max(c.maxT, p.now)
	c.bytes = max(c.bytes, bytes)
	c.contrib[p.Rank] = contrib
	if c.arrived < w.P {
		c.waiters = append(c.waiters, p)
		if !p.park() {
			panic(&Deadlock{Rank: p.Rank, Op: collNames[kind], Arrived: c.arrived, Ranks: w.P})
		}
		return p.sum
	}
	var sum float64
	for _, v := range c.contrib {
		sum += v
	}
	exit := c.maxT + w.Cluster.CollectiveCost(collNames[kind], w.P, c.bytes, c.maxT)
	for _, r := range c.waiters {
		r.now, r.sum = exit, sum
		w.ready(r)
	}
	c.waiters = c.waiters[:0]
	c.arrived, c.maxT, c.bytes = 0, 0, 0
	p.now = exit
	return sum
}

// Barrier synchronizes all ranks (paper Fig. 4's MPI_Barrier).
func (p *Proc) Barrier() { p.collective(collBarrier, 0, 0) }

// Allreduce reduces contrib across all ranks (sum) moving bytes per rank.
func (p *Proc) Allreduce(bytes int64, contrib float64) float64 {
	return p.collective(collAllreduce, bytes, contrib)
}

// Alltoall performs the personalized all-to-all exchange of bytes per rank
// — the operation that made FT vulnerable to network problems (paper §6.5).
func (p *Proc) Alltoall(bytes int64) { p.collective(collAlltoall, bytes, 0) }

// Bcast broadcasts from root; the returned value is the root's contribution.
func (p *Proc) Bcast(root int, bytes int64, value float64) float64 {
	var contrib float64
	if p.Rank == root {
		contrib = value
	}
	return p.collective(collBcast, bytes, contrib)
}

// Reduce reduces contrib to root (sum); all ranks receive the sum here for
// simplicity, matching the simulator's needs.
func (p *Proc) Reduce(root int, bytes int64, contrib float64) float64 {
	return p.collective(collReduce, bytes, contrib)
}
