// Package mpisim is a message-passing runtime over simulated ranks. Each
// rank runs as a goroutine with its own virtual clock; communication
// operations synchronize clocks and charge costs through the cluster's
// network model. It stands in for MPI on the paper's Tianhe-2 testbed:
// barrier, point-to-point send/recv/sendrecv, and the bcast / reduce /
// allreduce / alltoall collectives.
package mpisim

import (
	"fmt"
	"sync"

	"vsensor/internal/cluster"
	"vsensor/internal/obs"
)

// World is one parallel job: P ranks on a cluster.
type World struct {
	P       int
	Cluster *cluster.Cluster

	// colls holds one slot per collective instance, indexed by kind and by
	// the instance's sequence number within its kind. Entries are retained
	// for the lifetime of the world (one small struct per collective call,
	// not per rank), which keeps every rank free to read its exit time.
	colls [numCollKinds]struct {
		mu    sync.Mutex
		slots []*collSlot
		// contrib holds each rank's share of the kind's instance in
		// progress; its last arrival sums it in rank order.
		contrib []float64
	}
	pairMu sync.Mutex
	pairs  map[int]*queue // by src*P+dst; ranks cache what they look up

	// Communication counters, resolved once by SetObs before the ranks
	// start (then read-only, so rank goroutines may share them).
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
	sentAt int64
	bytes  int64
	value  float64
}

// Proc is one rank's handle: its clock and communication endpoints.
// Methods must only be called from the rank's own goroutine.
type Proc struct {
	Rank  int
	World *World
	now   int64

	collSeq [numCollKinds]int // local per-kind collective counters

	// pairs caches the world's queues to and from the peers this rank has
	// talked to (same keys), so a message costs one lookup in a small
	// private map.
	pairs map[int]*queue
}

// NewWorld creates a job with p ranks on c.
func NewWorld(p int, c *cluster.Cluster) *World {
	if p <= 0 {
		panic("mpisim: world needs at least one rank")
	}
	w := &World{P: p, Cluster: c}
	for kind := range w.colls {
		w.colls[kind].contrib = make([]float64, p)
	}
	return w
}

// Proc returns the handle for one rank.
func (w *World) Proc(rank int) *Proc {
	if rank < 0 || rank >= w.P {
		panic(fmt.Sprintf("mpisim: rank %d out of range [0,%d)", rank, w.P))
	}
	return &Proc{Rank: rank, World: w}
}

// Run spawns one goroutine per rank executing body and waits for all of
// them. It returns the maximum final clock across ranks (the job's
// execution time).
func (w *World) Run(body func(p *Proc)) int64 {
	var wg sync.WaitGroup
	procs := make([]*Proc, w.P)
	for r := 0; r < w.P; r++ {
		procs[r] = w.Proc(r)
	}
	wg.Add(w.P)
	for r := 0; r < w.P; r++ {
		go func(p *Proc) {
			defer wg.Done()
			body(p)
		}(procs[r])
	}
	wg.Wait()
	var max int64
	for _, p := range procs {
		if p.now > max {
			max = p.now
		}
	}
	return max
}

// Now returns the rank's virtual clock.
func (p *Proc) Now() int64 { return p.now }

// AdvanceTo moves the clock forward to t (no-op if t is in the past).
func (p *Proc) AdvanceTo(t int64) {
	if t > p.now {
		p.now = t
	}
}

// Compute charges cpuNs of nominal CPU work and memNs of nominal memory
// work at the current time, through the cluster's speed model.
func (p *Proc) Compute(cpuNs, memNs float64) {
	p.now += p.World.Cluster.ComputeCost(p.Rank, p.now, cpuNs, memNs)
}

// ---------- point-to-point ----------

// eagerBound is how many messages a sender may run ahead of its receiver
// before a send blocks.
const eagerBound = 4096

// queue carries the messages from one rank to another, in order. Its ring
// starts in two inline slots and doubles with what is outstanding, up to
// eagerBound, so a pair costs one allocation until more than two of its
// messages wait at once.
type queue struct {
	mu                sync.Mutex
	nonEmpty, nonFull sync.Cond // on mu
	ring              []message
	head, n           int
	inline            [2]message
}

func (q *queue) push(m message) {
	q.mu.Lock()
	for q.n == eagerBound {
		q.nonFull.Wait()
	}
	if q.n == len(q.ring) {
		grown := make([]message, 2*len(q.ring))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = m
	q.n++
	q.mu.Unlock()
	q.nonEmpty.Signal()
}

func (q *queue) pop() message {
	q.mu.Lock()
	for q.n == 0 {
		q.nonEmpty.Wait()
	}
	m := q.ring[q.head]
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	q.mu.Unlock()
	q.nonFull.Signal()
	return m
}

// pair returns the queue carrying messages from src to dst.
func (p *Proc) pair(src, dst int) *queue {
	w := p.World
	key := src*w.P + dst
	if q, ok := p.pairs[key]; ok {
		return q
	}
	w.pairMu.Lock()
	q, ok := w.pairs[key]
	if !ok {
		if w.pairs == nil {
			w.pairs = make(map[int]*queue)
		}
		q = &queue{}
		q.ring = q.inline[:]
		q.nonEmpty.L, q.nonFull.L = &q.mu, &q.mu
		w.pairs[key] = q
	}
	w.pairMu.Unlock()
	if p.pairs == nil {
		p.pairs = make(map[int]*queue)
	}
	p.pairs[key] = q
	return q
}

// Send posts bytes to dst. Eager semantics: the sender continues after a
// local injection overhead; the transfer cost is charged at the receiver.
func (p *Proc) Send(dst int, bytes int64, value float64) {
	p.checkPeer(dst)
	p.World.obsP2PMsgs.Inc()
	p.World.obsP2PBytes.Add(bytes)
	p.pair(p.Rank, dst).push(message{sentAt: p.now, bytes: bytes, value: value})
	// Injection overhead: a fraction of the latency.
	p.now += p.World.Cluster.P2PCost(p.now, 0) / 4
}

// Recv blocks for a message from src and returns its value. Completion time
// is the later of the local post time and the send time, plus the transfer.
func (p *Proc) Recv(src int, bytes int64) float64 {
	p.checkPeer(src)
	m := p.pair(src, p.Rank).pop()
	start := p.now
	if m.sentAt > start {
		start = m.sentAt
	}
	n := bytes
	if m.bytes > n {
		n = m.bytes
	}
	p.now = start + p.World.Cluster.P2PCost(start, n)
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

// ---------- collectives ----------

// collSlot synchronizes one collective instance across all ranks.
type collSlot struct {
	mu      sync.Mutex
	cond    sync.Cond // on mu
	arrived int
	maxT    int64
	sum     float64
	exit    int64
	done    bool
}

// slot returns the seq-th instance of a collective, created by whichever
// rank gets there first.
func (w *World) slot(kind collKind, seq int) *collSlot {
	c := &w.colls[kind]
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.slots) <= seq {
		s := &collSlot{}
		s.cond.L = &s.mu
		c.slots = append(c.slots, s)
	}
	return c.slots[seq]
}

// collective runs one instance of a collective: all ranks arrive, the exit
// time is the latest arrival plus the modeled cost, and the contributions'
// sum, in rank order whatever the arrival order, is available for
// reductions. Ranks must call collectives in the same order (standard MPI
// requirement).
func (p *Proc) collective(kind collKind, bytes int64, contrib float64) float64 {
	p.World.obsColl[kind].Inc() // a nil counter's Inc is a no-op
	seq := p.collSeq[kind]
	p.collSeq[kind] = seq + 1
	s := p.World.slot(kind, seq)

	s.mu.Lock()
	s.arrived++
	if p.now > s.maxT {
		s.maxT = p.now
	}
	c := &p.World.colls[kind]
	c.contrib[p.Rank] = contrib
	if s.arrived == p.World.P {
		for _, v := range c.contrib {
			s.sum += v
		}
		s.exit = s.maxT + p.World.Cluster.CollectiveCost(collNames[kind], p.World.P, bytes, s.maxT)
		s.done = true
		s.cond.Broadcast()
	} else {
		for !s.done {
			s.cond.Wait()
		}
	}
	exit, sum := s.exit, s.sum
	s.mu.Unlock()

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
func (p *Proc) Alltoall(bytes int64) {
	p.collective(collAlltoall, bytes, 0)
}

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
