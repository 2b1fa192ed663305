// Package cluster models the machine that simulated programs run on: a set
// of nodes with per-node CPU and memory speeds, an interconnect with
// latency/bandwidth and a time-varying congestion factor, and injectable
// performance variance — the phenomena the paper observed on Tianhe-2
// (slow-memory bad nodes, network degradation windows, competing noiser
// processes, periodic OS noise).
//
// All time is virtual, in integer nanoseconds, so runs are deterministic
// and a laptop can "run" thousands of ranks.
package cluster

import (
	"fmt"
	"math"

	"vsensor/internal/obs"
)

// Config describes a cluster.
type Config struct {
	Nodes        int     // number of nodes
	RanksPerNode int     // MPI ranks placed per node
	Seed         int64   // seed for the per-rank jitter streams
	JitterPct    float64 // uniform multiplicative jitter on compute costs
}

// The interconnect and shared filesystem every cluster has. Node speeds
// start at 1.0 (nominal) and are degraded per node (SetNodeCPUSpeed,
// SetNodeMemSpeed).
const (
	LatencyNs  = 1500 // per-message latency
	BytesPerNs = 6.0  // link bandwidth, ~6 GB/s

	// Shared filesystem defaults: 20µs latency, ~1 GB/s streaming.
	DefaultIOLatencyNs  = 20_000
	DefaultIOBytesPerNs = 1.0
)

// Cluster is a virtual machine room.
type Cluster struct {
	cfg   Config
	nodes []*Node

	netWindows []Window // network congestion factor over time
	ioWindows  []Window // shared-filesystem speed factor over time
	osNoise    *OSNoise

	// Cost-model invocation counters (nil-safe no-ops when obs is off).
	// The cost functions are called concurrently from rank goroutines, so
	// these must stay lock-free.
	obsCompute    *obs.Counter
	obsP2P        *obs.Counter
	obsCollective *obs.Counter
	obsIO         *obs.Counter
}

// SetObs attaches cost-model metrics (cluster_cost_calls_total{kind=...}).
// Call before the run starts; idempotent.
func (c *Cluster) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	c.obsCompute = o.Counter("cluster_cost_calls_total", "kind", "compute")
	c.obsP2P = o.Counter("cluster_cost_calls_total", "kind", "p2p")
	c.obsCollective = o.Counter("cluster_cost_calls_total", "kind", "collective")
	c.obsIO = o.Counter("cluster_cost_calls_total", "kind", "io")
}

// Node is one machine with its own speed profile and noise windows.
type Node struct {
	ID       int
	CPUSpeed float64
	MemSpeed float64
	cpuWin   []Window
	memWin   []Window
}

// Window is a time-bounded multiplicative performance factor.
// Factor 1.0 is nominal; 0.5 means the component runs at half speed.
type Window struct {
	Start, End int64
	Factor     float64
}

func (w Window) active(t int64) bool { return t >= w.Start && t < w.End }

// OSNoise models the periodic, short-duration kernel interference of
// paper §5.1/Fig. 12: every Period ns, a slice of Duration ns runs at
// Factor speed.
type OSNoise struct {
	Period   int64
	Duration int64
	Factor   float64
}

// New creates a cluster.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 1
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &Node{ID: i, CPUSpeed: 1, MemSpeed: 1})
	}
	return c
}

// Ranks returns the total rank capacity.
func (c *Cluster) Ranks() int { return c.cfg.Nodes * c.cfg.RanksPerNode }

// NodeOf returns the node hosting the given rank.
func (c *Cluster) NodeOf(rank int) *Node {
	return c.nodes[(rank/c.cfg.RanksPerNode)%len(c.nodes)]
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// ---------- variance injection ----------

// SetNodeMemSpeed marks a node's memory subsystem as permanently degraded —
// the "bad node" of the paper's Fig. 21 case study (one processor at 55%
// memory performance).
func (c *Cluster) SetNodeMemSpeed(node int, factor float64) {
	c.nodes[node].MemSpeed = factor
}

// SetNodeCPUSpeed sets a node's base CPU speed.
func (c *Cluster) SetNodeCPUSpeed(node int, factor float64) {
	c.nodes[node].CPUSpeed = factor
}

// AddCPUNoise slows the CPUs of a node during [start,end) — the competing
// "noiser" process of the paper's §6.4 injection experiment.
func (c *Cluster) AddCPUNoise(node int, start, end int64, factor float64) {
	n := c.nodes[node]
	n.cpuWin = append(n.cpuWin, Window{Start: start, End: end, Factor: factor})
}

// AddMemNoise slows a node's memory during [start,end).
func (c *Cluster) AddMemNoise(node int, start, end int64, factor float64) {
	n := c.nodes[node]
	n.memWin = append(n.memWin, Window{Start: start, End: end, Factor: factor})
}

// AddNetWindow degrades the whole interconnect during [start,end) — the
// congestion episode behind the paper's Fig. 22 (3.37× FT slowdown).
func (c *Cluster) AddNetWindow(start, end int64, factor float64) {
	c.netWindows = append(c.netWindows, Window{Start: start, End: end, Factor: factor})
}

// SetOSNoise enables periodic kernel noise on every node.
func (c *Cluster) SetOSNoise(period, duration int64, factor float64) {
	c.osNoise = &OSNoise{Period: period, Duration: duration, Factor: factor}
}

// AddIOWindow degrades the shared filesystem during [start,end).
func (c *Cluster) AddIOWindow(start, end int64, factor float64) {
	c.ioWindows = append(c.ioWindows, Window{Start: start, End: end, Factor: factor})
}

// IOFactor returns the shared-filesystem speed factor at time t.
func (c *Cluster) IOFactor(t int64) float64 {
	f := 1.0
	for _, w := range c.ioWindows {
		if w.active(t) {
			f *= w.Factor
		}
	}
	return f
}

// IOCost is the cost of reading or writing n bytes starting at t.
func (c *Cluster) IOCost(t int64, bytes int64) int64 {
	c.obsIO.Inc()
	f := c.IOFactor(t)
	cost := (DefaultIOLatencyNs + float64(bytes)/DefaultIOBytesPerNs) / f
	return int64(math.Ceil(cost))
}

// ---------- cost model ----------

// CPUFactor returns the effective CPU speed of a rank at time t
// (excluding random jitter).
func (c *Cluster) CPUFactor(rank int, t int64) float64 {
	n := c.NodeOf(rank)
	f := n.CPUSpeed
	for _, w := range n.cpuWin {
		if w.active(t) {
			f *= w.Factor
		}
	}
	if c.osNoise != nil && c.osNoise.Period > 0 {
		if t%c.osNoise.Period < c.osNoise.Duration {
			f *= c.osNoise.Factor
		}
	}
	return f
}

// MemFactor returns the effective memory speed of a rank at time t.
func (c *Cluster) MemFactor(rank int, t int64) float64 {
	n := c.NodeOf(rank)
	f := n.MemSpeed
	for _, w := range n.memWin {
		if w.active(t) {
			f *= w.Factor
		}
	}
	return f
}

// NetFactor returns the interconnect speed factor at time t.
func (c *Cluster) NetFactor(t int64) float64 {
	f := 1.0
	for _, w := range c.netWindows {
		if w.active(t) {
			f *= w.Factor
		}
	}
	return f
}

// ComputeCost converts cpuNs of nominal CPU work and memNs of nominal
// memory work done by rank starting at t into elapsed virtual nanoseconds.
func (c *Cluster) ComputeCost(rank int, t int64, cpuNs, memNs float64) int64 {
	c.obsCompute.Inc()
	cf := c.CPUFactor(rank, t)
	mf := c.MemFactor(rank, t)
	total := cpuNs/cf + memNs/mf
	if c.cfg.JitterPct > 0 {
		total *= 1 + c.cfg.JitterPct*(2*c.jitter(rank, t)-1)
	}
	if total < 1 {
		total = 1
	}
	return int64(math.Ceil(total))
}

// P2PCost is the cost of moving n bytes between two ranks starting at t.
func (c *Cluster) P2PCost(t int64, bytes int64) int64 {
	c.obsP2P.Inc()
	nf := c.NetFactor(t)
	cost := (float64(LatencyNs) + float64(bytes)/BytesPerNs) / nf
	return int64(math.Ceil(cost))
}

// CollectiveCost models the cost of a collective over p ranks moving n
// bytes per rank, starting at t.
// kind: "barrier", "bcast", "reduce", "allreduce", "alltoall".
func (c *Cluster) CollectiveCost(kind string, p int, bytes int64, t int64) int64 {
	c.obsCollective.Inc()
	if p <= 1 {
		return 1
	}
	nf := c.NetFactor(t)
	lg := math.Ceil(math.Log2(float64(p)))
	lat, bw := float64(LatencyNs), BytesPerNs
	var cost float64
	switch kind {
	case "barrier":
		cost = lg * lat
	case "bcast", "reduce":
		cost = lg * (lat + float64(bytes)/bw)
	case "allreduce":
		cost = 2 * lg * (lat + float64(bytes)/bw)
	case "alltoall":
		// All-to-all moves p-1 messages per rank; heavily network-bound,
		// which is what makes FT vulnerable to congestion (paper §6.5).
		cost = float64(p-1) * (lat/8 + float64(bytes)/bw)
	default:
		panic(fmt.Sprintf("cluster: unknown collective %q", kind))
	}
	return int64(math.Ceil(cost / nf))
}

// jitter returns a deterministic pseudo-random value in [0,1) that varies
// with rank and time, seeded by the cluster seed.
func (c *Cluster) jitter(rank int, t int64) float64 {
	x := uint64(c.cfg.Seed) ^ uint64(rank)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
