// Package scenario codifies the paper's evaluation scenarios — the case
// studies of §6.4-6.5 and generic variance injections — as reusable,
// parameterized configurations. A scenario pairs a workload with a cluster
// shape and an injection plan, so examples, experiments, and user code can
// reproduce a situation ("CG on 256 ranks with one slow-memory node") in
// one call instead of re-encoding the setup.
package scenario

import (
	"fmt"
	"sort"

	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/transport"
)

// Injection plans variance relative to the expected run length: fractions
// of the clean run's total time, resolved to absolute virtual times once
// the baseline duration is known.
type Injection struct {
	Kind InjectionKind

	// Node is the target node for node-scoped injections.
	Node int

	// Factor is the performance multiplier (e.g. 0.55 = 55% of nominal).
	Factor float64

	// StartFrac/EndFrac bound windowed injections as fractions of the
	// clean run time; EndFrac > 1 extends past the expected end (the
	// congested run grows). Both zero means the whole run.
	StartFrac, EndFrac float64

	// Period/Duration configure OS noise (absolute nanoseconds).
	Period, Duration int64
}

// InjectionKind enumerates supported variance injections.
type InjectionKind int

// Injection kinds.
const (
	// BadNodeMemory permanently degrades one node's memory (Fig. 21).
	BadNodeMemory InjectionKind = iota
	// BadNodeCPU permanently degrades one node's CPU.
	BadNodeCPU
	// NodeCPUWindow slows one node's CPUs during the window (Figs. 18-20).
	NodeCPUWindow
	// NetworkWindow degrades the interconnect during the window (Fig. 22).
	NetworkWindow
	// IOWindow degrades the shared filesystem during the window.
	IOWindow
	// OSNoise enables periodic kernel noise on every node (Fig. 12).
	OSNoise
)

// String names the injection kind.
func (k InjectionKind) String() string {
	switch k {
	case BadNodeMemory:
		return "bad-node-memory"
	case BadNodeCPU:
		return "bad-node-cpu"
	case NodeCPUWindow:
		return "node-cpu-window"
	case NetworkWindow:
		return "network-window"
	case IOWindow:
		return "io-window"
	case OSNoise:
		return "os-noise"
	}
	return "?"
}

// Scenario is a reproducible experimental situation.
type Scenario struct {
	Name         string
	Description  string
	App          string
	Scale        apps.Scale
	Ranks        int
	RanksPerNode int
	Injections   []Injection

	// Faults, when non-nil, routes the record path through the lossy
	// transport link (internal/transport) with this plan — variance
	// injection on the *monitoring pipeline itself* rather than the
	// application's compute or network. The detection must survive it.
	Faults *transport.FaultPlan
}

// shape returns the cluster's node count and ranks per node.
func (s *Scenario) shape() (nodes, rpn int) {
	rpn = s.RanksPerNode
	if rpn <= 0 {
		rpn = 8
	}
	nodes = (s.Ranks + rpn - 1) / rpn
	if nodes < 1 {
		nodes = 1
	}
	return nodes, rpn
}

// Resize runs the same situation at another rank count: the cluster keeps
// its nodes and each hosts proportionally fewer (or more) ranks, so every
// node-scoped injection still lands on a populated node.
func (s *Scenario) Resize(ranks int) {
	nodes, _ := s.shape()
	s.Ranks = ranks
	s.RanksPerNode = (ranks + nodes - 1) / nodes
}

// Cluster builds the scenario's cluster with injections applied.
// baselineNs is the clean run's total time, used to resolve window
// fractions; pass 0 when the scenario has no windowed injections.
func (s *Scenario) Cluster(baselineNs int64) (*cluster.Cluster, error) {
	nodes, rpn := s.shape()
	cl := cluster.New(cluster.Config{Nodes: nodes, RanksPerNode: rpn})
	for _, inj := range s.Injections {
		if err := apply(cl, inj, nodes, baselineNs); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return cl, nil
}

// CleanCluster builds the scenario's cluster shape without any injections,
// for baseline runs.
func (s *Scenario) CleanCluster() (*cluster.Cluster, error) {
	clean := *s
	clean.Injections = nil
	return clean.Cluster(0)
}

// Source builds the scenario's program.
func (s *Scenario) Source() (string, error) {
	app, err := apps.Get(s.App, s.Scale)
	if err != nil {
		return "", err
	}
	return app.Source, nil
}

// NeedsBaseline reports whether the scenario has windowed injections that
// require a clean-run duration to resolve.
func (s *Scenario) NeedsBaseline() bool {
	for _, inj := range s.Injections {
		switch inj.Kind {
		case NodeCPUWindow, NetworkWindow, IOWindow:
			return true
		}
	}
	return false
}

func apply(cl *cluster.Cluster, inj Injection, nodes int, baselineNs int64) error {
	if inj.Node < 0 || inj.Node >= nodes {
		switch inj.Kind {
		case BadNodeMemory, BadNodeCPU, NodeCPUWindow:
			return fmt.Errorf("injection %s: node %d out of range [0,%d)", inj.Kind, inj.Node, nodes)
		}
	}
	start, end := inj.Window(baselineNs)
	switch inj.Kind {
	case BadNodeMemory:
		cl.SetNodeMemSpeed(inj.Node, inj.Factor)
	case BadNodeCPU:
		cl.SetNodeCPUSpeed(inj.Node, inj.Factor)
	case NodeCPUWindow:
		cl.AddCPUNoise(inj.Node, start, end, inj.Factor)
	case NetworkWindow:
		cl.AddNetWindow(start, end, inj.Factor)
	case IOWindow:
		cl.AddIOWindow(start, end, inj.Factor)
	case OSNoise:
		cl.SetOSNoise(inj.Period, inj.Duration, inj.Factor)
	default:
		return fmt.Errorf("unknown injection kind %d", inj.Kind)
	}
	return nil
}

// Window resolves the injection's fractions against the clean run's total
// time; an unbounded end is 1<<62.
func (inj Injection) Window(baselineNs int64) (start, end int64) {
	if inj.StartFrac == 0 && inj.EndFrac == 0 {
		return 0, int64(1) << 62
	}
	start = int64(inj.StartFrac * float64(baselineNs))
	end = int64(inj.EndFrac * float64(baselineNs))
	if end <= start {
		end = int64(1) << 62
	}
	return start, end
}

// ---------- registry: the paper's case studies ----------

var registry = map[string]*Scenario{
	"badnode-cg": {
		Name:        "badnode-cg",
		Description: "Fig. 21: CG with one slow-memory node (55% of nominal)",
		App:         "CG", Scale: apps.Scale{Iters: 100, Work: 100},
		Ranks: 256, RanksPerNode: 8,
		Injections: []Injection{{Kind: BadNodeMemory, Node: 16, Factor: 0.55}},
	},
	"congestion-ft": {
		Name:        "congestion-ft",
		Description: "Fig. 22: FT under a persistent mid-run network degradation",
		App:         "FT", Scale: apps.Scale{Iters: 50, Work: 40},
		Ranks: 1024, RanksPerNode: 16,
		Injections: []Injection{{Kind: NetworkWindow, Factor: 0.25, StartFrac: 0.2, EndFrac: 100}},
	},
	"noiseinject-cg": {
		Name:        "noiseinject-cg",
		Description: "Figs. 18-20: CG with two CPU-noise windows on rank blocks",
		App:         "CG", Scale: apps.Scale{Iters: 200, Work: 150},
		Ranks: 128, RanksPerNode: 8,
		Injections: []Injection{
			{Kind: NodeCPUWindow, Node: 3, Factor: 0.3, StartFrac: 0.25, EndFrac: 0.42},
			{Kind: NodeCPUWindow, Node: 4, Factor: 0.3, StartFrac: 0.25, EndFrac: 0.42},
			{Kind: NodeCPUWindow, Node: 5, Factor: 0.3, StartFrac: 0.25, EndFrac: 0.42},
			{Kind: NodeCPUWindow, Node: 9, Factor: 0.3, StartFrac: 0.66, EndFrac: 0.83},
			{Kind: NodeCPUWindow, Node: 10, Factor: 0.3, StartFrac: 0.66, EndFrac: 0.83},
			{Kind: NodeCPUWindow, Node: 11, Factor: 0.3, StartFrac: 0.66, EndFrac: 0.83},
		},
	},
	"osnoise-cg": {
		Name:        "osnoise-cg",
		Description: "Fig. 12 backdrop: CG under periodic kernel noise",
		App:         "CG", Scale: apps.Scale{Iters: 60, Work: 60},
		Ranks: 16, RanksPerNode: 8,
		Injections: []Injection{{Kind: OSNoise, Period: 100_000, Duration: 10_000, Factor: 0.3}},
	},
	"iostorm-btio": {
		Name:        "iostorm-btio",
		Description: "shared-filesystem degradation during BT-IO's checkpointing",
		App:         "BTIO", Scale: apps.Scale{Iters: 60, Work: 60},
		Ranks: 32, RanksPerNode: 8,
		Injections: []Injection{{Kind: IOWindow, Factor: 0.15, StartFrac: 0.3, EndFrac: 0.7}},
	},
	"lossylink-cg": {
		Name: "lossylink-cg",
		Description: "CG with one slow-memory node *and* a lossy record link " +
			"(drops, duplicates, reordering, corruption, one server crash-restart): " +
			"detection must still localize the bad node on a flaky monitoring path",
		App:   "CG",
		Scale: apps.Scale{Iters: 60, Work: 80},
		Ranks: 64, RanksPerNode: 8,
		Injections: []Injection{{Kind: BadNodeMemory, Node: 3, Factor: 0.55}},
		Faults: &transport.FaultPlan{
			Seed: 7, Drop: 0.2, Dup: 0.08, Reorder: 0.1, Corrupt: 0.03,
			DelayNs: 5_000, CrashAfterFrames: 40, CrashDownFrames: 15,
		},
	},
}

// Names lists registered scenarios.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns a copy of the named scenario.
func Get(name string) (*Scenario, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown %q (have %v)", name, Names())
	}
	cp := *s
	cp.Injections = append([]Injection(nil), s.Injections...)
	if s.Faults != nil {
		f := *s.Faults
		cp.Faults = &f
	}
	return &cp, nil
}
