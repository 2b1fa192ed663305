package scenario

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("scenarios = %v", names)
	}
	for _, n := range names {
		s, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Description == "" || s.Ranks <= 0 {
			t.Errorf("%s: incomplete metadata %+v", n, s)
		}
		if _, err := s.Source(); err != nil {
			t.Errorf("%s: source: %v", n, err)
		}
	}
	if _, err := Get("no-such"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Error("unknown scenario accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	a, _ := Get("badnode-cg")
	a.Injections[0].Factor = 0.01
	b, _ := Get("badnode-cg")
	if b.Injections[0].Factor == 0.01 {
		t.Error("Get leaked shared injection slice")
	}
}

func TestBadNodeCluster(t *testing.T) {
	s, _ := Get("badnode-cg")
	cl, err := s.Cluster(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NeedsBaseline() {
		t.Error("permanent injection should not need a baseline")
	}
	// Node 16 hosts ranks 128..135 at 8 rpn.
	if cl.MemFactor(130, 0) != 0.55 {
		t.Errorf("bad node mem factor = %v", cl.MemFactor(130, 0))
	}
	if cl.MemFactor(0, 0) != 1.0 {
		t.Error("other nodes affected")
	}
	// Resized to a quarter of the ranks the cluster keeps its 32 nodes, two
	// ranks each, so the bad node still hosts ranks: 32 and 33.
	s.Resize(64)
	if cl, err = s.Cluster(0); err != nil {
		t.Fatal(err)
	}
	if cfg := cl.Config(); cfg.Nodes != 32 || cfg.RanksPerNode != 2 || s.Ranks != 64 {
		t.Errorf("resized shape = %d nodes x %d, %d ranks", cfg.Nodes, cfg.RanksPerNode, s.Ranks)
	}
	if cl.MemFactor(31, 0) != 1.0 || cl.MemFactor(32, 0) != 0.55 || cl.MemFactor(33, 0) != 0.55 || cl.MemFactor(34, 0) != 1.0 {
		t.Error("resized bad node does not host ranks 32-33")
	}
}

func TestWindowedCluster(t *testing.T) {
	s, _ := Get("congestion-ft")
	if !s.NeedsBaseline() {
		t.Error("windowed injection should need a baseline")
	}
	cl, err := s.Cluster(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NetFactor(100_000) != 1.0 {
		t.Error("before window")
	}
	if cl.NetFactor(300_000) != 0.25 {
		t.Errorf("inside window: %v", cl.NetFactor(300_000))
	}
	// EndFrac 100 => extends far beyond the baseline.
	if cl.NetFactor(50_000_000) != 0.25 {
		t.Error("persistent window should extend")
	}
	if start, end := s.Injections[0].Window(1_000_000); start != 200_000 || end != 100_000_000 {
		t.Errorf("Window = [%d,%d)", start, end)
	}
}

func TestOSNoiseCluster(t *testing.T) {
	s, _ := Get("osnoise-cg")
	cl, err := s.Cluster(0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.CPUFactor(0, 5_000) != 0.3 {
		t.Error("noise slice missing")
	}
	if cl.CPUFactor(0, 50_000) != 1.0 {
		t.Error("noise outside slice")
	}
}

func TestInjectionValidation(t *testing.T) {
	s := &Scenario{
		Name: "bad", App: "CG", Ranks: 8, RanksPerNode: 8,
		Injections: []Injection{{Kind: BadNodeMemory, Node: 42, Factor: 0.5}},
	}
	if _, err := s.Cluster(0); err == nil {
		t.Error("out-of-range node accepted")
	}
	s.Injections[0].Kind = InjectionKind(99)
	s.Injections[0].Node = 0
	if _, err := s.Cluster(0); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindNames(t *testing.T) {
	for k := BadNodeMemory; k <= OSNoise; k++ {
		if k.String() == "?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}
