package pmu

import (
	"testing"
	"testing/quick"
)

func TestExactCounts(t *testing.T) {
	c := New(0, 1, 0)
	c.AddInstructions(100)
	c.AddInstructions(50)
	if c.Exact() != 150 {
		t.Errorf("exact = %d", c.Exact())
	}
	if c.Read() != 150 {
		t.Error("a jitter-free read should be exact")
	}
}

func TestJitterBounded(t *testing.T) {
	f := func(seedRaw int64, rank uint8) bool {
		c := New(int(rank), seedRaw, 0.005)
		c.AddInstructions(1_000_000)
		for i := 0; i < 20; i++ {
			v := c.Read()
			if v < 995_000 || v > 1_005_001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJitterVariesAcrossReads(t *testing.T) {
	c := New(3, 42, 0.005)
	c.AddInstructions(1_000_000)
	a, b := c.Read(), c.Read()
	if a == b {
		// Two consecutive reads use different sequence numbers; identical
		// values are astronomically unlikely with a 0.5% band.
		t.Errorf("reads identical: %d", a)
	}
}

func TestJitterDeterministic(t *testing.T) {
	mk := func() []int64 {
		c := New(1, 99, 0.01)
		c.AddInstructions(12345)
		out := make([]int64, 5)
		for i := range out {
			out[i] = c.Read()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestZeroReads(t *testing.T) {
	c := New(0, 5, 0.01)
	if c.Read() != 0 {
		t.Error("zero count should read zero even with jitter")
	}
}
