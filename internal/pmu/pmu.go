// Package pmu simulates a hardware performance-monitoring unit's
// instruction counter. The paper validates identified v-sensors by reading
// instruction counts from the PMU and checking that a sensor's workload
// really is fixed (§6.2, Table 1's "workload max error" column). Real PMUs
// are not perfectly accurate (the paper cites Weaver et al.), so reads here
// apply a deterministic, bounded, multiplicative jitter.
package pmu

import "math"

// Counter accumulates the exact instruction count of one rank; Read applies
// the measurement error model.
type Counter struct {
	rank      int
	seed      int64
	jitterPct float64 // max relative read error, e.g. 0.005 for ±0.5%

	instructions int64
	reads        int64 // read sequence number, drives the jitter stream
}

// New returns a counter for one rank. jitterPct bounds the relative error
// of Read results (0 disables the error model).
func New(rank int, seed int64, jitterPct float64) *Counter {
	return &Counter{rank: rank, seed: seed, jitterPct: jitterPct}
}

// AddInstructions records n retired instructions.
func (c *Counter) AddInstructions(n int64) { c.instructions += n }

// Exact returns the true instruction count (no measurement error); used by
// tests and by the harness when computing ground truth.
func (c *Counter) Exact() int64 { return c.instructions }

// Read returns the measured instruction count: the true count with bounded
// multiplicative jitter, mimicking PMU non-determinism and overcount.
func (c *Counter) Read() int64 {
	c.reads++
	v := c.instructions
	if c.jitterPct == 0 || v == 0 {
		return v
	}
	u := hash64(uint64(c.seed) ^ uint64(c.rank)<<32 ^ uint64(c.reads))
	eps := c.jitterPct * (2*float64(u>>11)/float64(1<<53) - 1)
	out := int64(math.Round(float64(v) * (1 + eps)))
	if out < 0 {
		out = 0
	}
	return out
}

func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
