// Package transport is the record path between the per-rank detection
// clients and the analysis server (paper §5.4): every instrumented run
// delivers detect → Conn → Link → Medium. On a real machine that path
// crosses a lossy network whose frames are late, lost, duplicated,
// reordered, or corrupted, and whose receiver stalls and restarts; the
// zero FaultPlan is the perfect network, not a different code path:
//
//   - A Link wraps the server behind a seeded FaultPlan that drops,
//     duplicates, reorders, delays, and bit-corrupts frames, and rejects
//     deliveries while the server is "down" (crash-restart window).
//   - A per-rank Conn implements detect.Emitter with sequenced, checksummed
//     frames (server wire format), bounded retry with timeout and
//     exponential backoff, and a capped retransmit buffer with an explicit
//     drop-oldest backpressure policy.
//   - Retry, backoff, and injected delay charge *virtual* time to the rank
//     through vm.Clock, so a flaky link slows the simulated job exactly the
//     way it would slow a real one.
//
// The server's sequence-number dedup plus the Conn's retries give
// exactly-once record delivery for every frame that is not explicitly
// dropped by backpressure; delivery gaps are visible in server.Coverage
// rather than silently thinning the analysis.
package transport

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// FaultPlan configures deterministic fault injection. Rates are
// probabilities in [0,1] evaluated per delivery attempt from a stream
// seeded by (Seed, rank), so a plan reproduces the same fault schedule for
// every run of the same workload. The zero value injects nothing.
type FaultPlan struct {
	// Seed derives the per-rank fault streams.
	Seed int64

	// Drop is the probability a frame is silently lost in transit.
	Drop float64

	// Dup is the probability a delivered frame arrives twice (models an
	// ack lost on the way back: the sender would retransmit).
	Dup float64

	// Reorder is the probability a frame is held in flight and delivered
	// after the rank's next frame (adjacent swap).
	Reorder float64

	// Corrupt is the probability a frame arrives with one bit flipped.
	// CRC32 detects all single-bit errors, so the server always rejects
	// these; the client sees a lost frame and retries.
	Corrupt float64

	// DelayNs adds a uniform random virtual latency in [0, DelayNs] to
	// every delivery attempt, charged to the sending rank.
	DelayNs int64

	// CrashAfterFrames crashes the server after this many delivery
	// attempts (0 = never).
	CrashAfterFrames int64

	// CrashDownFrames is how many delivery attempts are rejected while the
	// server is down; afterwards it restarts (with its journal intact) and
	// accepts frames again.
	CrashDownFrames int64

	// DeadRank and DeadAfterFrames model a permanently failed sender: once
	// rank DeadRank has flushed DeadAfterFrames frames, its connection goes
	// silent — no more frames, no heartbeats, records discarded (and counted
	// lost). DeadAfterFrames 0 disables the fault; the server's liveness
	// leases (server.RankLiveness) are what detect the silence.
	DeadRank        int
	DeadAfterFrames int64
}

// Zero reports whether the plan injects no faults at all.
func (p FaultPlan) Zero() bool {
	return p.Drop == 0 && p.Dup == 0 && p.Reorder == 0 && p.Corrupt == 0 &&
		p.DelayNs == 0 && p.CrashAfterFrames == 0 && p.CrashDownFrames == 0 &&
		p.DeadAfterFrames == 0
}

// Validate rejects out-of-range rates and inconsistent fault combinations.
func (p FaultPlan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"reorder", p.Reorder}, {"corrupt", p.Corrupt}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("transport: %s rate %g out of [0,1]", r.name, r.v)
		}
	}
	if p.DelayNs < 0 || p.CrashAfterFrames < 0 || p.CrashDownFrames < 0 {
		return fmt.Errorf("transport: negative delay/crash parameter")
	}
	if p.CrashDownFrames > 0 && p.CrashAfterFrames == 0 {
		return fmt.Errorf("transport: crashdown=%d without crashafter (the window has no start)", p.CrashDownFrames)
	}
	if p.DeadRank < 0 || p.DeadAfterFrames < 0 {
		return fmt.Errorf("transport: negative deadrank/deadafter parameter")
	}
	if p.DeadRank > 0 && p.DeadAfterFrames == 0 {
		return fmt.Errorf("transport: deadrank=%d without deadafter (the rank would never die)", p.DeadRank)
	}
	return nil
}

// ParsePlan builds a FaultPlan from a comma-separated spec, the -faults CLI
// syntax, e.g.
//
//	drop=0.2,dup=0.05,reorder=0.1,corrupt=0.02,delay=20us,seed=7,crashafter=100,crashdown=20
func ParsePlan(spec string) (FaultPlan, error) {
	var p FaultPlan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	sawDeadRank := false
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("transport: bad fault spec %q (want key=value)", part)
		}
		key, val := strings.ToLower(kv[0]), kv[1]
		var err error
		switch key {
		case "drop":
			p.Drop, err = strconv.ParseFloat(val, 64)
		case "dup":
			p.Dup, err = strconv.ParseFloat(val, 64)
		case "reorder":
			p.Reorder, err = strconv.ParseFloat(val, 64)
		case "corrupt":
			p.Corrupt, err = strconv.ParseFloat(val, 64)
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "crashafter":
			p.CrashAfterFrames, err = strconv.ParseInt(val, 10, 64)
		case "crashdown":
			p.CrashDownFrames, err = strconv.ParseInt(val, 10, 64)
		case "deadrank":
			var r int64
			r, err = strconv.ParseInt(val, 10, 32)
			p.DeadRank = int(r)
			sawDeadRank = true
		case "deadafter":
			p.DeadAfterFrames, err = strconv.ParseInt(val, 10, 64)
		case "delay":
			var d time.Duration
			d, err = time.ParseDuration(val)
			p.DelayNs = d.Nanoseconds()
		default:
			return p, fmt.Errorf("transport: unknown fault key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("transport: bad value for %s: %v", key, err)
		}
	}
	// Validate's struct-level rule cannot see an explicit deadrank=0, so the
	// parser enforces the pairing itself.
	if sawDeadRank && p.DeadAfterFrames == 0 {
		return p, fmt.Errorf("transport: deadrank without deadafter (the rank would never die)")
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// String renders the plan in ParsePlan syntax (omitting zero fields).
func (p FaultPlan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", p.Drop)
	add("dup", p.Dup)
	add("reorder", p.Reorder)
	add("corrupt", p.Corrupt)
	if p.DelayNs != 0 {
		parts = append(parts, fmt.Sprintf("delay=%s", time.Duration(p.DelayNs)))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.CrashAfterFrames != 0 {
		parts = append(parts, fmt.Sprintf("crashafter=%d", p.CrashAfterFrames))
	}
	if p.CrashDownFrames != 0 {
		parts = append(parts, fmt.Sprintf("crashdown=%d", p.CrashDownFrames))
	}
	if p.DeadAfterFrames != 0 {
		parts = append(parts, fmt.Sprintf("deadrank=%d", p.DeadRank))
		parts = append(parts, fmt.Sprintf("deadafter=%d", p.DeadAfterFrames))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
