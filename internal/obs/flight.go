package obs

import (
	"sync/atomic"
)

// FlightRecorder is a fixed-memory, overwrite-oldest ring of lineage spans —
// the "black box" of the pipeline. Writers claim a monotonically increasing
// global index with one atomic add and publish into slot index&mask under a
// per-slot seqlock, so the hot path is lock-free and allocation-free like
// the registry's counters. Readers (the /debug/flight endpoint, the Chrome
// exporter) snapshot a consistent window without stopping writers: the
// seqlock version plus the stored index let a reader detect and discard any
// torn or lapped entry instead of returning it. Every payload word is
// accessed atomically, so the scheme is also clean under the race detector
// — no "benign race" escape hatch.
type FlightRecorder struct {
	mask uint64
	next atomic.Uint64 // next global span index to claim
	slot []flightSlot
}

// flightSlot is one ring entry: a seqlock version (even = stable, odd =
// write in progress), the global index the span belongs to, and the span
// packed into atomically accessed words. The layout fills a 64-byte cache
// line so concurrent writers a ring lap apart do not false-share.
type flightSlot struct {
	ver   atomic.Uint64
	idx   atomic.Uint64
	trace atomic.Uint64
	start atomic.Int64
	dur   atomic.Int64
	arg   atomic.Int64
	meta  atomic.Uint64 // rank(32) | try(16) | stage(8), low to high
	_     [8]byte
}

// FlightSpan is one recorded hop of a sampled record's journey. StartNs is
// wall-clock unix nanoseconds; DurNs is the hop's duration (0 for instant
// events such as a dedup verdict). Arg is stage-specific (attempt number,
// charged backoff ns, dup flag, outlier count, ...).
type FlightSpan struct {
	Trace   uint64 `json:"trace"`
	Rank    int32  `json:"rank"`
	Stage   Stage  `json:"stage"`
	Try     uint16 `json:"try,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Arg     int64  `json:"arg,omitempty"`
}

func packMeta(rank int32, try uint16, stage Stage) uint64 {
	return uint64(uint32(rank)) | uint64(try)<<32 | uint64(stage)<<48
}

func unpackMeta(m uint64) (rank int32, try uint16, stage Stage) {
	return int32(uint32(m)), uint16(m >> 32), Stage(m >> 48)
}

// flightCap is a lineage tracer's ring capacity: 4096 spans ≈ 340 sampled
// records' full journeys, in ~256 KiB of fixed memory.
const flightCap = 4096

// NewFlightRecorder creates a ring with at least capacity slots (rounded up
// to a power of two, minimum 16).
func NewFlightRecorder(capacity int) *FlightRecorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slot: make([]flightSlot, n)}
}

// Cap returns the ring capacity in spans.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slot)
}

// Head returns the total number of spans ever recorded — also the cursor
// value at which a fresh Snapshot would begin.
func (f *FlightRecorder) Head() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}

// Record publishes one span, overwriting the oldest entry once the ring is
// full. It is safe from any goroutine and never allocates.
func (f *FlightRecorder) Record(sp FlightSpan) {
	if f == nil {
		return
	}
	idx := f.next.Add(1) - 1
	s := &f.slot[idx&f.mask]
	for {
		v := s.ver.Load()
		if v&1 != 0 {
			// Another writer holds the slot. Colliding writes are a full
			// ring lap apart, so the spin is effectively free.
			continue
		}
		if !s.ver.CompareAndSwap(v, v+1) {
			continue
		}
		// Locked (ver odd) — we own the slot. A writer that claimed a
		// *newer* global index may already have published here while we
		// were queued; never replace a newer span with an older one.
		if s.idx.Load() <= idx {
			s.idx.Store(idx)
			s.trace.Store(sp.Trace)
			s.start.Store(sp.StartNs)
			s.dur.Store(sp.DurNs)
			s.arg.Store(sp.Arg)
			s.meta.Store(packMeta(sp.Rank, sp.Try, sp.Stage))
		}
		s.ver.Add(1) // release (ver even again)
		return
	}
}

// Snapshot copies the stable spans in [cursor, head) into dst and returns
// them plus the next cursor. Entries already overwritten (cursor lagging
// more than one ring capacity) are skipped; entries mid-write or lapped
// during the copy are dropped rather than returned torn. Pass cursor 0 (or
// any stale value) to read the freshest window.
func (f *FlightRecorder) Snapshot(dst []FlightSpan, cursor uint64) ([]FlightSpan, uint64) {
	if f == nil {
		return dst[:0], cursor
	}
	head := f.next.Load()
	lo := cursor
	if capU := uint64(len(f.slot)); head > capU && lo < head-capU {
		lo = head - capU
	}
	dst = dst[:0]
	for i := lo; i < head; i++ {
		s := &f.slot[i&f.mask]
		v1 := s.ver.Load()
		if v1&1 != 0 {
			continue // write in progress
		}
		idx := s.idx.Load()
		var sp FlightSpan
		sp.Trace = s.trace.Load()
		sp.StartNs = s.start.Load()
		sp.DurNs = s.dur.Load()
		sp.Arg = s.arg.Load()
		sp.Rank, sp.Try, sp.Stage = unpackMeta(s.meta.Load())
		if s.ver.Load() != v1 || idx != i {
			continue // torn read or slot lapped while copying
		}
		if sp.Trace == 0 {
			continue // claimed slot whose body has not been published yet
		}
		dst = append(dst, sp)
	}
	return dst, head
}
