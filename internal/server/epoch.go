package server

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
)

// nowUnixNs is the wall-clock source for lineage spans. It is only called
// on sampled paths (a nonzero trace with lineage enabled), so the unsampled
// hot path never pays a clock read.
func nowUnixNs() int64 { return time.Now().UnixNano() }

// The incremental inter-process analyzer. Instead of recomputing
// InterProcessOutliers as a full post-hoc scan over the entire record log,
// every arriving record is folded into the epoch accumulator for its
// (sensor, group, time-slice) key as it is ingested. A query then only has
// to evaluate the epochs that are still open: once the cross-rank watermark
// (the earliest slice any reporting rank is still working on) passes an
// epoch's slice, the epoch's outlier set is computed one final time, cached,
// and the epoch is closed — closed epochs contribute their cached result to
// every later query at no recompute cost.
//
// Closed epochs are immutable but not discarded: a late record (a
// retransmitted or reordered frame arriving after the watermark passed)
// reopens its epoch, invalidating the cached result. That reopen rule is
// what makes the incremental result *exactly* equal to a batch recompute
// over the final log under any ingest permutation — the property the
// differential conformance test pins.
const epochStripes = 64 // power of two; stripes the analyzer's lock by key hash

type epochKey struct {
	sensor int32
	group  int32
	slice  int64
}

// epochEntry is one folded record's contribution: the sending rank and its
// average time, the inputs the cross-rank median comparison needs.
type epochEntry struct {
	rank int32
	avg  float64
}

// epoch accumulates one (sensor, group, slice) group: the raw entries the
// exact median needs.
type epoch struct {
	entries []epochEntry

	// closed marks the epoch as past the watermark with its outlier set
	// cached for closeThreshold. Reopened (and the cache dropped) if a late
	// record arrives.
	closed         bool
	closeThreshold float64
	cached         []Outlier

	// trace is the lineage trace ID of the last sampled record folded into
	// this epoch (0 when none was sampled), and traceRank the rank that sent
	// it — enough to attribute epoch close/reopen/verdict spans to a
	// journey a human can follow end to end.
	trace     uint64
	traceRank int32
}

type epochStripe struct {
	mu     sync.Mutex
	epochs map[epochKey]*epoch
}

type analyzer struct {
	stripes [epochStripes]epochStripe

	open atomic.Int64 // currently open epochs; server_epochs_open reads it

	// Observability handles (nil-safe no-ops when obs is off).
	obsClosed  *obs.Counter   // server_epochs_closed_total
	obsReopens *obs.Counter   // server_epoch_reopens_total
	obsLag     *obs.Histogram // server_epoch_lag_ns: watermark - slice at close
	lin        *obs.Lineage   // record-lineage tracer (nil = lineage off)
}

func newAnalyzer() *analyzer {
	a := &analyzer{}
	for i := range a.stripes {
		a.stripes[i].epochs = make(map[epochKey]*epoch)
	}
	return a
}

// reset drops every epoch in place, stripe by stripe. Used by crash
// recovery (recover.go): the analyzer object itself survives — concurrent
// queries hold references to it — and the recovered record log is refolded
// from scratch.
func (a *analyzer) reset() {
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		st.epochs = make(map[epochKey]*epoch)
		st.mu.Unlock()
	}
	a.open.Store(0)
}

func (a *analyzer) setObs(o *obs.Obs) {
	o.GaugeFunc("server_epochs_open", a.open.Load)
	a.obsClosed = o.Counter("server_epochs_closed_total")
	a.obsReopens = o.Counter("server_epoch_reopens_total")
	a.obsLag = o.Histogram("server_epoch_lag_ns")
	a.lin = o.Lineage()
}

func stripeOf(k epochKey) uint64 {
	h := uint64(uint32(k.sensor))*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.group))*0xbf58476d1ce4e5b9 ^
		uint64(k.slice)*0x94d049bb133111eb
	return (h >> 32) & (epochStripes - 1)
}

// fold merges newly ingested records into their epochs. Called outside the
// ingest shard's lock; stripes are keyed by (sensor, group, slice), so two
// shards folding different sensors or slices proceed in parallel. trace is
// the frame's lineage trace ID (0 = unsampled); live=false (WAL replay,
// snapshot refold) still threads the trace into the epoch but records no
// spans — replay reconstructs state, not history.
func (a *analyzer) fold(recs []detect.SliceRecord, trace uint64, live bool) {
	lin := a.lin
	for i := range recs {
		r := &recs[i]
		k := epochKey{sensor: int32(r.Sensor), group: int32(r.Group), slice: r.SliceNs}
		st := &a.stripes[stripeOf(k)]
		st.mu.Lock()
		ep := st.epochs[k]
		if ep == nil {
			ep = &epoch{}
			st.epochs[k] = ep
			a.open.Add(1)
		}
		if ep.closed {
			ep.closed = false
			ep.cached = nil
			a.open.Add(1)
			a.obsReopens.Inc()
			if live && lin != nil {
				// Attribute the reopen to the late record's own trace when
				// it is sampled, else to the epoch's remembered journey.
				tr := trace
				if tr == 0 {
					tr = ep.trace
				}
				lin.Record(tr, obs.StageEpochReopen, r.Rank, 0, nowUnixNs(), 0, k.slice)
			}
		}
		if trace != 0 {
			ep.trace = trace
			ep.traceRank = int32(r.Rank)
		}
		ep.entries = append(ep.entries, epochEntry{rank: int32(r.Rank), avg: r.AvgNs})
		st.mu.Unlock()
	}
}

// outliers evaluates every epoch against threshold. Open epochs (and closed
// epochs queried at a different threshold) are recomputed; epochs whose
// slice the watermark has passed are closed with their result cached.
// The returned slice is unsorted; the caller applies the canonical order.
func (a *analyzer) outliers(threshold float64, watermark int64, haveWatermark bool) []Outlier {
	var out []Outlier
	var scratch []float64
	for si := range a.stripes {
		st := &a.stripes[si]
		st.mu.Lock()
		for k, ep := range st.epochs {
			if ep.closed && ep.closeThreshold == threshold {
				out = append(out, ep.cached...)
				continue
			}
			res := epochOutliers(k, ep, threshold, &scratch)
			if wasClosed := ep.closed; wasClosed || (haveWatermark && k.slice < watermark) {
				if !wasClosed {
					a.open.Add(-1)
					a.obsClosed.Inc()
					a.obsLag.ObserveInt(watermark - k.slice)
					if lin := a.lin; lin != nil && ep.trace != 0 {
						now := nowUnixNs()
						lin.Record(ep.trace, obs.StageEpochClose, int(ep.traceRank), 0, now, 0, int64(len(ep.entries)))
						lin.Record(ep.trace, obs.StageVerdict, int(ep.traceRank), 0, now, 0, int64(len(res)))
					}
				}
				ep.closed = true
				ep.closeThreshold = threshold
				ep.cached = res
			}
			out = append(out, res...)
		}
		st.mu.Unlock()
	}
	return out
}

// epochOutliers computes one epoch's outlier set: ranks whose average time
// exceeds the cross-rank median by more than 1/threshold. Identical math to
// the batch recompute — the same order statistic of the same value multiset
// under sort.Float64s's order, same quorum, same comparison — so the result
// cannot depend on arrival order.
func epochOutliers(k epochKey, ep *epoch, threshold float64, scratch *[]float64) []Outlier {
	if len(ep.entries) < 3 {
		return nil
	}
	vals := (*scratch)[:0]
	for _, e := range ep.entries {
		vals = append(vals, e.avg)
	}
	*scratch = vals
	med := selectMedian(vals)
	if med <= 0 {
		return nil
	}
	var out []Outlier
	for _, e := range ep.entries {
		perf := med / e.avg
		if perf < threshold {
			out = append(out, Outlier{Sensor: int(k.sensor), SliceNs: k.slice, Rank: int(e.rank), Perf: perf})
		}
	}
	return out
}

// EpochStats summarizes the analyzer's state for dashboards.
type EpochStats struct {
	Open   int64 // epochs still accepting records
	Closed int64 // epochs sealed behind the watermark with cached results
}

// EpochStats returns the analyzer's open/closed epoch counts.
func (s *Server) EpochStats() EpochStats {
	var total int64
	for si := range s.an.stripes {
		st := &s.an.stripes[si]
		st.mu.Lock()
		total += int64(len(st.epochs))
		st.mu.Unlock()
	}
	open := s.an.open.Load()
	return EpochStats{Open: open, Closed: total - open}
}

// selectMedian returns the median of vals — the middle value, or the mean
// of the two middle values — in the order sort.Float64s sorts them: NaN
// before every number, then ascending. It selects in place instead of
// sorting (expected linear time) and leaves vals permuted. Where that order
// ties distinct bit patterns (-0 and +0, NaN payloads) sort.Float64s itself
// fixes no arrangement; every other median is the sorted one bit for bit.
func selectMedian(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	// Gather the NaNs in front, where sort.Float64s puts them; past them,
	// plain < is the sort order.
	nans := 0
	for i, v := range vals {
		if v != v {
			vals[i], vals[nans] = vals[nans], v
			nans++
		}
	}
	k := n / 2
	if k >= nans {
		selectNth(vals[nans:], k-nans)
	}
	if n%2 == 1 {
		return vals[k]
	}
	// The lower middle is a NaN when rank k-1 falls among them, else the
	// greatest of the numbers selectNth left below vals[k].
	lo := vals[k-1]
	if k > nans {
		for _, v := range vals[nans : k-1] {
			if lo < v {
				lo = v
			}
		}
	}
	return (lo + vals[k]) / 2
}

// selectNth permutes vals, which hold no NaN, so that vals[k] is the value
// sort.Float64s would put there, with nothing greater before it and nothing
// smaller after it: quickselect with a median-of-three pivot and Hoare
// partitioning, which splits runs of equal values evenly. A range that is
// not converging after 2·log2(n) rounds is sorted instead, so adversarial
// input costs n log n at worst.
func selectNth(vals []float64, k int) {
	lo, hi := 0, len(vals)-1
	for rounds := 2 * bits.Len(uint(len(vals))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(vals[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		p := vals[mid]
		i, j := lo, hi
		for i <= j {
			for vals[i] < p {
				i++
			}
			for p < vals[j] {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		// vals[lo..j] <= p <= vals[i..hi], and everything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
