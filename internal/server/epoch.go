package server

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
//
// Epochs are partitioned by ingest shard. A frame carries only its sender's
// records (wire.go), so it folds into its sender's shard in the critical
// section that dedups and logs it, and no query's watermark runs ahead of
// the fold. An epoch's records in one shard form a part: a chain of
// fixed-size blocks, written once and never moved. A block holds two columns
// carved from the shard's column arena — the senders' average times and
// their ranks, 12 bytes an entry — so a query gathers a run of values with
// one copy and reads a rank only for an outlier. A fold finds a record's
// part through the shard's part index (partindex.go), a seeded
// open-addressing table where a lookup is one hash and, nearly always, one
// probe. The key-level state — closed, threshold, cache and the list of
// parts — sits in one key table behind its own mutex, which a fold takes
// only when its shard first sees a key or lands on a sealed part. Lock
// order: stateMu, then a shard, then the key table; never the reverse, and
// never two shards at once. A query evaluates its candidates on up to
// GOMAXPROCS workers, each with its own scratch; they take no lock, and the
// query holds qmu until all have joined, so the order is the same with one
// worker or many.

// A part's first block holds firstBlockLen entries and every later block
// blockLen. The short first block keeps a shard that holds few of an
// epoch's ranks from pinning a long, mostly empty one (256 ranks over 16
// shards fill it exactly). The later length trades the fold against the
// query: a fold writes each active part's tail, so short blocks keep that
// frontier compact, while a query streams a part's runs, so long blocks
// save it a jump every few entries. 16-entry blocks made a full evaluation
// of 4096 ranks × 256 epochs about 30 % slower than contiguous slices, and
// 256-entry ones cost ingest-tcp-durable about 10 % of its throughput; 64
// is within a few percent of the parent on the second and 13 % on the
// first. Those figures were measured on one 16-byte entry array a block,
// before the two columns, and have not been re-measured since.
const (
	firstBlockLen = 16
	blockLen      = 64
)

// A shard's arenas start with a chunk of the minimum size and double
// each time one runs out, up to the maximum, so a shard that saw a few
// records pins little memory and a busy one allocates rarely. Entry
// chunks are counted in entries and carved in column groups of blockLen;
// the largest is 48 KiB, a whole number of pages.
const (
	entryChunkMin = 64
	entryChunkMax = 4096
	blockChunkMin = 4
	blockChunkMax = 128
	partChunkMin  = 4
	partChunkMax  = 64
)

type epochKey struct {
	sensor int32
	group  int32
	slice  int64
}

// block is one link of a part's entry chain: a fixed run of entries, always
// full except at the part's tail. An entry is one folded record's
// contribution, the inputs the cross-rank median comparison needs: the
// sender's average time in avg and its rank at the same index of rank, two
// columns of equal length carved from the shard's column arena.
type block struct {
	avg  []float64
	rank []int32
	next *block
}

// colGroup is blockLen entries of both columns side by side, the unit the
// column arena is carved in, so a block's two columns come from one chunk.
type colGroup struct {
	avg  [blockLen]float64
	rank [blockLen]int32
}

// colArena hands out blocks' columns: each later block gets a group of its
// own, and first blocks share groups, firstBlockLen entries at a time.
type colArena struct {
	groups arena[colGroup]
	shared *colGroup // the group first blocks are being carved from
	used   int       // entries of shared handed out
}

// carve returns room for n entries, firstBlockLen or blockLen, in both
// columns.
func (c *colArena) carve(n int) ([]float64, []int32) {
	const lo, hi = entryChunkMin / blockLen, entryChunkMax / blockLen
	if n == blockLen {
		g := &c.groups.carve(1, lo, hi)[0]
		return g.avg[:], g.rank[:]
	}
	if c.shared == nil || c.used+n > blockLen {
		c.shared, c.used = &c.groups.carve(1, lo, hi)[0], 0
	}
	i, j := c.used, c.used+n
	c.used = j
	return c.shared.avg[i:j:j], c.shared.rank[i:j:j]
}

// part is one shard's share of an epoch. Every field but snap is guarded
// by the shard's lock; entries below a count read under that lock are
// immutable, so a query reads them after releasing it.
type part struct {
	ep    *epoch
	pi    int // index of the owning shard
	n     int // entries folded
	first block
	tail  *block

	// sealed marks the part as covered by its epoch's cached result: a fold
	// landing here must go through the key table to reopen the epoch.
	sealed bool

	// trace is the lineage trace ID of the last sampled record folded into
	// this part (0 when none was sampled), and traceRank the rank that sent
	// it.
	trace     uint64
	traceRank int32

	// snap is the count the running query read in its shard pass; written
	// and read only under the analyzer's query lock.
	snap int
}

// add appends one entry, linking a fresh block when the tail is full.
// Caller holds sh.mu.
func (pt *part) add(sh *shard, rank int32, avg float64) {
	i := pt.n
	switch {
	case i == 0:
		pt.first.avg, pt.first.rank = sh.cols.carve(firstBlockLen)
		pt.tail = &pt.first
	case i >= firstBlockLen:
		if i = (i - firstBlockLen) % blockLen; i == 0 {
			b := &sh.blocks.carve(1, blockChunkMin, blockChunkMax)[0]
			b.avg, b.rank = sh.cols.carve(blockLen)
			pt.tail.next = b
			pt.tail = b
		}
	}
	pt.tail.avg[i] = avg
	pt.tail.rank[i] = rank
	pt.n++
}

// eachRun calls f with each run of entries that holds the part's first
// snap entries, in fold order, as its avg and rank columns. It never
// follows a link past them: the tail's link may be written concurrently by
// a fold.
func (pt *part) eachRun(f func(avg []float64, rank []int32)) {
	b := &pt.first
	for left := pt.snap; left > 0; b = b.next {
		if left <= len(b.avg) {
			f(b.avg[:left], b.rank[:left])
			return
		}
		f(b.avg, b.rank)
		left -= len(b.avg)
	}
}

// epoch is the key-level state of one (sensor, group, slice) group, guarded
// by the analyzer's key-table lock.
type epoch struct {
	key   epochKey
	parts []*part

	// gen counts the folds that went through the key table for this epoch:
	// a shard's first record for it, or a record landing on a sealed
	// part. A query closes the epoch only if gen did not move while it ran.
	gen uint64

	// closed marks the epoch as past the watermark with its outlier set
	// cached for closeThreshold. Reopened (and the cache dropped) if a late
	// record arrives.
	closed         bool
	closeThreshold float64
	cached         []Outlier

	// trace and traceRank are the sampled journey the epoch was last closed
	// under — the fallback a reopen span is attributed to.
	trace     uint64
	traceRank int32
}

// arena hands out zeroed runs of values carved from chunks that are never
// moved; each chunk is twice the size of the one before, within [lo, hi]
// (n <= hi). A run that does not fit the rest of the chunk starts a new one.
type arena[T any] struct {
	free []T
	last int
}

func (a *arena[T]) carve(n, lo, hi int) []T {
	if len(a.free) < n {
		a.last = min(max(2*a.last, lo, n), hi)
		a.free = make([]T, a.last)
	}
	run := a.free[:n:n]
	a.free = a.free[n:]
	return run
}

type analyzer struct {
	shards []*shard // the server's ingest shards, which hold the parts

	mu   sync.Mutex // the key table
	keys map[epochKey]*epoch
	open atomic.Int64 // open epochs; written under mu, read lock-free by server_epochs_open

	// qmu serializes queries and guards their reusable state below.
	qmu     sync.Mutex
	cands   []cand
	buckets [][]partRef // candidate parts by shard
	vals    [][]float64 // per evaluation worker: one key's snapshotted values, which the median permutes

	// Observability handles (nil-safe no-ops when obs is off).
	obsClosed  *obs.Counter   // server_epochs_closed_total
	obsReopens *obs.Counter   // server_epoch_reopens_total
	obsLag     *obs.Histogram // server_epoch_lag_ns: watermark - slice at close
	lin        *obs.Lineage   // record-lineage tracer (nil = lineage off)
}

// cand is one epoch a query evaluates, with what it read of it.
type cand struct {
	ep        *epoch
	parts     []*part // the epoch's parts when the query started
	gen       uint64
	wasClosed bool // closed at another threshold: recompute, re-cache
	closing   bool // open and behind the watermark: seal and close
	n         int  // entries in the snapshot
	trace     uint64
	traceRank int32
	res       []Outlier
}

// partRef is a candidate part and the index of its cand.
type partRef struct {
	pt *part
	c  int
}

func newAnalyzer(shards []*shard) *analyzer {
	return &analyzer{
		shards:  shards,
		keys:    make(map[epochKey]*epoch),
		buckets: make([][]partRef, len(shards)),
	}
}

// reset drops the key table in place. Used by crash recovery (recover.go),
// which wipes each shard's parts with its log: the analyzer object itself
// survives — concurrent queries hold references to it — and the recovered
// record log is refolded from scratch. Nothing is reused, so a query still
// reading the old parts reads memory no fold writes again.
func (a *analyzer) reset() {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	a.mu.Lock()
	a.keys = make(map[epochKey]*epoch)
	a.open.Store(0)
	a.mu.Unlock()
}

func (a *analyzer) setObs(o *obs.Obs) {
	o.GaugeFunc("server_epochs_open", a.open.Load)
	a.obsClosed = o.Counter("server_epochs_closed_total")
	a.obsReopens = o.Counter("server_epoch_reopens_total")
	a.obsLag = o.Histogram("server_epoch_lag_ns")
	a.lin = o.Lineage()
}

// fold merges one frame's records into sh, the shard their sender routes
// to. Caller holds sh.mu: the fold is part of the critical section that
// ingests the frame. trace is the frame's lineage trace ID (0 =
// unsampled); live=false (WAL replay, snapshot refold) still threads the
// trace into the epoch but records no spans — replay reconstructs state,
// not history.
func (a *analyzer) fold(sh *shard, recs []byte, trace uint64, live bool) {
	for off := 0; off < len(recs); off += recordWireSize {
		r := recAt(recs, off)
		k := epochKey{sensor: r.sensor(), group: r.group(), slice: r.sliceNs()}
		rank := r.rank()
		pt := sh.parts.get(k)
		switch {
		case pt == nil:
			pt = a.join(sh, k, trace, rank, live)
		case pt.sealed:
			a.mu.Lock()
			pt.sealed = false
			a.touch(pt.ep, trace, rank, live)
			a.mu.Unlock()
		}
		if trace != 0 {
			pt.trace = trace
			pt.traceRank = rank
		}
		pt.add(sh, rank, r.avgNs())
	}
}

// join gives shard sh its part of k's epoch, creating the epoch on the
// first sight of k in any shard. Caller holds sh.mu.
func (a *analyzer) join(sh *shard, k epochKey, trace uint64, rank int32, live bool) *part {
	pt := &sh.spare.carve(1, partChunkMin, partChunkMax)[0]
	pt.pi = sh.idx
	sh.parts.put(k, pt)
	a.mu.Lock()
	ep := a.keys[k]
	if ep == nil {
		ep = &epoch{key: k}
		a.keys[k] = ep
		a.open.Add(1)
	}
	pt.ep = ep
	ep.parts = append(ep.parts, pt)
	a.touch(ep, trace, rank, live)
	a.mu.Unlock()
	return pt
}

// touch notes a record that reached ep through the key table, reopening ep
// if it was closed. Caller holds a.mu.
func (a *analyzer) touch(ep *epoch, trace uint64, rank int32, live bool) {
	ep.gen++
	if !ep.closed {
		return
	}
	ep.closed = false
	ep.cached = nil
	a.open.Add(1)
	a.obsReopens.Inc()
	if live && a.lin != nil {
		// Attribute the reopen to the late record's own trace when it is
		// sampled, else to the journey the epoch was closed under.
		tr := trace
		if tr == 0 {
			tr = ep.trace
		}
		a.lin.Record(tr, obs.StageEpochReopen, int(rank), 0, nowUnixNs(), 0, ep.key.slice)
	}
}

// outliers evaluates every epoch against threshold. Open epochs (and closed
// epochs queried at a different threshold) are recomputed; epochs whose
// slice the watermark has passed are closed with their result cached.
// The returned slice is unsorted; the caller applies the canonical order.
//
// A query never holds two shard locks. One pass reads each candidate part's
// count, one shard at a time, and seals a closing epoch's parts under the
// same lock; the medians are then taken over those prefixes with no lock
// held. An epoch closes only if no fold went through the key table for it
// meanwhile. A fold that lands on a part after the pass read it finds the
// part sealed, or is the shard's first sight of the key, so it goes through
// the key table: a record racing the query either is in the cached result
// or keeps the epoch open.
func (a *analyzer) outliers(threshold float64, watermark int64, haveWatermark bool) []Outlier {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	out := a.snapshot(threshold, watermark, haveWatermark)
	a.evaluate(threshold)
	return a.commit(out, threshold, watermark)
}

// snapshot appends every cached result that answers threshold to a fresh
// slice, and makes every other epoch a candidate with its parts' counts
// read and, for a closing one, its parts sealed. Caller holds a.qmu.
func (a *analyzer) snapshot(threshold float64, watermark int64, haveWatermark bool) []Outlier {
	var out []Outlier
	a.mu.Lock()
	for k, ep := range a.keys {
		if ep.closed && ep.closeThreshold == threshold {
			out = append(out, ep.cached...)
			continue
		}
		a.cands = append(a.cands, cand{
			ep: ep, parts: ep.parts, gen: ep.gen, wasClosed: ep.closed,
			closing: !ep.closed && haveWatermark && k.slice < watermark,
		})
	}
	a.mu.Unlock()
	for ci := range a.cands {
		for _, pt := range a.cands[ci].parts {
			a.buckets[pt.pi] = append(a.buckets[pt.pi], partRef{pt, ci})
		}
	}
	for pi, refs := range a.buckets {
		if len(refs) == 0 {
			continue
		}
		sh := a.shards[pi]
		sh.mu.Lock()
		for _, r := range refs {
			c := &a.cands[r.c]
			r.pt.snap = r.pt.n
			r.pt.sealed = r.pt.sealed || c.closing
			c.n += r.pt.n
			if r.pt.trace != 0 {
				c.trace, c.traceRank = r.pt.trace, r.pt.traceRank
			}
		}
		sh.mu.Unlock()
		clear(refs)
		a.buckets[pi] = refs[:0]
	}
	return out
}

// evalMinEntries is the fewest snapshotted entries a query hands each
// evaluation worker, so a query with fewer than twice as many runs on its
// own goroutine. Measured with BenchmarkEvaluate on 2 vCPU (go1.24,
// medians of 5, evalMinEntries set to 1, the branch-free select), two
// workers are no faster than one up to 32768 entries (84 µs against 82 at
// 8192, 315 against 309 at 32768) and win from 65536 (513 µs against 601)
// to 524288 (3.8 ms against 5.7).
const evalMinEntries = 1 << 15

// evaluate computes every candidate's outlier set over its snapshot:
// ranks whose average time exceeds the cross-rank median by more than
// 1/threshold. Identical math to the batch recompute — the same order
// statistic of the same value multiset under sort.Float64s's order, same
// quorum, same comparison — so the result cannot depend on arrival order
// or on how the epoch is spread over shards. The candidates are cut into
// contiguous ranges of about equal entry counts, one per worker, up to
// GOMAXPROCS; each worker writes only its own candidates' results and its
// own scratch, and takes no lock. Caller holds a.qmu.
func (a *analyzer) evaluate(threshold float64) {
	total := 0
	for ci := range a.cands {
		if n := a.cands[ci].n; n >= 3 {
			total += n
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), total/evalMinEntries))
	for len(a.vals) < workers {
		a.vals = append(a.vals, nil)
	}
	var wg sync.WaitGroup
	lo, done := 0, 0
	for w := 1; w <= workers; w++ {
		hi := lo
		for hi < len(a.cands) && (w == workers || done < w*total/workers) {
			if n := a.cands[hi].n; n >= 3 {
				done += n
			}
			hi++
		}
		cands, vals := a.cands[lo:hi], &a.vals[w-1]
		lo = hi
		if w == workers {
			*vals = evaluateRange(cands, threshold, *vals)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			*vals = evaluateRange(cands, threshold, *vals)
		}()
	}
	wg.Wait()
}

// evaluateRange is one worker's share of evaluate: it fills each
// candidate's res, using vals as scratch for the values the median
// permutes, and returns the scratch for the next query.
func evaluateRange(cands []cand, threshold float64, vals []float64) []float64 {
	for ci := range cands {
		c := &cands[ci]
		if c.n < 3 {
			continue
		}
		vals = vals[:0]
		for _, pt := range c.parts {
			pt.eachRun(func(avg []float64, _ []int32) { vals = append(vals, avg...) })
		}
		med := selectMedian(vals)
		if med <= 0 {
			continue
		}
		k := c.ep.key
		for _, pt := range c.parts {
			pt.eachRun(func(avg []float64, rank []int32) {
				for i, v := range avg {
					if perf := med / v; perf < threshold {
						c.res = append(c.res, Outlier{Sensor: int(k.sensor), SliceNs: k.slice, Rank: int(rank[i]), Perf: perf})
					}
				}
			})
		}
	}
	return vals
}

// commit closes the epochs that qualify (or re-caches them at the new
// threshold) and appends every candidate's result to out. The query's
// reusable state is cleared for the next one. Caller holds a.qmu.
func (a *analyzer) commit(out []Outlier, threshold float64, watermark int64) []Outlier {
	a.mu.Lock()
	for ci := range a.cands {
		c := &a.cands[ci]
		ep := c.ep
		switch {
		case ep.gen != c.gen:
			// A record reached the epoch through the key table while the
			// query ran: the result is not the whole epoch's.
		case c.wasClosed:
			ep.closeThreshold = threshold
			ep.cached = c.res
		case c.closing:
			ep.closed = true
			ep.closeThreshold = threshold
			ep.cached = c.res
			ep.trace, ep.traceRank = c.trace, c.traceRank
			a.open.Add(-1)
			a.obsClosed.Inc()
			a.obsLag.ObserveInt(watermark - ep.key.slice)
			if lin := a.lin; lin != nil && c.trace != 0 {
				now := nowUnixNs()
				lin.Record(c.trace, obs.StageEpochClose, int(c.traceRank), 0, now, 0, int64(c.n))
				lin.Record(c.trace, obs.StageVerdict, int(c.traceRank), 0, now, 0, int64(len(c.res)))
			}
		}
		out = append(out, c.res...)
	}
	a.mu.Unlock()
	clear(a.cands)
	a.cands = a.cands[:0]
	return out
}

// EpochStats summarizes the analyzer's state for dashboards.
type EpochStats struct {
	Open   int64 // epochs still accepting records
	Closed int64 // epochs sealed behind the watermark with cached results
}

// EpochStats returns the analyzer's open/closed epoch counts, both read
// under the key-table lock that every change to either is made under.
func (s *Server) EpochStats() EpochStats {
	a := s.an
	a.mu.Lock()
	total, open := int64(len(a.keys)), a.open.Load()
	a.mu.Unlock()
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
// smaller after it: quickselect with a median-of-three pivot and two Lomuto
// passes a round. The first moves the values below the pivot to the front,
// the second the values equal to it right behind them, so a run of ties is
// split off whole instead of stalling the descent. Both passes add the
// comparison's result to the write index instead of branching on it, so no
// branch depends on the data and random input costs no mispredictions. A
// range that is not converging after 2·log2(n) rounds is sorted instead, so
// adversarial input costs n log n at worst.
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
		lt := lo + partition(vals[lo:hi+1], func(v float64) bool { return v < p })
		if k < lt {
			hi = lt - 1 // vals[lo:lt] < p <= vals[lt:hi+1]
			continue
		}
		// Past lt nothing is below p, so v <= p means v == p.
		eq := lt + partition(vals[lt:hi+1], func(v float64) bool { return v <= p })
		if k < eq {
			return // vals[lt:eq] == p < vals[eq:hi+1]
		}
		lo = eq
	}
}

// partition moves the values of run that satisfy below to its front, in a
// branch-free Lomuto pass, and returns how many there are.
func partition(run []float64, below func(float64) bool) int {
	i := 0
	for j, v := range run {
		run[j] = run[i]
		run[i] = v
		i += b2i(below(v))
	}
	return i
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag move, not
// a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
