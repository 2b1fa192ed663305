package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
	"vsensor/internal/server"
	"vsensor/internal/vm"
)

// nowUnixNs is the wall-clock source for lineage spans; only called on
// sampled paths, so the unsampled hot path never reads the clock.
func nowUnixNs() int64 { return time.Now().UnixNano() }

// Config tunes the reliable client side of the link.
type Config struct {
	// BatchSize is how many records a Conn buffers per frame (default
	// server.DefaultBatchSize; 1 disables batching; at most
	// server.MaxFrameRecords, what one frame can carry).
	BatchSize int

	// LeaseNs enables liveness heartbeats: the Conn promises the server a
	// fresh heartbeat within this much virtual time and emits one at least
	// every LeaseNs/2 as it flushes. The server's lease state machine
	// (server.RankLiveness) marks the rank suspect one lease behind the
	// cluster frontier and dead at three. 0 (the default) disables
	// heartbeats — ranks are then always considered alive.
	LeaseNs int64
}

// The retry schedule and retransmit buffer every Conn has.
const (
	// maxRetries bounds delivery attempts per frame beyond the first;
	// after that the frame is parked in the retransmit buffer.
	maxRetries = 8

	// ackTimeoutNs is the virtual time charged for each failed attempt —
	// the ack timeout the sender waits out before concluding loss.
	ackTimeoutNs = 50_000

	// backoffBaseNs is the first retry backoff; it doubles per retry up to
	// backoffMaxNs.
	backoffBaseNs = 20_000
	backoffMaxNs  = 1_000_000

	// bufferCap caps the retransmit buffer (parked frames) per Conn. When
	// a frame parks beyond the cap, the *oldest* parked frame is dropped
	// and its records are counted as lost — explicit drop-oldest
	// backpressure instead of unbounded memory.
	bufferCap = 64

	// closeAttempts bounds per-frame delivery attempts during Close's
	// final drain, when there is no later flush to retry from.
	closeAttempts = 64
)

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = server.DefaultBatchSize
	}
	c.BatchSize = min(c.BatchSize, server.MaxFrameRecords)
	return c
}

// Medium is the delivery target behind a Link — whatever one delivery
// attempt hands an encoded vS* frame to. Receive returns nil when the frame
// was accepted (the sender's ack) and an error when it was rejected or the
// receiver is down. The in-process medium is *server.Server; a networked
// one (internal/netsrv's TCP client link) carries the same bytes over a
// real socket and maps the session-layer ack back onto this contract.
// Implementations must be safe for concurrent Receives from every rank
// goroutine sharing the Link, and must not retain encoded past the return
// of Receive: whatever they keep they copy, because the caller reuses the
// buffer for its next frame (a Conn stages its next record into the frame
// it just transmitted).
type Medium interface {
	Receive(encoded []byte) error
}

// Windowed is a Medium that can hold a bounded window of unanswered frames,
// so a delivery attempt costs a place in the window instead of a round trip
// (internal/netsrv's ResilientSession; the bound is the medium's own). The
// in-process server and any Receive-only wrapper get the synchronous call,
// the window-of-one case.
type Windowed interface {
	Medium
	// SendAsync accepts the frame into the window, first waiting for the
	// oldest ack if the window is full. An error means it was not accepted
	// and will not be reported: the attempt failed, as Receive would have.
	// As with Receive, the window holds its own copy: the caller may
	// overwrite encoded as soon as SendAsync returns.
	SendAsync(encoded []byte) error
	// Drain returns once every accepted frame has been answered.
	Drain() error
	// ObserveAcks registers the callback that hears each accepted frame's
	// fate once, in acceptance order: nil, or the error Receive would have
	// returned (the medium giving up on it included). It runs inside
	// SendAsync or Drain, on their caller's goroutine.
	ObserveAcks(fn func(encoded []byte, err error))
}

// Link is the shared lossy medium in front of one analysis server. Conns
// from every rank send through it; the FaultPlan decides each attempt's
// fate. Safe for concurrent use by all rank goroutines. Delivery is not
// serialized: concurrent attempts land on the server's per-rank ingest
// shards in parallel, and the only cross-rank state — the attempt counter
// driving the crash-restart window — is a single atomic.
//
// The Link itself is a fault-wrapping proxy over any Medium: the dice roll
// on the sender's side of the wire, so the same seeded fault schedule
// applies whether the frames land on an in-process server or cross a real
// TCP socket (NewLinkOver).
//
// Over a Windowed medium an attempt is acked when the window accepts it.
// The dice, the crash window and every counter stay on the sender's side as
// in the synchronous case; what changes is when a failure at the far end is
// learned — the frame comes back to its own Conn (Conn.reclaim) instead of
// failing the call that sent it.
type Link struct {
	sink Medium
	plan FaultPlan

	// win is sink when it is Windowed, else nil. wmu orders tickets with the
	// SendAsync calls they describe; the medium reports fates in that order
	// from inside those calls (and Drain), so wmu guards tickets too:
	// tickets[thead:] are the accepted, unanswered envelopes.
	win     Windowed
	wmu     sync.Mutex
	tickets []ticket
	thead   int

	attempts atomic.Int64 // delivery attempts that reached the "network"

	// Crash hooks: with a durable server attached (SetCrashHooks), entering
	// the crash window actually crashes the server (wiping its memory) and
	// leaving it runs recovery — instead of the stateless reject-only window
	// of a purely in-memory server. Each fires exactly once.
	onCrash     func()
	onRecover   func()
	crashOnce   sync.Once
	recoverOnce sync.Once

	// lin is the record-lineage tracer (nil = lineage off), set from SetObs.
	lin *obs.Lineage

	// Observability handles (nil-safe no-ops when obs is off).
	obsFrames     *obs.Counter
	obsAcked      *obs.Counter
	obsRetries    *obs.Counter
	obsDropped    *obs.Counter
	obsCorrupted  *obs.Counter
	obsDuped      *obs.Counter
	obsReordered  *obs.Counter
	obsRejects    *obs.Counter
	obsParked     *obs.Counter
	obsPacked     *obs.Counter
	obsLost       *obs.Counter
	obsHeartbeats *obs.Counter
	obsStalls     *obs.Counter
	obsReturned   *obs.Counter
}

// ticket is one envelope in the window: whose it is, and whether its fate
// matters (a frame attempt) or is discarded as the synchronous path discards
// it (corrupt copy, duplicate, released held frame, heartbeat).
type ticket struct {
	c       *Conn
	tracked bool
}

// NewLink wraps srv behind plan. A zero plan is a perfect (but still
// framed, sequenced, and deduplicated) link.
func NewLink(srv *server.Server, plan FaultPlan) *Link {
	return &Link{sink: srv, plan: plan}
}

// NewLinkOver wraps an arbitrary delivery medium behind plan — the fault
// proxy form. With a networked medium every chaos suite's dice (drop, dup,
// reorder, corrupt, delay, crash window) applies to real socket traffic
// exactly as it does to the in-process path.
func NewLinkOver(m Medium, plan FaultPlan) *Link {
	l := &Link{sink: m, plan: plan}
	if w, ok := m.(Windowed); ok {
		l.win = w
		w.ObserveAcks(l.onAck)
	}
	return l
}

// send hands one envelope to the medium and reports whether the sender got
// its ack: the synchronous Receive, or a place in the window.
func (l *Link) send(c *Conn, encoded []byte, tracked bool) bool {
	if l.win == nil {
		return l.sink.Receive(encoded) == nil
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.thead > 0 && len(l.tickets) == cap(l.tickets) {
		l.tickets = l.tickets[:copy(l.tickets, l.tickets[l.thead:])]
		l.thead = 0
	}
	l.tickets = append(l.tickets, ticket{c, tracked})
	c.inflight.Add(1)
	before := len(l.tickets) - l.thead
	if err := l.win.SendAsync(encoded); err != nil {
		// Not accepted, so not reported: the ticket is still the tail.
		l.tickets = l.tickets[:len(l.tickets)-1]
		c.inflight.Add(-1)
		return false
	}
	if len(l.tickets)-l.thead < before {
		// Acks were consumed inside the call: the window was full (or
		// reopening after a redial) and the sender waited for the oldest.
		l.obsStalls.Inc()
	}
	return true
}

// onAck is the windowed medium's report of the oldest unanswered envelope's
// fate. A tracked frame that failed goes back to its own Conn; inflight drops
// last, so a Conn that reads zero has everything that came back.
func (l *Link) onAck(encoded []byte, err error) {
	t := l.tickets[l.thead]
	if l.thead++; l.thead == len(l.tickets) {
		l.tickets, l.thead = l.tickets[:0], 0
	}
	if err != nil && t.tracked {
		t.c.giveBack(encoded)
		l.obsReturned.Inc()
	}
	t.c.inflight.Add(-1)
}

// settle waits until none of c's envelopes is in the window.
func (l *Link) settle(c *Conn) {
	if c.inflight.Load() == 0 {
		return
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	//vs:discard a Drain that gives up answers everything "down" on its way
	// out: the error says nothing the returned frames do not.
	_ = l.win.Drain()
}

// Plan returns the link's fault plan.
func (l *Link) Plan() FaultPlan { return l.plan }

// SetCrashHooks makes the crash-restart window stateful: onCrash runs once
// when the first delivery attempt enters the window (a durable server
// crashes its disk and wipes memory there), onRecover runs once on the
// first attempt past it (the server replays its journal). Without hooks
// the window only rejects deliveries, as before. Call before the run
// starts.
func (l *Link) SetCrashHooks(onCrash, onRecover func()) {
	noop := func() {}
	if onCrash == nil {
		onCrash = noop
	}
	if onRecover == nil {
		onRecover = noop
	}
	l.onCrash = onCrash
	l.onRecover = onRecover
}

// Attempts returns how many delivery attempts reached the link so far.
func (l *Link) Attempts() int64 { return l.attempts.Load() }

// SetObs attaches transport metrics. Call before the run starts.
func (l *Link) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	l.obsFrames = o.Counter("transport_frames_total")
	l.obsAcked = o.Counter("transport_acked_total")
	l.obsRetries = o.Counter("transport_retries_total")
	l.obsDropped = o.Counter("transport_dropped_total")
	l.obsCorrupted = o.Counter("transport_corrupted_total")
	l.obsDuped = o.Counter("transport_duplicated_total")
	l.obsReordered = o.Counter("transport_reordered_total")
	l.obsRejects = o.Counter("transport_server_down_rejects_total")
	l.obsParked = o.Counter("transport_parked_total")
	l.obsPacked = o.Counter("transport_packed_flushes_total")
	l.obsLost = o.Counter("transport_records_lost_total")
	l.obsHeartbeats = o.Counter("transport_heartbeats_total")
	l.obsStalls = o.Counter("transport_window_stalls_total")
	l.obsReturned = o.Counter("transport_returned_frames_total")
	l.lin = o.Lineage()
}

// deliver is one attempt reaching the network: it applies the crash window
// and hands the frame (and its reorder/duplicate fate) to the server.
// Returns true when the sender gets an ack. corrupt, when non-nil, is the
// bit-flipped copy that arrives instead of the frame. Runs on the calling
// conn's goroutine without any link-wide lock — the held (reordered) frame
// is conn-local state, and the server's sharded ingest takes concurrent
// frames from different ranks without contention.
func (l *Link) deliver(c *Conn, frame []byte, corrupt []byte, dup, reorder bool) bool {
	attempts := l.attempts.Add(1)
	if l.plan.CrashAfterFrames > 0 && attempts > l.plan.CrashAfterFrames {
		if attempts <= l.plan.CrashAfterFrames+l.plan.CrashDownFrames {
			if l.onCrash != nil {
				l.crashOnce.Do(l.onCrash)
			}
			l.obsRejects.Inc()
			return false
		}
		if l.plan.CrashDownFrames > 0 && l.onRecover != nil {
			// The window also crashed the server even if no attempt landed
			// inside it (the once below covers that race too).
			l.crashOnce.Do(l.onCrash)
			l.recoverOnce.Do(l.onRecover)
		}
	}
	if corrupt != nil {
		// The damaged copy reaches the server, which rejects it by CRC;
		// the sender never gets an ack.
		l.send(c, corrupt, false)
		l.obsCorrupted.Inc()
		return false
	}
	// An older held frame arrives after the newer one overtook it.
	if c.held != nil && !reorder {
		held := c.held
		c.held = nil
		l.send(c, held, false)
	}
	if reorder && c.held == nil {
		// The frame lingers in flight; it will arrive after the rank's
		// next frame (or at Close). The sender still gets its ack — from
		// its view the frame was accepted by the network.
		c.held = append([]byte(nil), frame...)
		l.obsReordered.Inc()
		return true
	}
	if !l.send(c, frame, true) {
		return false
	}
	if dup {
		// Ack lost → sender-side retransmit arrives too; the server's
		// sequence dedup absorbs it.
		l.send(c, frame, false)
		l.obsDuped.Inc()
	}
	return true
}

// release flushes a Conn's held (reordered) frame at close time. Like
// deliver, it runs on the conn's own goroutine; held is conn-local.
func (l *Link) release(c *Conn) {
	if c.held != nil {
		l.send(c, c.held, false)
		c.held = nil
	}
}

// Conn is one rank's reliable connection over the link. It implements
// detect.Emitter and vm.ClockBinder. Not safe for concurrent use; each
// rank owns one Conn and calls it from its own goroutine.
type Conn struct {
	link  *Link
	rank  int
	cfg   Config
	clock vm.Clock
	rng   *rand.Rand // fault dice; nil when the plan never rolls them

	// frame is the frame being staged: header room, then the records
	// buffered since the last flush in the wire layout, n of them. Flush
	// seals it in place, transmits it and truncates it back to the header.
	frame []byte
	n     int
	seq   uint64
	cum   uint64

	// parked is the capped retransmit buffer: frames that exhausted their
	// retries, oldest first.
	parked [][]byte
	// held is the in-flight reordered frame; conn-local, only touched from
	// this conn's goroutine (deliver/release).
	held []byte

	// The only state another goroutine touches (Link.onAck, giveBack): this
	// conn's envelopes in the window, and the frames it gave back.
	inflight  atomic.Int32
	nreturned atomic.Int32
	back      sync.Mutex
	returned  [][]byte

	// hbEnc is the reusable heartbeat wire buffer; lastHBNs is the virtual
	// time of the last heartbeat that reached the server.
	hbEnc      []byte
	lastHBNs   int64
	sentHB     bool
	heartbeats int64

	framesSent    int64
	recordsSent   int64
	bytesSent     int64
	retries       int64
	waitNs        int64
	lostFrames    int64
	lostRecords   int64
	packedFlushes int64
}

// NewConn creates the rank's connection. The fault stream is seeded by
// (plan.Seed, rank), so each rank's fault schedule is deterministic and
// independent of goroutine interleaving.
func (l *Link) NewConn(rank int, cfg Config) *Conn {
	c := &Conn{link: l, rank: rank, cfg: cfg.withDefaults()}
	// A plan with no per-attempt fault never reads the stream (attempt
	// guards every use), and a rand source is ~5 KB per rank.
	if p := &l.plan; p.Drop > 0 || p.Dup > 0 || p.Reorder > 0 || p.Corrupt > 0 || p.DelayNs > 0 {
		seed := int64(uint64(p.Seed)*0x9e3779b97f4a7c15 + uint64(rank)*0x100000001b3 + 0x632be5)
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c
}

// BindClock attaches the rank's virtual clock (vm.ClockBinder); retry
// timeouts, backoff, and injected delays are charged to it.
func (c *Conn) BindClock(clk vm.Clock) { c.clock = clk }

// charge advances the rank's virtual clock by ns.
func (c *Conn) charge(ns int64) {
	if ns <= 0 {
		return
	}
	c.waitNs += ns
	if c.clock != nil {
		c.clock.AdvanceTo(c.clock.Now() + ns)
	}
}

// silenced reports whether the dead-rank fault has permanently killed this
// connection: rank DeadRank goes quiet after flushing DeadAfterFrames
// frames — no frames, no heartbeats, no virtual-time burn. The server's
// liveness leases are what notice.
func (c *Conn) silenced() bool {
	p := &c.link.plan
	return p.DeadAfterFrames > 0 && c.rank == p.DeadRank && c.seq >= uint64(p.DeadAfterFrames)
}

// maybeHeartbeat emits a liveness heartbeat when the lease cadence is due:
// at least every LeaseNs/2 of virtual time, plus one immediately on the
// first call so the server learns the lease early. Heartbeats bypass the
// fault dice and the link's attempt counter — they are tiny, constantly
// retried frames whose loss the next one repairs, and modeling their
// individual fates would perturb every existing crashafter schedule — but
// they do respect the crash window: a down server hears nothing.
func (c *Conn) maybeHeartbeat() {
	lease := c.cfg.LeaseNs
	if lease <= 0 || c.clock == nil || c.silenced() {
		return
	}
	now := c.clock.Now()
	if c.sentHB && now < c.lastHBNs+lease/2 {
		return
	}
	c.hbEnc = server.AppendHeartbeat(c.hbEnc[:0], c.rank, now, lease)
	if c.link.deliverHeartbeat(c, c.hbEnc) {
		c.sentHB = true
		c.lastHBNs = now
		c.heartbeats++
	}
}

// deliverHeartbeat hands a heartbeat frame to the server unless the crash
// window is open. It does not advance the attempt counter (see
// maybeHeartbeat).
func (l *Link) deliverHeartbeat(c *Conn, hb []byte) bool {
	a := l.attempts.Load()
	if l.plan.CrashAfterFrames > 0 && a >= l.plan.CrashAfterFrames &&
		a < l.plan.CrashAfterFrames+l.plan.CrashDownFrames {
		return false
	}
	if !l.send(c, hb, false) {
		return false
	}
	l.obsHeartbeats.Inc()
	return true
}

// OnSlice buffers one record, flushing when the batch is full
// (detect.Emitter).
func (c *Conn) OnSlice(r detect.SliceRecord) error {
	if c.silenced() {
		c.lostRecords++
		c.link.obsLost.Inc()
		return nil
	}
	if c.frame == nil {
		// One batch of room up front: grown by append instead, the buffer
		// would be reallocated at every power of two on every connection.
		c.frame = make([]byte, server.FrameHeaderSize, server.FrameSize(c.cfg.BatchSize))
	}
	c.frame = server.AppendRecord(c.frame, r)
	if c.n++; c.n >= c.cfg.BatchSize {
		return c.Flush()
	}
	return nil
}

// NextTrace returns the lineage trace ID of the frame the next buffered
// record will leave in, or 0 when unsampled or lineage is off. Records
// buffered now leave in frame seq+1. Implements detect.TraceSource.
func (c *Conn) NextTrace() uint64 { return c.link.lin.TraceID(c.rank, c.seq+1) }

// Flush first retries parked frames, then sends the buffered records as one
// new sequenced frame. The returned error reports backpressure loss
// (drop-oldest evictions), not transient failures — those are retried.
func (c *Conn) Flush() error { return c.flush(false) }

// packLimit is how many records may accumulate across packed flush
// intervals before a frame is cut regardless of backpressure: the record
// equivalent of the parked-frame cap, bounded by what one frame can carry.
func (c *Conn) packLimit() int {
	return min(bufferCap*c.cfg.BatchSize, server.MaxFrameRecords)
}

func (c *Conn) flush(force bool) error {
	if c.silenced() {
		c.dropAllSilently()
		return nil
	}
	c.maybeHeartbeat()
	err := c.reclaim()
	c.drainParked(maxRetries)
	if c.n == 0 {
		return err
	}
	// Backpressure packing: while earlier frames still sit parked, cutting
	// a new frame would only park it right behind them — instead the
	// interval's records stay buffered, and the flush that finds the park
	// queue drained packs every accumulated interval into one frame, so
	// the wire amortizes the way the WAL's group commit does. A full
	// buffer (bufferCap intervals' worth of records) forces a cut so
	// memory stays bounded and drop-oldest eviction keeps its meaning;
	// Close forces one too — there is no later flush to pack into.
	// The staged records never outgrow one frame: a flush cuts them at
	// BatchSize or packLimit records, neither above MaxFrameRecords.
	if !force && len(c.parked) > 0 && c.n < c.packLimit() {
		c.packedFlushes++
		c.link.obsPacked.Inc()
		return err
	}
	c.seq++
	c.cum += uint64(c.n)
	if lin := c.link.lin; lin != nil {
		if trace := lin.TraceID(c.rank, c.seq); trace != 0 {
			lin.FrameSampled()
			lin.Record(trace, obs.StageEnqueue, c.rank, 0, nowUnixNs(), 0, int64(c.n))
		}
	}
	server.SealFrame(c.frame, server.FrameHeader{Rank: c.rank, Seq: c.seq, CumRecords: c.cum})
	c.recordsSent += int64(c.n)
	c.link.obsFrames.Inc()
	// Transmitting the frame in place is safe because nothing downstream
	// keeps it: the retransmit buffer, the held reordered frame and the
	// corrupt copy are copies, and every Medium copies what it keeps (see
	// Medium).
	if terr := c.transmit(c.frame); terr != nil && err == nil {
		err = terr
	}
	c.frame, c.n = c.frame[:server.FrameHeaderSize], 0
	return err
}

// transmit pushes one fresh frame with bounded retry + exponential backoff.
// On exhaustion the frame parks in the retransmit buffer; the returned error
// is non-nil only when parking evicted an older frame (data loss).
func (c *Conn) transmit(frame []byte) error {
	if c.try(frame, maxRetries, false) {
		return nil
	}
	return c.park(append([]byte(nil), frame...))
}

// try makes up to retries+1 delivery attempts at frame, charging the ack
// timeout plus a doubling backoff after each failure, and reports whether one
// was acked. A fresh frame that fails its last attempt parks at once; a
// parked one waits that timeout out too before its turn ends (chargeLast) —
// the two schedules every seeded run's virtual time is built on.
func (c *Conn) try(frame []byte, retries int, chargeLast bool) bool {
	// Parked frames hold raw bytes; the lineage trace is re-derived from
	// the frame header so retransmits stay on the record's journey.
	lin := c.link.lin
	trace := server.TraceOf(lin, frame)
	backoff := int64(backoffBaseNs)
	for try := 0; ; try++ {
		var t0 int64
		if trace != 0 {
			t0 = nowUnixNs()
		}
		if c.attempt(frame) {
			if trace != 0 {
				lin.Record(trace, obs.StageAttempt, c.rank, try+1, t0, nowUnixNs()-t0, 1)
			}
			c.framesSent++
			c.bytesSent += int64(len(frame))
			c.link.obsAcked.Inc()
			return true
		}
		if trace != 0 {
			lin.Record(trace, obs.StageAttempt, c.rank, try+1, t0, nowUnixNs()-t0, 0)
		}
		if try >= retries && !chargeLast {
			return false
		}
		c.retries++
		c.link.obsRetries.Inc()
		charged := ackTimeoutNs + backoff
		c.charge(charged)
		if trace != 0 {
			lin.Record(trace, obs.StageRetry, c.rank, try+1, nowUnixNs(), 0, charged)
		}
		if try >= retries {
			return false
		}
		backoff = min(2*backoff, backoffMaxNs)
	}
}

// attempt rolls the fault dice for one delivery attempt and hands the frame
// to the link. Returns true on ack.
func (c *Conn) attempt(frame []byte) bool {
	p := &c.link.plan
	if p.DelayNs > 0 {
		c.charge(c.rng.Int63n(p.DelayNs + 1))
	}
	if p.Drop > 0 && c.rng.Float64() < p.Drop {
		c.link.obsDropped.Inc()
		return false
	}
	var corrupt []byte
	if p.Corrupt > 0 && c.rng.Float64() < p.Corrupt {
		corrupt = append([]byte(nil), frame...)
		bit := c.rng.Intn(len(corrupt) * 8)
		corrupt[bit/8] ^= 1 << (bit % 8)
	}
	dup := p.Dup > 0 && c.rng.Float64() < p.Dup
	reorder := p.Reorder > 0 && c.rng.Float64() < p.Reorder
	return c.link.deliver(c, frame, corrupt, dup, reorder)
}

// giveBack leaves a copy of a frame the window failed in the conn's mailbox.
// It is the one Conn method that runs on another goroutine: whichever reads
// the acks.
func (c *Conn) giveBack(encoded []byte) {
	c.back.Lock()
	defer c.back.Unlock()
	c.returned = append(c.returned, append([]byte(nil), encoded...))
	c.nreturned.Store(int32(len(c.returned)))
}

// reclaim takes back the frames a windowed medium accepted and then failed
// (rejected, tenant down, or unanswered when it gave up). Each is a failed
// attempt learned late: its ack is undone, the timeout and first backoff are
// charged as try would have charged them (a dead rank burns no time), and
// the frame joins the retransmit buffer, where retry, packing, drop-oldest
// and abandon-at-close take over.
func (c *Conn) reclaim() error {
	if c.nreturned.Load() == 0 {
		return nil // the happy path: one atomic load per flush
	}
	c.back.Lock()
	frames := c.returned
	c.returned = nil
	c.nreturned.Store(0)
	c.back.Unlock()
	var err error
	for _, frame := range frames {
		c.framesSent--
		c.bytesSent -= int64(len(frame))
		if !c.silenced() {
			c.retries++
			c.link.obsRetries.Inc()
			const charged = ackTimeoutNs + backoffBaseNs
			c.charge(charged)
			if lin := c.link.lin; lin != nil {
				if trace := server.TraceOf(lin, frame); trace != 0 {
					lin.Record(trace, obs.StageRetry, c.rank, 1, nowUnixNs(), 0, charged)
				}
			}
		}
		if perr := c.park(frame); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// park adds a frame (which it now owns) to the retransmit buffer, evicting
// the oldest frame beyond the cap (drop-oldest backpressure). Evictions are
// counted as lost records and reported as an error.
func (c *Conn) park(frame []byte) error {
	c.parked = append(c.parked, frame)
	c.link.obsParked.Inc()
	if len(c.parked) <= bufferCap {
		return nil
	}
	oldest := c.parked[0]
	copy(c.parked, c.parked[1:])
	c.parked = c.parked[:len(c.parked)-1]
	return fmt.Errorf("transport: rank %d retransmit buffer full (cap %d), dropped oldest frame (%d records)",
		c.rank, bufferCap, c.lose(oldest))
}

// lose books one undeliverable frame's records as lost and returns how many.
func (c *Conn) lose(frame []byte) int64 {
	var n int64
	if h, err := server.ParseFrame(frame); err == nil {
		n = int64(h.Count)
	}
	c.lostFrames++
	c.lostRecords += n
	c.link.obsLost.Add(n)
	return n
}

// drainParked retries parked frames oldest-first, stopping at the first
// frame that still cannot be delivered (preserving order).
func (c *Conn) drainParked(retries int) {
	for len(c.parked) > 0 && c.try(c.parked[0], retries, true) {
		copy(c.parked, c.parked[1:])
		c.parked = c.parked[:len(c.parked)-1]
	}
}

// dropAllSilently discards everything a dead rank still holds — buffered
// records, parked retransmits, the held reordered frame — counting the
// records as lost. A dead process sends nothing, not even its backlog.
func (c *Conn) dropAllSilently() {
	// What is in the window lands or comes back, as backlog like the rest
	// (an eviction is counted by park; the rest is counted below).
	c.link.settle(c)
	_ = c.reclaim() //vs:discard its only error is an eviction, which park counts
	c.lostRecords += int64(c.n)
	c.link.obsLost.Add(int64(c.n))
	if c.n > 0 {
		c.frame, c.n = c.frame[:server.FrameHeaderSize], 0
	}
	for _, f := range c.parked {
		c.lose(f)
	}
	c.parked = nil
	if c.held != nil {
		c.lose(c.held)
		c.held = nil
	}
}

// Close flushes buffered records, makes a final persistent attempt at every
// parked frame (closeAttempts each), releases any held reordered frame,
// and reports frames that were abandoned as lost. A dead rank's Close
// discards silently instead — the process is gone.
func (c *Conn) Close() error {
	if c.silenced() {
		c.dropAllSilently()
		return nil
	}
	err := c.flush(true)
	// The final drain. Over a window an accepted attempt can still come
	// back: settle, and give what did another persistent round, at most as
	// many as a frame gets attempts. A synchronous medium leaves after one.
	for round := 0; round <= closeAttempts; round++ {
		c.drainParked(closeAttempts)
		c.link.settle(c)
		if c.nreturned.Load() == 0 {
			break
		}
		if rerr := c.reclaim(); rerr != nil && err == nil {
			err = rerr
		}
	}
	if n := len(c.parked); n > 0 {
		for _, f := range c.parked {
			c.lose(f)
		}
		c.parked = nil
		lossErr := fmt.Errorf("transport: rank %d abandoned %d undeliverable frames at close", c.rank, n)
		if err == nil {
			err = lossErr
		}
	}
	c.link.release(c)
	c.link.settle(c)
	return err
}

// ConnStats is a snapshot of one connection's delivery accounting.
type ConnStats struct {
	Rank          int
	FramesSent    int64 // frames acked by the link (incl. parked retries)
	RecordsSent   int64 // records handed to Flush
	BytesSent     int64
	Retries       int64 // failed attempts that were retried
	Parked        int   // frames currently in the retransmit buffer
	LostFrames    int64 // frames evicted or abandoned (records lost)
	LostRecords   int64
	WaitNs        int64 // virtual time charged for delays/timeouts/backoff
	Heartbeats    int64 // liveness heartbeats that reached the server
	PackedFlushes int64 // flush intervals deferred into a later packed frame
}

// Stats returns the connection's delivery accounting.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		Rank:          c.rank,
		FramesSent:    c.framesSent,
		RecordsSent:   c.recordsSent,
		BytesSent:     c.bytesSent,
		Retries:       c.retries,
		Parked:        len(c.parked),
		LostFrames:    c.lostFrames,
		LostRecords:   c.lostRecords,
		WaitNs:        c.waitNs,
		Heartbeats:    c.heartbeats,
		PackedFlushes: c.packedFlushes,
	}
}
