package netsrv

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// RetryPolicy shapes a ResilientSession's dial retries: how long to keep
// trying and how fast the backoff grows when the server sends no
// retry-after hint.
type RetryPolicy struct {
	// MaxElapsed is the total retry budget for the first dial and for each
	// later outage. Default 10s. Without a server hint the sleep between
	// attempts is backoffBase (5ms), doubling per attempt up to backoffMax
	// (500ms).
	MaxElapsed time.Duration

	// Seed drives the backoff jitter deterministically.
	Seed int64
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxElapsed <= 0 {
		p.MaxElapsed = 10 * time.Second
	}
}

// retryStats accounts one dialer.dial call.
type retryStats struct {
	Attempts  int64 // dial attempts, including the successful one
	Refusals  int64 // vSE1 refusals honored (slept on the server's hint)
	BackoffNs int64 // total time slept between attempts
}

// retryableRefusal reports whether a vSE1 code is worth retrying. Busy,
// session-cap and shutdown are transient by definition. A bad hello is
// permanent — unless the service has already accepted this very hello
// once, in which case the refusal can only be wire damage. The run cap is
// permanent from one client's point of view.
func retryableRefusal(code uint16, accepted bool) bool {
	switch code {
	case RefuseBusy, RefuseRunSessions, RefuseShutdown:
		return true
	case RefuseBadHello:
		return accepted
	}
	return false
}

// dialer is ResilientSession's retry engine: dial, classify the failure,
// sleep the server's hint (refusals) or a jittered exponential backoff
// (net errors), repeat until the deadline.
type dialer struct {
	addr string
	clk  clock
	p    RetryPolicy
	rng  *rand.Rand
}

func newDialer(addr string, clk clock, p RetryPolicy) *dialer {
	return &dialer{addr: addr, clk: clk, p: p, rng: rand.New(rand.NewSource(p.Seed ^ 0x72656469616c))}
}

// dial has two regimes. Before the service has ever accepted this hello
// only transient refusals are retried: an unreachable address or a
// malformed hello is a configuration error and fails fast. Once it has,
// the address and the hello are known good, so a network error is an
// outage and is retried under the budget too. deadline is clock time.
func (d *dialer) dial(h Hello, deadline time.Time, accepted bool, st *retryStats) (*clientConn, error) {
	backoff := backoffBase
	for {
		st.Attempts++
		c, err := connect(d.addr, h, d.clk)
		if err == nil {
			return c, nil
		}
		var ref *Refuse
		var wait time.Duration
		switch {
		case errors.As(err, &ref):
			if !retryableRefusal(ref.Code, accepted) {
				return nil, err
			}
			st.Refusals++
			wait = time.Duration(ref.RetryAfterMs) * time.Millisecond
			if wait <= 0 {
				wait = backoff
			}
		case accepted:
			wait = backoff
		default:
			return nil, err
		}
		// ±25% deterministic jitter so a fleet of resuming clients does
		// not stampede the listener in lock-step.
		wait += time.Duration(d.rng.Int63n(int64(wait)/2+1)) - wait/4
		backoff = min(2*backoff, backoffMax)
		if d.clk.now().Add(wait).After(deadline) {
			return nil, err
		}
		st.BackoffNs += int64(wait)
		d.clk.sleep(wait)
	}
}

// ReconnectConfig shapes a ResilientSession.
type ReconnectConfig struct {
	// Addr and Hello are what every (re)dial presents; the hello's
	// ResumeLSN is overwritten on each redial with the client's current
	// durable position.
	Addr  string
	Hello Hello

	// Retry is the budget of the first dial (transient vSE1 refusals only)
	// and of each later outage: once a live connection breaks, the
	// session redials under this policy, and only when the budget is
	// exhausted does the failure surface (as server.ErrServerDown, so
	// transport.Link parks frames instead of dropping them).
	Retry RetryPolicy

	// clock times every dial, deadline and backoff; nil is the wall clock.
	clock clock
}

// maxWindow is how many envelopes a session may have unanswered: the depth
// every connection's window opens to.
const maxWindow = 256

// ResilientStats snapshots a ResilientSession's ledger.
type ResilientStats struct {
	Reconnects   int64  // successful re-handshakes after a live conn broke
	DialAttempts int64  // total dials, including the first and failed ones
	Refusals     int64  // vSE1 refusals honored
	BackoffNs    int64  // total time slept in dial backoff
	Resumed      int64  // queued envelopes skipped because the resume LSN proved them processed
	Outages      int64  // operations that exhausted the retry budget
	InFlight     int    // envelopes accepted and not yet answered (at most maxWindow, 256)
	LSN          uint64 // client's belief of the tenant's durable LSN
}

// ResilientSession is netsrv's client: a transport.Medium that speaks the
// envelope protocol for one run and survives the network. It auto-redials on
// connection loss with exponential backoff + jitter, honors vSE1 retry-after
// hints, and resumes delivery at the durable LSN carried by the vSA1 session
// ack so a reconnect neither loses nor duplicates journaled envelopes.
//
// It is safe for concurrent use: a transport.Link shared by many rank
// goroutines funnels all of their delivery attempts into one session, so
// every operation runs under its one lock (matching the in-process server,
// whose Receive is also internally synchronized).
//
// A session tells two failure classes apart. An ack status (nil,
// ErrFrameRejected, server.ErrServerDown — the in-process server's errors,
// so retry classification works identically over the wire) is one frame's
// answer on a healthy connection. A transport failure (write error, ack-read
// error, envelope corruption, deadline expiry) drops the connection at once;
// the next step of the operation redials.
//
// The resume algorithm rides the dense-LSN contract of the durable
// server: every delivered envelope (frame ingest, dup, reject, heartbeat)
// journals exactly one outcome, so the tenant's LSN counts delivered
// envelopes. The session keeps copies of sent-but-unanswered envelopes in
// order; on reconnect, the fresh session ack's LSN minus the client's
// last-acked position says exactly how many of those the server processed
// before the wire died — that prefix is answered (already journaled), the
// rest is retransmitted in order. Against a non-durable tenant the ack
// LSN is always 0, so everything unanswered is retransmitted and the
// server's sequence dedup absorbs the overlap: at-least-once there,
// exactly-once when durability is on.
//
// It is also a windowed medium (transport.Windowed): SendAsync accepts a
// frame into a window of at most maxWindow unanswered envelopes, and every
// accepted envelope is answered exactly once, in order — by its ack, by the
// resume LSN, or with server.ErrServerDown when the session gives up —
// through the observer (ObserveAcks). Giving up empties the window, so the
// bound holds across an outage. The session owns no goroutine: acks are read
// on the caller's, inside SendAsync, Drain and Receive.
//
// Each connection's share of the window opens the way a congestion window
// does: a fresh connection may have one frame unanswered, and the allowance
// doubles each time that many have been acknowledged, up to maxWindow. So a
// connection delivers an ack before a second frame is risked on it — a wire
// that dies sooner than a window's bytes still makes progress, one reconnect
// at a time — and reaches full depth nine round trips later.
//
// When an outage outlives the retry budget, operations fail with
// server.ErrServerDown — the same error a crashed tenant returns — so the
// transport.Link machinery parks frames and packed-flushes them when the
// world comes back.
type ResilientSession struct {
	mu     sync.Mutex
	cfg    ReconnectConfig
	d      *dialer
	conn   *clientConn // nil between a transport failure and the next redial
	closed bool

	lsn uint64 // belief: tenant's durable LSN after all answered envelopes
	// pend is a ring of maxWindow slots: n unanswered envelope copies from
	// head on, the first sent of them written to the live conn. Slot buffers
	// are reused in place, so the steady state allocates nothing. The live
	// conn may have window of them unanswered: 1 after each dial, doubling
	// each time that many acks (acked) have come back, up to len(pend).
	pend          [][]byte
	head, n, sent int
	window, acked int
	// observe hears each answered envelope's fate; without one the first
	// failure waits in ackErr for Drain. own marks the tail as a Receive in
	// progress, whose fate is that call's return value (ownErr) instead.
	observe func(encoded []byte, err error)
	ackErr  error
	own     bool
	ownErr  error
	ever    bool // a connection has succeeded at least once
	lastAck SessionAck

	stats ResilientStats

	reconnects *obs.Counter
	attempts   *obs.Counter
	backoffNs  *obs.Histogram
	inflight   *obs.Gauge
}

// DialResilient dials the first connection eagerly — network errors and
// permanent refusals surface immediately, a momentarily full service's
// retry-after hints are honored within the budget — and returns the
// self-healing session. Hello.Version defaults to ProtocolVersion.
func DialResilient(cfg ReconnectConfig) (*ResilientSession, error) {
	if cfg.Hello.Version == 0 {
		cfg.Hello.Version = ProtocolVersion
	}
	if n := len(cfg.Hello.RunID); n == 0 || n > MaxRunIDLen {
		return nil, fmt.Errorf("netsrv: run ID length %d out of [1,%d]", n, MaxRunIDLen)
	}
	cfg.Retry.fillDefaults()
	cfg.clock = orWall(cfg.clock)
	r := &ResilientSession{cfg: cfg, d: newDialer(cfg.Addr, cfg.clock, cfg.Retry), pend: make([][]byte, maxWindow)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.redialLocked(cfg.clock.now().Add(cfg.Retry.MaxElapsed)); err != nil {
		return nil, err
	}
	return r, nil
}

// SetObs mirrors reconnect activity into an observability registry.
func (r *ResilientSession) SetObs(o *obs.Obs) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reconnects = o.Counter("net_reconnects_total")
	r.attempts = o.Counter("net_dial_attempts_total")
	r.backoffNs = o.Histogram("net_dial_backoff_ns")
	r.inflight = o.Gauge("net_inflight_frames")
}

// ObserveAcks registers fn to hear the fate of every envelope SendAsync
// accepts, once each and in acceptance order: nil (journaled — by ack or by
// resume LSN), ErrFrameRejected, or server.ErrServerDown (the tenant was
// down, or the session gave up on it; the sender owns the retry). fn runs on
// the goroutine inside SendAsync, Drain or Receive with the session locked:
// it must not call back in, and encoded is valid only during the call. One
// observer at a time: a transport.Link registers itself here, and a session
// it drives is driven by nothing else.
func (r *ResilientSession) ObserveAcks(fn func(encoded []byte, err error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observe = fn
}

// Ack returns the most recent vSA1 session ack (the latest successful
// handshake's flags and durable LSN).
func (r *ResilientSession) Ack() SessionAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastAck
}

// Stats snapshots the reconnect ledger.
func (r *ResilientSession) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.LSN = r.lsn
	st.InFlight = r.n
	return st
}

// ResyncLSN overrides the client's durable-position belief. A crash
// harness calls this after recovering a tenant whose WAL tail was lost:
// acked-but-unsynced outcomes vanished, so the belief must rewind to the
// recovered LSN before re-driving the schedule (mirroring what any
// checkpoint-resuming producer does).
func (r *ResilientSession) ResyncLSN(lsn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lsn = lsn
}

// onAck is the one ack-status → answer mapping: it answers the oldest
// envelope on the wire, in arrival order, with r.mu held.
func (r *ResilientSession) onAck(status byte) {
	var err error
	switch status {
	case frameAckOK:
		r.lsn++
	case frameAckReject:
		r.lsn++ // a reject is journaled too (dense LSN)
		err = ErrFrameRejected
	case frameAckDown:
		// Not journaled: the tenant was between Crash and Recover.
		err = server.ErrServerDown
	}
	r.answer(err)
}

// answer releases the oldest unanswered envelope and tells its fate to
// whoever is waiting for it.
func (r *ResilientSession) answer(err error) {
	if r.n == 0 {
		return
	}
	frame := r.pend[r.head]
	r.head = (r.head + 1) % len(r.pend)
	r.n--
	if r.sent > 0 {
		r.sent--
	}
	r.inflight.Set(float64(r.n))
	switch {
	case r.own && r.n == 0:
		r.ownErr = err
	case r.observe != nil:
		r.observe(frame, err)
	case r.ackErr == nil:
		r.ackErr = err
	}
}

// at returns the i-th oldest unanswered envelope's slot.
func (r *ResilientSession) at(i int) *[]byte { return &r.pend[(r.head+i)%len(r.pend)] }

// redialLocked establishes a fresh connection within the deadline (clock
// time) and reconciles the unanswered queue against the server's durable
// position.
func (r *ResilientSession) redialLocked(deadline time.Time) error {
	h := r.cfg.Hello
	h.ResumeLSN = r.lsn
	var st retryStats
	c, err := r.d.dial(h, deadline, r.ever, &st)
	r.stats.DialAttempts += st.Attempts
	r.stats.Refusals += st.Refusals
	r.stats.BackoffNs += st.BackoffNs
	r.attempts.Add(st.Attempts)
	if st.BackoffNs > 0 {
		r.backoffNs.ObserveInt(st.BackoffNs)
	}
	if err != nil {
		r.stats.Outages++
		return err
	}
	r.conn = c
	r.lastAck = c.ack
	if r.ever {
		r.stats.Reconnects++
		r.reconnects.Inc()
	}
	r.ever = true
	r.sent, r.window, r.acked = 0, 1, 0
	// Reconcile: the ack's LSN is the server's truth. Anything it has
	// journaled beyond our belief must be the oldest unanswered envelopes,
	// delivered in order before the previous wire died — answer them instead
	// of re-sending. A *lower* LSN (crash truncation, or a non-durable
	// tenant's flat 0) means re-send everything unanswered and let
	// sequence dedup absorb any overlap.
	if r.lastAck.LSN > r.lsn {
		for processed := min(r.lastAck.LSN-r.lsn, uint64(r.n)); processed > 0; processed-- {
			r.stats.Resumed++
			r.answer(nil)
		}
	}
	r.lsn = r.lastAck.LSN
	return nil
}

// dropConnLocked abandons a broken connection; its close error adds nothing
// to the failure that broke it.
func (r *ResilientSession) dropConnLocked() {
	_ = r.conn.nc.Close() //vs:discard the failure that broke the conn is the one to report
	r.conn = nil
	r.sent = 0
}

// readAck reads the live connection's next ack, opens the window a step and
// answers the oldest envelope on the wire.
func (r *ResilientSession) readAck() error {
	status, err := r.conn.readAck()
	if err != nil {
		return err
	}
	if r.acked++; r.acked >= r.window && r.window < len(r.pend) {
		r.window, r.acked = min(2*r.window, len(r.pend)), 0
	}
	r.onAck(status)
	return nil
}

// awaitLocked flushes and reads acks until at most keep envelopes on the
// wire are unanswered.
func (r *ResilientSession) awaitLocked(keep int) error {
	if r.sent <= keep {
		return nil
	}
	if err := r.conn.flush(); err != nil {
		return err
	}
	for r.sent > keep {
		if err := r.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// transmitLocked writes every queued envelope the live connection has not
// carried yet, within its window, then reads acks until at most keep are
// unanswered. Its error is always a transport failure: ack statuses are
// answers (onAck), never errors.
func (r *ResilientSession) transmitLocked(keep int) error {
	for r.sent < r.n {
		// Answer whatever acks already sit in the read buffer — the server
		// batches them — so the window stays open and the writer flushes on
		// its own buffer boundary instead of once per frame.
		for r.sent > 0 && r.conn.buffered() {
			if err := r.readAck(); err != nil {
				return err
			}
		}
		if r.sent >= r.window {
			// A window still opening is acknowledged whole before the next,
			// doubled one is risked; at full depth it slides one ack at a time.
			hold := 0
			if r.window == len(r.pend) {
				hold = r.window - 1
			}
			if err := r.awaitLocked(hold); err != nil {
				return err
			}
			continue
		}
		if err := r.conn.write(*r.at(r.sent)); err != nil {
			return err
		}
		r.sent++
	}
	return r.awaitLocked(keep)
}

// errClosed is what every operation on a closed session returns.
var errClosed = fmt.Errorf("netsrv: ResilientSession closed: %w", net.ErrClosed)

// opLocked is the self-healing core: keep a connection alive, transmit
// the queue, wait until at most keep envelopes are unanswered, and on
// transport failure redial-and-retransmit until the per-outage budget is
// gone. Then the session gives up: everything unanswered is answered
// server.ErrServerDown — handed back, not kept queued — and the operation
// fails with the same error. Protocol-level statuses (reject/down) are
// answers like any other; they never trigger a redial.
func (r *ResilientSession) opLocked(keep int) error {
	if r.closed {
		return errClosed
	}
	// The outage deadline is read lazily: a healthy session never pays
	// for the clock, and the budget spans this operation's redials only.
	var deadline time.Time
	for {
		if r.conn == nil {
			if deadline.IsZero() {
				deadline = r.d.clk.now().Add(r.d.p.MaxElapsed)
			}
			if err := r.redialLocked(deadline); err != nil {
				for r.n > 0 {
					r.answer(server.ErrServerDown)
				}
				return server.ErrServerDown
			}
		}
		if r.transmitLocked(keep) == nil {
			return nil
		}
		r.dropConnLocked()
	}
}

// accept makes room in the window — a full one waits for its oldest ack,
// redialing if it must, and fails with nothing queued when it cannot — then
// copies the frame into the next slot (what a reconnect retransmits).
func (r *ResilientSession) accept(encoded []byte) error {
	if err := r.opLocked(len(r.pend) - 1); err != nil {
		return err
	}
	slot := r.at(r.n)
	*slot = append((*slot)[:0], encoded...)
	r.n++
	r.inflight.Set(float64(r.n))
	return nil
}

// Receive sends one encoded vS* frame and waits for its ack, redialing
// through connection failures — the transport.Medium contract. It drains
// whatever SendAsync left in flight ahead of it; those envelopes' fates go
// to the observer, never into this return value. The outcome is exact: nil
// or ErrFrameRejected means the envelope was delivered and journaled exactly
// once (possibly proven by the resume LSN rather than an explicit ack);
// server.ErrServerDown means it was not delivered and the caller owns the
// retry — the frame is not left queued.
func (r *ResilientSession) Receive(encoded []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.accept(encoded); err != nil {
		return err
	}
	r.own = true
	err := r.opLocked(0)
	r.own = false
	if err != nil {
		return err
	}
	return r.ownErr
}

// SendAsync accepts one frame into the window without waiting for its ack;
// its fate goes to the observer (or, without one, to Drain). An error
// (server.ErrServerDown: the window was full or the connection gone, and the
// retry budget ran out) means it was not queued and will not be reported. A
// write that fails after acceptance is not an error here: the frame stays
// queued and the next operation redials and retransmits it.
func (r *ResilientSession) SendAsync(encoded []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.accept(encoded); err != nil {
		return err
	}
	if r.transmitLocked(r.n) != nil {
		r.dropConnLocked()
	}
	return nil
}

// Drain retransmits anything unanswered and consumes every outstanding
// ack. Its error is server.ErrServerDown when the session gave up, else, on
// a session without an observer, the first failure since the last Drain.
func (r *ResilientSession) Drain() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.opLocked(0)
	if err == nil {
		err, r.ackErr = r.ackErr, nil
	}
	return err
}

// Close drains the live connection (without redialing) and tears it down.
// An error means envelopes were still unanswered. After Close every
// operation fails with an error wrapping net.ErrClosed and dials nothing;
// a second Close is a no-op.
func (r *ResilientSession) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var err error
	if r.conn != nil {
		err = r.transmitLocked(0)
		if cerr := r.conn.nc.Close(); err == nil {
			err = cerr
		}
		r.conn = nil
	}
	if r.n > 0 && err == nil {
		err = fmt.Errorf("netsrv: session closed with %d envelopes unanswered", r.n)
	}
	return err
}
