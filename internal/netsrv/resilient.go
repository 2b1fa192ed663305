package netsrv

import (
	"errors"
	"math/rand"
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
	// later outage. Default 10s.
	MaxElapsed time.Duration

	// BackoffBase is the first sleep after a retryable failure with no
	// server hint; it doubles per attempt up to BackoffMax. Defaults
	// 5ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed drives the backoff jitter deterministically.
	Seed int64
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxElapsed <= 0 {
		p.MaxElapsed = 10 * time.Second
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 5 * time.Millisecond
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = 500 * time.Millisecond
		if p.BackoffMax < p.BackoffBase {
			p.BackoffMax = p.BackoffBase
		}
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
	cfg  DialConfig
	p    RetryPolicy
	rng  *rand.Rand
}

func newDialer(addr string, cfg DialConfig, p RetryPolicy) *dialer {
	return &dialer{addr: addr, cfg: cfg, p: p, rng: rand.New(rand.NewSource(p.Seed ^ 0x72656469616c))}
}

// dial has two regimes. Before the service has ever accepted this hello
// only transient refusals are retried: an unreachable address or a
// malformed hello is a configuration error and fails fast. Once it has,
// the address and the hello are known good, so a network error is an
// outage and is retried under the budget too.
func (d *dialer) dial(h Hello, deadline time.Time, accepted bool, st *retryStats) (*Session, error) {
	backoff := d.p.BackoffBase
	for {
		st.Attempts++
		s, err := Dial(d.addr, h, d.cfg)
		if err == nil {
			return s, nil
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
		if backoff *= 2; backoff > d.p.BackoffMax {
			backoff = d.p.BackoffMax
		}
		if time.Now().Add(wait).After(deadline) {
			return nil, err
		}
		st.BackoffNs += int64(wait)
		time.Sleep(wait)
	}
}

// ReconnectConfig shapes a ResilientSession.
type ReconnectConfig struct {
	// Addr and Hello are what every (re)dial presents; the hello's
	// ResumeLSN is overwritten on each redial with the client's current
	// durable position.
	Addr  string
	Hello Hello

	// Dial tunes each underlying connection (timeouts, window).
	Dial DialConfig

	// Retry is the budget of the first dial (transient vSE1 refusals only)
	// and of each later outage: once a live connection breaks, the
	// session redials under this policy, and only when the budget is
	// exhausted does the failure surface (as server.ErrServerDown, so
	// transport.Link parks frames instead of dropping them).
	Retry RetryPolicy
}

// ResilientStats snapshots a ResilientSession's ledger.
type ResilientStats struct {
	Reconnects   int64  // successful re-handshakes after a live conn broke
	DialAttempts int64  // total dials, including the first and failed ones
	Refusals     int64  // vSE1 refusals honored
	BackoffNs    int64  // total time slept in dial backoff
	Resumed      int64  // queued envelopes skipped because the resume LSN proved them processed
	Outages      int64  // operations that exhausted the retry budget
	LSN          uint64 // client's belief of the tenant's durable LSN
}

// ResilientSession is a transport.Medium that survives the network: it
// wraps Dial, auto-redials on connection loss with exponential backoff +
// jitter, honors vSE1 retry-after hints, and resumes delivery at the
// durable LSN carried by the vSA1 session ack so a reconnect neither
// loses nor duplicates journaled envelopes.
//
// The resume algorithm rides the dense-LSN contract of the durable
// server: every delivered envelope (frame ingest, dup, reject, heartbeat)
// journals exactly one outcome, so the tenant's LSN counts delivered
// envelopes. The session keeps copies of sent-but-unanswered envelopes in
// order; on reconnect, the fresh session ack's LSN minus the client's
// last-acked position says exactly how many of those the server processed
// before the wire died — that prefix is dropped (already journaled), the
// rest is retransmitted in order. Against a non-durable tenant the ack
// LSN is always 0, so everything unanswered is retransmitted and the
// server's sequence dedup absorbs the overlap: at-least-once there,
// exactly-once when durability is on.
//
// When an outage outlives the retry budget, operations fail with
// server.ErrServerDown — the same error a crashed tenant returns — so the
// transport.Link machinery parks frames and packed-flushes them when the
// world comes back.
type ResilientSession struct {
	mu   sync.Mutex
	cfg  ReconnectConfig
	d    *dialer
	sess *Session

	lsn     uint64   // belief: tenant's durable LSN after all answered envelopes
	pend    [][]byte // sent-but-unanswered envelope copies, oldest first
	sent    int      // prefix of pend transmitted on the live conn
	ackErr  error    // first non-OK status since the last report
	ever    bool     // a connection has succeeded at least once
	lastAck SessionAck

	free  [][]byte // recycled pend copies (see push)
	stats ResilientStats

	reconnects *obs.Counter
	attempts   *obs.Counter
	backoffNs  *obs.Histogram
}

// DialResilient dials the first connection eagerly — network errors and
// permanent refusals surface immediately, a momentarily full service's
// retry-after hints are honored within the budget — and returns the
// self-healing session.
func DialResilient(cfg ReconnectConfig) (*ResilientSession, error) {
	cfg.Dial.fillDefaults()
	cfg.Retry.fillDefaults()
	r := &ResilientSession{cfg: cfg, d: newDialer(cfg.Addr, cfg.Dial, cfg.Retry)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.redialLocked(time.Now().Add(cfg.Retry.MaxElapsed)); err != nil {
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

// onAck observes every ack in arrival order. It runs on the calling
// goroutine, inside a Session operation, while r.mu is held by that same
// caller — the oldest unanswered envelope is the one being answered.
func (r *ResilientSession) onAck(status byte) {
	if len(r.pend) > 0 {
		head := r.pend[0]
		r.pend = r.pend[1:]
		if len(r.pend) == 0 {
			r.pend = nil // release the backing array
		}
		if r.sent > 0 {
			r.sent--
		}
		// The envelope was fully written before its ack arrived, so its
		// copy can be recycled into the next push.
		if len(r.free) < pendFreeMax {
			r.free = append(r.free, head)
		}
	}
	switch status {
	case frameAckOK:
		r.lsn++
	case frameAckReject:
		r.lsn++ // a reject is journaled too (dense LSN)
		if r.ackErr == nil {
			r.ackErr = ErrFrameRejected
		}
	case frameAckDown:
		// Not journaled: the tenant was between Crash and Recover.
		if r.ackErr == nil {
			r.ackErr = server.ErrServerDown
		}
	}
}

// redialLocked establishes a fresh connection within the deadline and
// reconciles the unanswered queue against the server's durable position.
func (r *ResilientSession) redialLocked(deadline time.Time) error {
	h := r.cfg.Hello
	h.ResumeLSN = r.lsn
	var st retryStats
	s, err := r.d.dial(h, deadline, r.ever, &st)
	r.stats.DialAttempts += st.Attempts
	r.stats.Refusals += st.Refusals
	r.stats.BackoffNs += st.BackoffNs
	if r.attempts != nil {
		r.attempts.Add(st.Attempts)
	}
	if r.backoffNs != nil && st.BackoffNs > 0 {
		r.backoffNs.ObserveInt(st.BackoffNs)
	}
	if err != nil {
		r.stats.Outages++
		return err
	}
	s.ackHook = r.onAck
	r.sess = s
	r.lastAck = s.Ack()
	if r.ever {
		r.stats.Reconnects++
		if r.reconnects != nil {
			r.reconnects.Inc()
		}
	}
	r.ever = true
	// Reconcile: the ack's LSN is the server's truth. Anything it has
	// journaled beyond our belief must be the oldest unanswered envelopes,
	// delivered in order before the previous wire died — drop them instead
	// of re-sending. A *lower* LSN (crash truncation, or a non-durable
	// tenant's flat 0) means re-send everything unanswered and let
	// sequence dedup absorb any overlap.
	if processed := r.lastAck.LSN - r.lsn; r.lastAck.LSN > r.lsn {
		if processed > uint64(len(r.pend)) {
			processed = uint64(len(r.pend))
		}
		r.pend = r.pend[processed:]
		r.stats.Resumed += int64(processed)
	}
	r.lsn = r.lastAck.LSN
	r.sent = 0
	return nil
}

// dropSessLocked abandons a broken connection.
func (r *ResilientSession) dropSessLocked() {
	if r.sess != nil {
		_ = r.sess.Close()
		r.sess = nil
	}
	r.sent = 0
}

// transmitLocked pushes untransmitted queued envelopes onto the live
// session, optionally draining all outstanding acks. Ack arrivals pop the
// queue via onAck as a side effect of the Session calls.
func (r *ResilientSession) transmitLocked(drain bool) error {
	s := r.sess
	for r.sent < len(r.pend) {
		next := r.pend[r.sent]
		if err := s.SendAsync(next); err != nil {
			return err
		}
		r.sent++
	}
	if drain {
		return s.Drain()
	}
	return nil
}

// opLocked is the self-healing core: keep a connection alive, transmit
// the queue, and on transport failure redial-and-retransmit until the
// per-outage budget is gone. Protocol-level statuses (reject/down) are
// captured by onAck and surfaced; they never trigger a redial.
func (r *ResilientSession) opLocked(drain bool) error {
	// The outage deadline is read lazily: a healthy session never pays
	// for the clock, and the budget spans this operation's redials only.
	var deadline time.Time
	for {
		if r.sess == nil {
			if deadline.IsZero() {
				deadline = time.Now().Add(r.d.p.MaxElapsed)
			}
			if err := r.redialLocked(deadline); err != nil {
				return server.ErrServerDown
			}
		}
		err := r.transmitLocked(drain)
		if err != nil && r.sess.Broken() != nil {
			r.dropSessLocked()
			continue
		}
		e := r.ackErr
		r.ackErr = nil
		return e
	}
}

// pendFreeMax bounds the recycled-buffer stack fed by acked queue
// entries. It must cover a full pipeline window (acks arrive in bursts
// that pop up to Window entries at once) or the steady state degenerates
// to allocating on most pushes.
const pendFreeMax = 320

// push copies one frame into the unanswered queue (the copy is what gets
// retransmitted after a reconnect — the caller may reuse its buffer).
// Acked entries' buffers are recycled to keep the steady-state path to
// one memcpy with no allocation.
func (r *ResilientSession) push(encoded []byte) []byte {
	var cp []byte
	if n := len(r.free); n > 0 && cap(r.free[n-1]) >= len(encoded) {
		cp = append(r.free[n-1][:0], encoded...)
		r.free = r.free[:n-1]
	} else {
		cp = append([]byte(nil), encoded...)
	}
	r.pend = append(r.pend, cp)
	return cp
}

// unpush removes the caller's own entry after a failed synchronous
// operation, so the caller's retry does not double-queue it. The entry is
// the queue tail iff no ack or resume already consumed it.
func (r *ResilientSession) unpush(cp []byte) {
	if n := len(r.pend); n > 0 && len(cp) > 0 {
		tail := r.pend[n-1]
		if len(tail) == len(cp) && &tail[0] == &cp[0] {
			r.pend = r.pend[:n-1]
			if r.sent > n-1 {
				r.sent = n - 1
			}
		}
	}
}

// Receive sends one encoded vS* frame and waits for its ack, redialing
// through connection failures — the transport.Medium contract. The
// outcome is exact: nil or ErrFrameRejected means the envelope was
// delivered and journaled exactly once (possibly proven by the resume
// LSN rather than an explicit ack); server.ErrServerDown means it was
// not delivered and the caller owns the retry — the frame is not left
// queued.
func (r *ResilientSession) Receive(encoded []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ackErr = nil
	cp := r.push(encoded)
	err := r.opLocked(true)
	if err != nil && !errors.Is(err, ErrFrameRejected) {
		r.unpush(cp)
	}
	return err
}

// SendAsync queues one frame on the pipelined path without waiting for
// its ack; protocol-level failures surface on a later call or on Drain.
// Unlike Receive, a reported outage does NOT unqueue the frame: an async
// frame may already be in flight when the error belongs to an older one,
// so abandoning it would corrupt the in-order ledger. The queue is
// retransmitted by the next operation once the server is back.
func (r *ResilientSession) SendAsync(encoded []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.push(encoded)
	return r.opLocked(false)
}

// Drain retransmits anything unanswered and consumes every outstanding
// ack, reporting the first failure the pipeline saw since the last
// report.
func (r *ResilientSession) Drain() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opLocked(true)
}

// Close tears down the live connection (after a best-effort drain) and
// stops reconnecting.
func (r *ResilientSession) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return nil
	}
	_ = r.transmitLocked(true)
	err := r.sess.Close()
	r.sess = nil
	return err
}
