package netsrv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/server"
)

// ErrFrameRejected is what a frameAckReject status surfaces as on the
// client: the server parsed the envelope but refused the frame (bad CRC,
// bad header, oversized envelope).
var ErrFrameRejected = errors.New("netsrv: server rejected frame")

// DialConfig tunes Dial and the session it produces.
type DialConfig struct {
	// Timeout bounds the TCP connect plus the hello/ack exchange.
	// Default 5s.
	Timeout time.Duration

	// Window is the pipelining depth for SendAsync: how many frames may
	// be in flight before the sender must consume an ack. Every connection
	// opens at one and doubles up to it (see Session). Default 256.
	Window int

	// OpTimeout is the per-operation I/O deadline after the handshake:
	// every socket write and every blocking ack read must make progress
	// within this window, so a dead or stalled peer surfaces as a timeout
	// error instead of pinning the sender forever. It must be generous
	// enough to cover one full frame write plus a server round trip.
	// Default 10s; negative disables deadlines entirely.
	OpTimeout time.Duration
}

func (c *DialConfig) fillDefaults() {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 10 * time.Second
	}
}

// Session is one client-side connection to a Service, speaking the
// envelope protocol for a single run. Its synchronous Receive implements
// transport.Medium, so a fault-injecting transport.Link can proxy straight
// onto the wire; SendAsync/Drain is the pipelined path for bulk senders
// that cannot afford one round trip per frame.
//
// Session is safe for concurrent use: a transport.Link shared by many rank
// goroutines funnels all of their delivery attempts into one Session, so
// the frame/ack exchange serializes under an internal lock (matching the
// in-process server, whose Receive is also internally synchronized).
//
// The pipeline window opens the way a congestion window does: a fresh
// connection may have one frame unanswered, and the allowance doubles each
// time a whole window has been acknowledged, up to DialConfig.Window. So a
// connection delivers an ack before a second frame is risked on it — a wire
// that dies sooner than a window's bytes still makes progress, one
// reconnect at a time — and reaches full depth nine round trips later.
//
// A Session distinguishes two failure classes. Protocol-level statuses
// (ErrFrameRejected, server.ErrServerDown) describe one frame's fate on a
// healthy connection. Transport-level failures (write errors, ack-read
// errors, envelope corruption, deadline expiry) poison the session: the
// first one is remembered and every later call fails fast with it instead
// of writing into a broken pipe — Broken exposes it so a resilient
// wrapper can decide to redial.
type Session struct {
	mu        sync.Mutex
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	ack       SessionAck
	window    int       // frames that may be unanswered now: 1 after the dial, doubling
	maxWindow int       // DialConfig.Window, where the doubling stops
	acked     int       // acks since window last grew
	flushed   time.Time // last flush SendAsync forced on age (flushLag)
	opTimeout time.Duration
	readDl    time.Time // last armed read deadline (freshness gate)
	writeDl   time.Time // last armed write deadline (freshness gate)
	inflight  int
	pendErr   error // first non-OK ack status seen by the async path
	connErr   error // sticky transport failure; poisons all later calls
	ackBuf    []byte
	closed    atomic.Bool

	// ackHook, when set (by ResilientSession, same package), observes
	// every ack status in arrival order before it is mapped to an error.
	// It runs on the calling goroutine while the session lock is held.
	ackHook func(status byte)
}

// Dial connects to a Service and performs the vSS1 handshake for h
// (h.Version defaults to ProtocolVersion). A vSE1 refusal comes back as a
// *Refuse error — errors.As(err, &Refuse{}) exposes the code and the
// retry-after hint. Every handshake-failure path closes the TCP
// connection exactly once, here.
func Dial(addr string, h Hello, cfg DialConfig) (*Session, error) {
	cfg.fillDefaults()
	if h.Version == 0 {
		h.Version = ProtocolVersion
	}
	if len(h.RunID) == 0 || len(h.RunID) > MaxRunIDLen {
		return nil, fmt.Errorf("netsrv: run ID length %d out of [1,%d]", len(h.RunID), MaxRunIDLen)
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	s, err := handshake(conn, h, cfg)
	if err != nil {
		_ = conn.Close() // the single close site for failed handshakes
		return nil, err
	}
	return s, nil
}

// handshake runs the hello/ack exchange on an open connection. It never
// closes conn — Dial owns that on failure.
func handshake(conn net.Conn, h Hello, cfg DialConfig) (*Session, error) {
	s := &Session{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, 64<<10),
		w:         bufio.NewWriterSize(conn, 64<<10),
		window:    1,
		maxWindow: cfg.Window,
		opTimeout: cfg.OpTimeout,
	}
	_ = conn.SetDeadline(time.Now().Add(cfg.Timeout))
	if err := writeEnvelope(s.w, AppendHello(nil, h)); err != nil {
		return nil, err
	}
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	payload, _, err := readEnvelope(s.r, nil, refuseSize+sessionAckSize)
	if err != nil {
		return nil, fmt.Errorf("netsrv: handshake read: %w", err)
	}
	if len(payload) == refuseSize {
		if ref, perr := ParseRefuse(payload); perr == nil {
			return nil, &ref
		}
	}
	ack, err := ParseSessionAck(payload)
	if err != nil {
		return nil, err
	}
	// Steady state runs on per-operation deadlines (armRead/armWrite),
	// not the handshake deadline; clear it so a stale one cannot fire.
	_ = conn.SetDeadline(time.Time{})
	s.ack = ack
	return s, nil
}

// Ack returns the server's session ack: the run's durable LSN and whether
// the run already existed.
func (s *Session) Ack() SessionAck { return s.ack }

// Broken returns the sticky transport error that poisoned the session, or
// nil while the connection is still believed healthy. Protocol-level
// per-frame statuses (reject/down) never poison.
func (s *Session) Broken() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connErr
}

// fail records the first transport-level failure and returns it; later
// calls keep failing with the original cause.
func (s *Session) fail(err error) error {
	if s.connErr == nil {
		s.connErr = err
	}
	return err
}

// armRead and armWrite set the per-operation socket deadlines — the
// dead-peer defense. Each blocking read and each operation's writes must
// make progress within opTimeout. Re-arming is freshness-gated: the
// deadline is pushed out only once it has decayed below opTimeout/2, so
// the effective bound on any single blocking call stays within
// [opTimeout/2, opTimeout] while the hot path skips almost all of the
// runtime-timer churn a per-call SetDeadline would cost.
func (s *Session) armRead() {
	if s.opTimeout <= 0 {
		return
	}
	now := time.Now()
	if s.readDl.Sub(now) > s.opTimeout/2 {
		return
	}
	s.readDl = now.Add(s.opTimeout)
	_ = s.conn.SetReadDeadline(s.readDl)
}

func (s *Session) armWrite() {
	if s.opTimeout <= 0 {
		return
	}
	now := time.Now()
	if s.writeDl.Sub(now) > s.opTimeout/2 {
		return
	}
	s.writeDl = now.Add(s.opTimeout)
	_ = s.conn.SetWriteDeadline(s.writeDl)
}

// Receive sends one encoded vS* frame and waits for its ack — the
// transport.Medium contract, one round trip per frame. Ack statuses map
// onto the same errors the in-process server returns, so everything built
// on those errors (retry classification, ErrServerDown backpressure
// packing) works identically over the wire.
func (s *Session) Receive(encoded []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connErr != nil {
		return s.connErr
	}
	if err := s.drainLocked(); err != nil {
		return err
	}
	s.armWrite()
	if err := writeEnvelope(s.w, encoded); err != nil {
		return s.fail(err)
	}
	if err := s.w.Flush(); err != nil {
		return s.fail(err)
	}
	return s.readAck()
}

// SendAsync queues one encoded frame without waiting for its ack, reading
// an old ack only when the pipeline window is full. Protocol-level ack
// failures surface on a later SendAsync or on Drain; a transport-level
// write failure poisons the session and is returned immediately, so
// callers fail fast instead of pumping frames into a broken pipe.
func (s *Session) SendAsync(encoded []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connErr != nil {
		return s.connErr
	}
	// Consume whatever acks already sit in the local read buffer — the
	// server batches them, and draining here keeps the window open so the
	// writer flushes on its own buffer boundary instead of once per frame.
	s.drainBuffered()
	if s.inflight >= s.window {
		// A window still opening is acknowledged whole before the next,
		// doubled one is risked; at full depth it slides one ack at a time.
		keep := 0
		if s.window == s.maxWindow {
			keep = s.window - 1
		}
		if err := s.awaitLocked(keep); err != nil {
			return err
		}
		s.drainBuffered()
	}
	s.armWrite()
	if err := writeEnvelope(s.w, encoded); err != nil {
		return s.fail(err)
	}
	s.inflight++
	// No frame waits in the write buffer longer than flushLag while frames
	// keep coming: a trickle goes out frame by frame, as promptly as
	// Receive sends it; a firehose fills the buffer before this fires.
	if now := time.Now(); now.Sub(s.flushed) > flushLag {
		s.flushed = now
		if err := s.w.Flush(); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// flushLag is how stale SendAsync lets the write buffer get: well under a
// report interval, well over the time a saturated sender takes to fill it.
const flushLag = 2 * time.Millisecond

// Drain flushes queued frames and consumes every outstanding ack,
// returning the first failure the pipeline saw.
func (s *Session) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connErr != nil {
		return s.connErr
	}
	return s.drainLocked()
}

func (s *Session) drainLocked() error {
	if err := s.awaitLocked(0); err != nil {
		return err
	}
	err := s.pendErr
	s.pendErr = nil
	return err
}

// await is awaitLocked for ResilientSession, which hears statuses through
// ackHook and wants only the transport's verdict.
func (s *Session) await(keep int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connErr != nil {
		return s.connErr
	}
	return s.awaitLocked(keep)
}

// awaitLocked flushes queued frames and consumes acks until at most keep
// frames are unanswered. Per-frame statuses collect in pendErr (and pass
// through ackHook); the returned error is a transport failure.
func (s *Session) awaitLocked(keep int) error {
	if s.inflight > keep {
		s.armWrite()
		if err := s.w.Flush(); err != nil {
			return s.fail(err)
		}
	}
	for s.inflight > keep {
		if err := s.readAck(); err != nil {
			if s.connErr != nil {
				return err // transport broken: no more acks are coming
			}
			if s.pendErr == nil {
				s.pendErr = err
			}
		}
	}
	return nil
}

// drainBuffered consumes acks that can be read without touching the
// socket: a full ack envelope is envHeaderSize+1 bytes.
func (s *Session) drainBuffered() {
	for s.inflight > 0 && s.connErr == nil && s.r.Buffered() >= envHeaderSize+1 {
		if err := s.readAck(); err != nil && s.connErr == nil && s.pendErr == nil {
			s.pendErr = err
		}
	}
}

// readAck consumes one 1-byte ack envelope and maps it to an error.
// Anything other than a clean, known status is a stream-integrity failure
// and poisons the session.
func (s *Session) readAck() error {
	if s.connErr != nil {
		return s.connErr
	}
	if s.inflight > 0 {
		s.inflight--
	}
	s.armRead()
	payload, _, err := readEnvelope(s.r, s.ackBuf, 1)
	if err != nil {
		return s.fail(fmt.Errorf("netsrv: ack read: %w", err))
	}
	s.ackBuf = payload[:0]
	if len(payload) != 1 {
		return s.fail(fmt.Errorf("netsrv: ack envelope has %d bytes, want 1", len(payload)))
	}
	status := payload[0]
	if status > frameAckDown {
		return s.fail(fmt.Errorf("netsrv: unknown ack status %d", status))
	}
	if s.acked++; s.acked >= s.window && s.window < s.maxWindow {
		s.window, s.acked = min(2*s.window, s.maxWindow), 0
	}
	if s.ackHook != nil {
		s.ackHook(status)
	}
	switch status {
	case frameAckDown:
		return server.ErrServerDown
	case frameAckReject:
		return ErrFrameRejected
	default:
		return nil
	}
}

// Close tears down the connection. It is idempotent and safe to call
// concurrently with a blocked operation (the close interrupts it).
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return s.conn.Close()
}
