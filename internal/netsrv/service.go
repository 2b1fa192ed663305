package netsrv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// MaxEnvelopeBytes caps a single envelope's declared payload length. The
// largest legal data frame (MaxFrameRecords records plus the vSF1 header)
// is ~40 MiB; 64 MiB leaves headroom without letting a hostile length
// prefix allocate the machine away.
const MaxEnvelopeBytes = 64 << 20

// Config shapes a Service. The zero value is usable: defaults fill in a
// tenant factory of server.DefaultShards shards and a cap of 8 connections.
type Config struct {
	// MaxWorkers caps the connections served at once, one goroutine each.
	// A connection arriving at the cap is shed: it gets an explicit vSE1
	// busy reply with RetryAfterMs and is closed — never silently dropped
	// or queued. Default 8.
	MaxWorkers int

	// MaxRuns caps concurrent runs (tenants); 0 means unlimited.
	MaxRuns int

	// MaxRunSessions caps concurrent sessions per run; 0 means unlimited.
	MaxRunSessions int

	// RetryAfterMs is the backoff hint stamped into vSE1 refusals.
	// Default 50.
	RetryAfterMs uint32

	// IdleSession, when positive, is the dead-peer reaper: an admitted
	// session that does not complete an envelope (data frame or
	// heartbeat) within this window is closed and counted in
	// SessionsReaped. Slow-loris senders trip it too — the window bounds
	// the whole envelope, not the gap between bytes. 0 disables.
	IdleSession time.Duration

	// Shards is the shard count the default tenant factory passes to
	// server.NewSharded. 0 or less selects server.DefaultShards.
	Shards int

	// clock times every deadline the service arms (helloTimeout,
	// writeTimeout, IdleSession); nil is the wall clock.
	clock clock

	// NewServer, when set, builds the analysis server for a new run ID —
	// the hook through which tests attach durability or obs to specific
	// tenants, and through which the facade hands the service its own
	// pre-built server. When nil, tenants get server.NewSharded(Shards).
	NewServer func(runID string) *server.Server
}

func (c *Config) fillDefaults() {
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 8
	}
	if c.RetryAfterMs == 0 {
		c.RetryAfterMs = 50
	}
	c.clock = orWall(c.clock)
}

// Stats is a point-in-time snapshot of service counters. Every accepted
// connection ends either admitted as a session or refused in exactly one of
// Shed and the Refused* buckets, so once no connection awaits its hello,
// Accepted == Sessions + Shed + sum(Refused*) — the "never a silent drop"
// ledger. Its JSON form is the run.net block of /status.
type Stats struct {
	Accepted         int64 `json:"accepted"`          // connections the listener accepted
	Shed             int64 `json:"shed"`              // refused with vSE1 busy (MaxWorkers connections already served)
	RefusedSessions  int64 `json:"refused_sessions"`  // refused: per-run session cap
	RefusedRuns      int64 `json:"refused_runs"`      // refused: run (tenant) cap
	RefusedBadHello  int64 `json:"refused_badhello"`  // refused: malformed/unsupported hello
	RefusedShutdown  int64 `json:"refused_shutdown"`  // refused: service closing
	Sessions         int64 `json:"sessions"`          // sessions ever admitted
	SessionsOpen     int64 `json:"sessions_open"`     // sessions currently streaming
	Runs             int64 `json:"runs"`              // live tenants
	Workers          int64 `json:"workers"`           // connections being served now
	PeakWorkers      int64 `json:"peak_workers"`      // high-water Workers
	FramesIn         int64 `json:"frames_in"`         // data envelopes delivered to tenant servers
	FramesRejected   int64 `json:"frames_rejected"`   // data envelopes acked with frameAckReject
	FramesDown       int64 `json:"frames_down"`       // data envelopes acked with frameAckDown
	SessionsReaped   int64 `json:"sessions_reaped"`   // sessions closed by the dead-peer defense (idle reaper or ack-write timeout)
	CorruptEnvelopes int64 `json:"corrupt_envelopes"` // connections killed by an envelope CRC mismatch
}

type tenant struct {
	srv      *server.Server
	sessions int
}

// Service is the networked multi-tenant analysis server: one TCP listener
// multiplexing many runs, each run owning its own sharded server (and
// whatever durability/snapshot machinery the tenant factory attached).
type Service struct {
	cfg Config
	ln  net.Listener

	acceptDone chan struct{}
	wg         sync.WaitGroup // one per accepted connection: its handler or its refusal

	mu sync.Mutex
	// closed is set under mu, so admission and Close exclude each other;
	// the hello-failure path reads it without the lock.
	closed  atomic.Bool
	runs    map[string]*tenant
	conns   map[net.Conn]bool // connections being served; true once admitted as a session
	workers int
	peak    int64

	accepted        atomic.Int64
	shed            atomic.Int64
	refusedSessions atomic.Int64
	refusedRuns     atomic.Int64
	refusedBadHello atomic.Int64
	refusedShutdown atomic.Int64
	sessions        atomic.Int64
	sessionsOpen    atomic.Int64
	framesIn        atomic.Int64
	framesRejected  atomic.Int64
	framesDown      atomic.Int64
	sessionsReaped  atomic.Int64
	corruptEnv      atomic.Int64
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves it.
func Listen(addr string, cfg Config) (*Service, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsrv: listen %s: %w", addr, err)
	}
	return serve(ln, cfg), nil
}

// serve starts the accept loop on ln and returns the running service. It and
// connect below are the package's one contact with the socket API, and
// serve is the seam tests hand a listener that injects wire faults.
func serve(ln net.Listener, cfg Config) *Service {
	cfg.fillDefaults()
	s := &Service{
		cfg:        cfg,
		ln:         ln,
		acceptDone: make(chan struct{}),
		runs:       make(map[string]*tenant),
		conns:      make(map[net.Conn]bool),
	}
	go s.acceptLoop()
	return s
}

// connect dials addr and runs the vSS1 hello/ack exchange for h. A vSE1
// refusal comes back as a *Refuse error — errors.As(err, &Refuse{}) exposes
// the code and the retry-after hint. The dial and the exchange share one
// dialTimeout deadline. Every handshake-failure path closes the TCP
// connection exactly once, here.
func connect(addr string, h Hello, clk clock) (_ *clientConn, err error) {
	dl := clk.deadline(dialTimeout)
	nc, err := (&net.Dialer{Deadline: dl}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = nc.Close() //vs:discard the handshake's error is the one to report
		}
	}()
	c := &clientConn{
		nc:  nc,
		r:   bufio.NewReaderSize(nc, 64<<10),
		w:   bufio.NewWriterSize(nc, 64<<10),
		clk: clk,
	}
	arm(nc.SetDeadline, dl)
	if err := writeEnvelope(c.w, AppendHello(nil, h)); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	payload, _, err := readEnvelope(c.r, nil, refuseSize+sessionAckSize)
	if err != nil {
		return nil, fmt.Errorf("netsrv: handshake read: %w", err)
	}
	if len(payload) == refuseSize {
		if ref, perr := ParseRefuse(payload); perr == nil {
			return nil, &ref
		}
	}
	if c.ack, err = ParseSessionAck(payload); err != nil {
		return nil, err
	}
	// Steady state runs on per-operation deadlines (armRead/armWrite),
	// not the handshake deadline; clear it so a stale one cannot fire.
	arm(nc.SetDeadline, time.Time{})
	return c, nil
}

// Addr is the listener's bound address (useful with ":0").
func (s *Service) Addr() net.Addr { return s.ln.Addr() }

// SetObs registers the service's counters in an observability registry as
// functions of Stats, read once per scrape, so they surface in /metrics next
// to the server's own and always agree with /status.
func (s *Service) SetObs(o *obs.Obs) {
	src := obs.NewSource(o.Registry(), s.Stats)
	src.Counter("net_accepted_total", func(st Stats) int64 { return st.Accepted })
	src.Counter("net_shed_total", func(st Stats) int64 { return st.Shed })
	src.Counter("net_refused_total", func(st Stats) int64 {
		return st.RefusedSessions + st.RefusedRuns + st.RefusedBadHello + st.RefusedShutdown
	})
	src.Counter("net_frames_total", func(st Stats) int64 { return st.FramesIn })
	src.Counter("net_sessions_reaped_total", func(st Stats) int64 { return st.SessionsReaped })
	src.Gauge("net_sessions_open", func(st Stats) int64 { return st.SessionsOpen })
	src.Gauge("net_runs", func(st Stats) int64 { return st.Runs })
	src.Gauge("net_workers", func(st Stats) int64 { return st.Workers })
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	workers := int64(s.workers)
	peak := s.peak
	runs := int64(len(s.runs))
	s.mu.Unlock()
	return Stats{
		Accepted:         s.accepted.Load(),
		Shed:             s.shed.Load(),
		RefusedSessions:  s.refusedSessions.Load(),
		RefusedRuns:      s.refusedRuns.Load(),
		RefusedBadHello:  s.refusedBadHello.Load(),
		RefusedShutdown:  s.refusedShutdown.Load(),
		Sessions:         s.sessions.Load(),
		SessionsOpen:     s.sessionsOpen.Load(),
		Runs:             runs,
		Workers:          workers,
		PeakWorkers:      peak,
		FramesIn:         s.framesIn.Load(),
		FramesRejected:   s.framesRejected.Load(),
		FramesDown:       s.framesDown.Load(),
		SessionsReaped:   s.sessionsReaped.Load(),
		CorruptEnvelopes: s.corruptEnv.Load(),
	}
}

// Tenant returns the analysis server owned by runID, or nil if that run
// has never opened a session.
func (s *Service) Tenant(runID string) *server.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.runs[runID]; t != nil {
		return t.srv
	}
	return nil
}

// RunIDs lists live tenants, sorted.
func (s *Service) RunIDs() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.runs))
	for id := range s.runs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Close stops the listener and reaches every connection it accepted: an
// admitted session's connection is closed, and one still waiting for its
// hello — or accepted as the listener closed — is refused with vSE1
// shutdown. It returns once every connection's goroutine has exited.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed.Swap(true) {
		s.mu.Unlock()
		return nil
	}
	for c, admitted := range s.conns {
		if admitted {
			c.Close() // the handler's next read fails and it exits
		} else {
			// The handler's hello read fails and it refuses with vSE1
			// shutdown; this fails only once the handler has closed c itself.
			arm(c.SetReadDeadline, s.cfg.clock.deadline(0))
		}
	}
	s.mu.Unlock()
	err := s.ln.Close()
	// Every wg.Add happens in the accept loop, so it must exit before Wait.
	<-s.acceptDone
	s.wg.Wait()
	return err
}

// acceptLoop admits each connection in one critical section that excludes
// Close: refused while closing, shed at the MaxWorkers cap, else registered
// and handed its own goroutine. Refusals are written off the loop so a slow
// refused peer cannot stall admission.
func (s *Service) acceptLoop() {
	defer close(s.acceptDone)
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.accepted.Add(1)
		var code uint16
		s.mu.Lock()
		switch {
		case s.closed.Load():
			code = RefuseShutdown
		case s.workers >= s.cfg.MaxWorkers:
			code = RefuseBusy
		default:
			// Armed before Close can see c, so it never overwrites Close's
			// expiry.
			arm(c.SetReadDeadline, s.cfg.clock.deadline(helloTimeout))
			s.conns[c] = false
			s.workers++
			s.peak = max(s.peak, int64(s.workers))
		}
		s.wg.Add(1)
		s.mu.Unlock()
		if code == 0 {
			go s.handleConn(c)
			continue
		}
		go func() {
			defer s.wg.Done()
			s.refuse(c, code)
		}()
	}
}

// refuse books c in the Stats bucket for code, then sends the vSE1 and
// closes c.
func (s *Service) refuse(c net.Conn, code uint16) {
	defer c.Close()
	counter := &s.refusedShutdown
	switch code {
	case RefuseBusy:
		counter = &s.shed
	case RefuseRunSessions:
		counter = &s.refusedSessions
	case RefuseRuns:
		counter = &s.refusedRuns
	case RefuseBadHello:
		counter = &s.refusedBadHello
	}
	counter.Add(1)
	// Best effort: a failed flush costs the peer only this courtesy reply;
	// the count above and the close are the guarantee.
	arm(c.SetWriteDeadline, s.cfg.clock.deadline(refuseTimeout))
	w := bufio.NewWriter(c)
	if writeEnvelope(w, AppendRefuse(nil, Refuse{Version: ProtocolVersion, Code: code, RetryAfterMs: s.cfg.RetryAfterMs})) == nil {
		_ = w.Flush() //vs:discard a courtesy reply; the count and the close are the guarantee
	}
}

// admit applies tenancy admission control for a parsed hello, and refuses
// every hello once Close has begun. It returns the tenant (created on first
// contact) or a refusal code, and marks c admitted so that Close closes it.
func (s *Service) admit(c net.Conn, h Hello) (*tenant, uint16, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, RefuseShutdown, false
	}
	t, existed := s.runs[h.RunID]
	if !existed {
		if s.cfg.MaxRuns > 0 && len(s.runs) >= s.cfg.MaxRuns {
			return nil, RefuseRuns, false
		}
		var srv *server.Server
		if s.cfg.NewServer != nil {
			srv = s.cfg.NewServer(h.RunID)
		} else {
			srv = server.NewSharded(s.cfg.Shards)
		}
		t = &tenant{srv: srv}
		s.runs[h.RunID] = t
	}
	if s.cfg.MaxRunSessions > 0 && t.sessions >= s.cfg.MaxRunSessions {
		return nil, RefuseRunSessions, false
	}
	t.sessions++
	s.conns[c] = true
	return t, 0, existed
}

// handleConn serves one accepted connection on its own goroutine: hello,
// admission, then the frame/ack loop until the peer hangs up or the
// service closes.
func (s *Service) handleConn(c net.Conn) {
	var h Hello
	defer func() {
		c.Close() // a refusal has closed it already; closing twice is harmless
		s.mu.Lock()
		if s.conns[c] { // admitted: free its slot under the run's session cap
			s.runs[h.RunID].sessions--
		}
		delete(s.conns, c)
		s.workers--
		s.mu.Unlock()
		s.wg.Done()
	}()
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)

	payload, _, err := readEnvelope(r, nil, helloHeaderSize+MaxRunIDLen)
	if err != nil && s.closed.Load() {
		s.refuse(c, RefuseShutdown) // Close expired the hello deadline to reach c
		return
	}
	// A failed read leaves payload nil, which ParseHello refuses too.
	if h, err = ParseHello(payload); err != nil {
		s.refuse(c, RefuseBadHello)
		return
	}
	arm(c.SetReadDeadline, time.Time{})

	t, code, existed := s.admit(c, h)
	if t == nil {
		s.refuse(c, code)
		return
	}

	s.sessions.Add(1)
	s.sessionsOpen.Add(1)
	defer s.sessionsOpen.Add(-1)

	ack := SessionAck{Version: ProtocolVersion, LSN: t.srv.DurabilityStats().LSN}
	if existed {
		ack.Flags |= AckFlagResumed
	}
	s.armWrite(c)
	if err := writeEnvelope(w, AppendSessionAck(nil, ack)); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		s.countWriteTimeout(err)
		return
	}

	// Frame/ack loop. Acks are written in order and flushed once the read
	// side has no buffered input — pipelined senders get batched acks,
	// synchronous senders get an immediate one. A byte threshold also
	// forces the flush so a sender that never lets the read buffer drain
	// still sees acks early enough to keep its pipeline window open
	// (otherwise the two sides fall into half-duplex lock-step).
	//
	// Two dead-peer defenses guard the loop. The read side is the idle
	// reaper: with IdleSession set, each envelope — heartbeats included —
	// must complete within the window, so an idle peer, a half-open
	// connection, or a slow-loris byte-dribbler all get reaped instead of
	// pinning this worker. The write side is the ack deadline inside
	// writeAck. An envelope CRC mismatch means the byte stream itself is
	// corrupt: kill the connection and let reconnect + resume-LSN
	// redeliver (a per-frame reject would desynchronize frame/ack order).
	var buf []byte
	ackScratch := []byte{0}
	for {
		if s.cfg.IdleSession > 0 {
			arm(c.SetReadDeadline, s.cfg.clock.deadline(s.cfg.IdleSession))
		}
		payload, hdr, err := readEnvelope(r, buf, MaxEnvelopeBytes)
		if errors.Is(err, ErrEnvelopeTooLarge) {
			if derr := drainEnvelope(r, hdr); derr != nil {
				if errors.Is(derr, ErrEnvelopeCorrupt) {
					s.corruptEnv.Add(1)
				}
				return
			}
			s.framesRejected.Add(1)
			ackScratch[0] = frameAckReject
			if s.writeAck(c, w, r, ackScratch) != nil {
				return
			}
			continue
		}
		if err != nil {
			if errors.Is(err, ErrEnvelopeCorrupt) {
				s.corruptEnv.Add(1)
			} else if s.cfg.IdleSession > 0 && isTimeout(err) {
				s.sessionsReaped.Add(1)
			}
			return
		}
		buf = payload[:0]
		status := byte(frameAckOK)
		switch rerr := t.srv.Receive(payload); {
		case rerr == nil:
			s.framesIn.Add(1)
		case errors.Is(rerr, server.ErrServerDown):
			s.framesDown.Add(1)
			status = frameAckDown
		default:
			s.framesRejected.Add(1)
			status = frameAckReject
		}
		ackScratch[0] = status
		if s.writeAck(c, w, r, ackScratch) != nil {
			return
		}
	}
}

// ackFlushBytes is the buffered-ack threshold that forces a flush even
// while more frames are still queued on the read side. Liveness does not
// depend on it — the reader-dry check in writeAck flushes whenever the
// inbound stream pauses, whatever the client's window — so the threshold
// is purely a syscall batching knob for the firehose case.
const ackFlushBytes = 1024

// armWrite arms writeTimeout on c.
func (s *Service) armWrite(c net.Conn) {
	arm(c.SetWriteDeadline, s.cfg.clock.deadline(writeTimeout))
}

// countWriteTimeout books a flush failure as a reaped session when it was
// the write deadline firing — a peer that stopped reading its acks.
func (s *Service) countWriteTimeout(err error) {
	if err != nil && isTimeout(err) {
		s.sessionsReaped.Add(1)
	}
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// writeAck queues a 1-byte ack envelope and flushes if the reader is dry
// or enough acks have accumulated. Every flush runs under the write
// deadline: a stalled reader trips it instead of pinning the worker once
// the socket buffers fill.
func (s *Service) writeAck(c net.Conn, w *bufio.Writer, r *bufio.Reader, status []byte) error {
	if err := writeEnvelope(w, status); err != nil {
		return err
	}
	if r.Buffered() == 0 || w.Buffered() >= ackFlushBytes {
		s.armWrite(c)
		err := w.Flush()
		s.countWriteTimeout(err)
		return err
	}
	return nil
}
