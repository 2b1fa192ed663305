package netsrv

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vsensor/internal/server"
)

// Dead-peer defense suite: every way a peer can go quiet — never saying
// hello, going idle after admission, dribbling heartbeats, or reading
// nothing while acks pile up — must end with the connection reaped and
// the worker freed, never with a goroutine pinned forever.

// TestHelloTimeoutExpires connects and says nothing. The hello deadline
// must fire, no earlier than helloTimeout, the connection must be refused as
// a bad hello, and the refusal must actually reach the silent peer before
// the close.
func TestHelloTimeoutExpires(t *testing.T) {
	clk := fast(50)
	svc := listen(t, Config{clock: clk})

	start := clk.now()
	c, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, _, err := readEnvelope(bufio.NewReader(c), nil, 256)
	if err != nil {
		t.Fatalf("expected a refusal envelope before close, got %v", err)
	}
	ref, err := ParseRefuse(payload)
	if err != nil {
		t.Fatalf("parse refuse: %v", err)
	}
	if ref.Code != RefuseBadHello {
		t.Fatalf("refusal code %d, want RefuseBadHello", ref.Code)
	}
	if waited := clk.now().Sub(start); waited < helloTimeout {
		t.Fatalf("refused after %v of clock time, before the %v hello deadline", waited, helloTimeout)
	}
	if st := svc.Stats(); st.RefusedBadHello != 1 {
		t.Fatalf("RefusedBadHello = %d, want 1: %+v", st.RefusedBadHello, st)
	}
}

// TestIdleReaperFires admits a session and then goes silent. The idle
// reaper must close it within the window and book it in SessionsReaped.
func TestIdleReaperFires(t *testing.T) {
	svc := listen(t, Config{IdleSession: 4 * time.Second, clock: fast(50)})

	s, err := dialOnce(svc.Addr().String(), Hello{RunID: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	waitFor(t, "idle reaper", func() bool {
		return svc.Stats().SessionsReaped >= 1
	})
	waitFor(t, "reaped session to leave the open set", func() bool {
		return svc.Stats().SessionsOpen == 0
	})
	// The reaped client meets a transport error, not a hang, and redials.
	hb := server.AppendHeartbeat(nil, 0, 1_000_000, 5_000_000)
	if err := s.Receive(hb); err != nil {
		t.Fatalf("Receive after the reap = %v, want a redial and delivery", err)
	}
	if st := s.Stats(); st.Reconnects != 1 {
		t.Fatalf("reaped session did not redial exactly once: %+v", st)
	}
}

// TestIdleReaperSparedByHeartbeats keeps a session alive far beyond the
// idle window using nothing but heartbeat frames. Every envelope resets
// the deadline, so liveness traffic is all a healthy-but-quiet rank
// needs; the reaper must never fire.
func TestIdleReaperSparedByHeartbeats(t *testing.T) {
	const idle = 7500 * time.Millisecond
	clk := fast(50)
	svc := listen(t, Config{IdleSession: idle, clock: clk})

	s, err := dialOnce(svc.Addr().String(), Hello{RunID: "hb"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i, end := int64(0), clk.now().Add(4*idle); clk.now().Before(end); i++ {
		hb := server.AppendHeartbeat(nil, 0, i*50_000_000, 5_000_000)
		if err := s.Receive(hb); err != nil {
			t.Fatalf("heartbeat %d failed: %v", i, err)
		}
		clk.sleep(idle / 4)
	}
	if st := svc.Stats(); st.SessionsReaped != 0 || s.Stats().Reconnects != 0 {
		t.Fatalf("reaper fired %d times while heartbeats flowed: %+v, session %+v", st.SessionsReaped, st, s.Stats())
	}
	if svc.Tenant("hb").Heartbeats() == 0 {
		t.Fatal("no heartbeats recorded")
	}
}

// TestAckWriteDeadlineFires pins the write-deadline half of the dead-peer
// defense in isolation: an ack flush toward a peer that never reads (a
// net.Pipe with no reader has zero buffer, the pathological stalled
// reader) must return a timeout once writeTimeout has passed, not before and
// not long after, and be booked as a reaped session — not park the worker in
// Write forever.
func TestAckWriteDeadlineFires(t *testing.T) {
	clk := fast(50)
	svc := &Service{cfg: Config{clock: clk}}
	c, peer := net.Pipe()
	defer c.Close()
	defer peer.Close()

	w := bufio.NewWriter(c)
	r := bufio.NewReader(c)
	start := clk.now()
	err := svc.writeAck(c, w, r, []byte{frameAckOK})
	if err == nil {
		t.Fatal("ack flush to a stalled reader returned nil")
	}
	if !isTimeout(err) {
		t.Fatalf("ack flush returned %v, want a deadline timeout", err)
	}
	if d := clk.now().Sub(start); d < writeTimeout || d > 20*writeTimeout {
		t.Fatalf("flush took %v of clock time, want about writeTimeout (%v)", d, writeTimeout)
	}
	if got := svc.Stats().SessionsReaped; got != 1 {
		t.Fatalf("SessionsReaped = %d, want 1", got)
	}
}

// TestStalledReaderReaped plays the other half of slow-loris over real
// TCP: a client that writes frames but never reads acks. Socket buffers
// are pinched so backpressure reaches the service quickly. Which defense
// trips first is kernel-dependent — the ack backlog can wedge the
// connection's read side before the next armed flush would block — so
// the idle reaper is on too and the assertion is the contract that
// matters: the session is reaped, booked, and the worker freed.
func TestStalledReaderReaped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := serve(pinched{ln}, Config{IdleSession: 4 * writeTimeout, clock: fast(50)})
	defer svc.Close()

	c, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(1)
	}

	w := bufio.NewWriter(c)
	if err := writeEnvelope(w, AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "stall"})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read only the session ack, then stop reading forever.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readEnvelope(bufio.NewReader(c), nil, 64); err != nil {
		t.Fatalf("session ack: %v", err)
	}

	hb := server.AppendHeartbeat(nil, 0, 1_000_000, 5_000_000)
	var wrote atomic.Int64
	go func() {
		for {
			_ = c.SetWriteDeadline(time.Now().Add(time.Second))
			if err := writeEnvelope(w, hb); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
			wrote.Add(1)
		}
	}()

	waitFor(t, "reap of the stalled reader", func() bool {
		return svc.Stats().SessionsReaped >= 1
	})
	waitFor(t, "stalled session to close", func() bool {
		return svc.Stats().SessionsOpen == 0
	})
	if wrote.Load() == 0 {
		t.Fatal("stalled-reader client never delivered a frame")
	}
}

// pinched shrinks the send buffer of every connection it accepts, so that
// deadline behavior is reachable without megabytes of traffic.
type pinched struct{ net.Listener }

func (l pinched) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(1)
	}
	return c, err
}

// TestDialRetryHonorsRetryAfter occupies the single per-run session slot,
// frees it a tenth into the default budget, and expects the resilient
// session's first dial to absorb the vSE1 refusals (sleeping per their
// RetryAfterMs hint) and land the session.
func TestDialRetryHonorsRetryAfter(t *testing.T) {
	clk := fast(10)
	svc := listen(t, Config{MaxRunSessions: 1, RetryAfterMs: 20, clock: clk})

	s1, err := dialOnce(svc.Addr().String(), Hello{RunID: "slot"})
	if err != nil {
		t.Fatal(err)
	}
	const held = time.Second
	go func() {
		clk.sleep(held)
		s1.Close()
	}()

	s2, err := DialResilient(ReconnectConfig{
		Addr: svc.Addr().String(), Hello: Hello{RunID: "slot", Rank: 1},
		Retry: RetryPolicy{Seed: 7},
		clock: clk,
	})
	if err != nil {
		t.Fatalf("first dial never landed: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Refusals == 0 {
		t.Fatalf("slot was held %v but the first dial saw no refusals: %+v", held, st)
	}
	if st.DialAttempts < 2 || st.Reconnects != 0 {
		t.Fatalf("expected retries of the first dial and no reconnect, got %+v", st)
	}

	// Exhausted budget surfaces the last refusal, typed; s2 still holds
	// the slot, so every attempt inside the budget is refused.
	_, err = DialResilient(ReconnectConfig{
		Addr: svc.Addr().String(), Hello: Hello{RunID: "slot", Rank: 3},
		Retry: RetryPolicy{MaxElapsed: held, Seed: 7},
		clock: clk,
	})
	var ref *Refuse
	if !errors.As(err, &ref) || ref.Code != RefuseRunSessions {
		t.Fatalf("exhausted budget returned %v, want *Refuse{RefuseRunSessions}", err)
	}
}

// stubService answers one connection per script step, in order: read the
// hello, then 'a' = accept and drop the connection, 'b' = refuse as a bad
// hello, 's' = accept and ack every envelope until the peer hangs up, 'q' =
// the same for 2*maxWindow envelopes, then swallow one full window of them
// unanswered and hang up. It stands in for a service behind a wire that
// kills connections and flips hello bits, with none of a real socket's
// timing.
func stubService(t *testing.T, script string) (addr string, wait func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer ln.Close()
		for _, step := range script {
			c, err := ln.Accept()
			if err != nil {
				t.Errorf("stub accept: %v", err)
				return
			}
			r, w := bufio.NewReader(c), bufio.NewWriter(c)
			if _, _, err := readEnvelope(r, nil, helloHeaderSize+MaxRunIDLen); err != nil {
				t.Errorf("stub hello read: %v", err)
			}
			reply := AppendSessionAck(nil, SessionAck{Version: ProtocolVersion})
			if step == 'b' {
				reply = AppendRefuse(nil, Refuse{Version: ProtocolVersion, Code: RefuseBadHello, RetryAfterMs: 1})
			}
			_ = writeEnvelope(w, reply)
			_ = w.Flush()
			var buf []byte // reused, so the 's' loop allocates nothing per envelope
			ok := []byte{frameAckOK}
			for n := 0; step == 's' || step == 'q'; n++ {
				payload, _, err := readEnvelope(r, buf, MaxEnvelopeBytes)
				if err != nil {
					break
				}
				buf = payload[:0]
				if step == 'q' && n >= 2*maxWindow {
					if n == 3*maxWindow-1 {
						break
					}
					continue
				}
				_ = writeEnvelope(w, ok)
				_ = w.Flush()
			}
			c.Close()
		}
	}()
	return ln.Addr().String(), func() { <-done }
}

// TestResilientRetriesBadHelloAfterAccept is the deterministic form of a
// flake of TestNetKillRecoverConformance's old chaos-proxy row: the live connection dies,
// and the wire flips a bit in the redial's hello so the service refuses it as
// malformed. The service has already accepted this very hello, so the
// refusal is an outage to retry under the budget — Receive must deliver,
// not surface ErrServerDown after one attempt. The very first dial has no
// such proof and keeps failing fast.
func TestResilientRetriesBadHelloAfterAccept(t *testing.T) {
	retry := RetryPolicy{Seed: 1}

	addr, wait := stubService(t, "abs")
	rs, err := DialResilient(ReconnectConfig{Addr: addr, Hello: Hello{RunID: "flip"}, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Receive(server.AppendHeartbeat(nil, 0, 1_000_000, 5_000_000)); err != nil {
		t.Fatalf("Receive across a refused redial = %v, want nil", err)
	}
	if st := rs.Stats(); st.Outages != 0 || st.Reconnects != 1 || st.Refusals != 1 || st.DialAttempts != 3 {
		t.Fatalf("stats = %+v, want 0 outages, 1 reconnect, 1 refusal, 3 dial attempts", st)
	}
	rs.Close()
	wait()

	addr, wait = stubService(t, "b")
	start := time.Now()
	_, err = DialResilient(ReconnectConfig{Addr: addr, Hello: Hello{RunID: "flip"}, Retry: retry})
	var ref *Refuse
	if !errors.As(err, &ref) || ref.Code != RefuseBadHello {
		t.Fatalf("first dial refused as bad hello returned %v, want *Refuse{RefuseBadHello}", err)
	}
	if d := time.Since(start); d > backoffMax {
		t.Fatalf("first-dial bad hello took %v, longer than one backoff step may sleep (%v): want fail-fast", d, backoffMax)
	}
	wait()
}

// TestResilientCloseIsFinal is the regression test for a closed session
// that reopened itself: Close promised to stop reconnecting, but the next
// operation found no connection and redialed, leaving the service an open
// session nobody would close. After Close every operation fails with
// net.ErrClosed and dials nothing, and Close is idempotent.
func TestResilientCloseIsFinal(t *testing.T) {
	svc := listen(t, Config{})
	rs, err := DialResilient(ReconnectConfig{Addr: svc.Addr().String(), Hello: Hello{RunID: "closed"}})
	if err != nil {
		t.Fatal(err)
	}
	hb := server.AppendHeartbeat(nil, 0, 1_000_000, 5_000_000)
	if err := rs.Receive(hb); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	for name, op := range map[string]func() error{
		"Receive":   func() error { return rs.Receive(hb) },
		"SendAsync": func() error { return rs.SendAsync(hb) },
		"Drain":     rs.Drain,
	} {
		if err := op(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s after Close = %v, want net.ErrClosed", name, err)
		}
	}
	if st := rs.Stats(); st.DialAttempts != 1 || st.Reconnects != 0 || st.InFlight != 0 {
		t.Fatalf("closed session dialed again: %+v", st)
	}
	waitFor(t, "the service to see the session close", func() bool { return svc.Stats().SessionsOpen == 0 })
	if st := svc.Stats(); st.Sessions != 1 {
		t.Fatalf("service admitted %d sessions, want 1", st.Sessions)
	}
}

// TestResilientOutageSurfacesServerDown kills the service for good and
// expects the ResilientSession to burn its redial budget and surface
// server.ErrServerDown — the sentinel the Link layer parks frames on —
// rather than an anonymous socket error.
func TestResilientOutageSurfacesServerDown(t *testing.T) {
	svc := listen(t, Config{})
	rs, err := DialResilient(ReconnectConfig{
		Addr:  svc.Addr().String(),
		Hello: Hello{RunID: "outage"},
		Retry: RetryPolicy{MaxElapsed: 4 * time.Second, Seed: 3},
		clock: netClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	svc.Close()

	hb := server.AppendHeartbeat(nil, 0, 1_000_000, 5_000_000)
	var got error
	waitFor(t, "outage classification", func() bool {
		got = rs.Receive(hb)
		return got != nil
	})
	if !errors.Is(got, server.ErrServerDown) {
		t.Fatalf("outage surfaced as %v, want server.ErrServerDown", got)
	}
	if st := rs.Stats(); st.Outages == 0 {
		t.Fatalf("outage not booked in stats: %+v", st)
	}
}

// TestResilientReconnectResumes restarts the service on the same address
// and expects the session to redial, resume from the ack LSN, and keep
// delivering — the client-visible half of the self-healing contract.
func TestResilientReconnectResumes(t *testing.T) {
	svc := listen(t, Config{})
	addr := svc.Addr().String()
	rs, err := DialResilient(ReconnectConfig{
		Addr:  addr,
		Hello: Hello{RunID: "resume"},
		Retry: RetryPolicy{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	hb := server.AppendHeartbeat(nil, 0, 1_000_000, 5_000_000)
	for i := 0; i < 5; i++ {
		if err := rs.Receive(hb); err != nil {
			t.Fatalf("pre-restart heartbeat %d: %v", i, err)
		}
	}
	svc.Close()
	svc2, err := Listen(addr, Config{})
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer svc2.Close()

	for i := 0; i < 5; i++ {
		if err := rs.Receive(hb); err != nil {
			t.Fatalf("post-restart heartbeat %d: %v", i, err)
		}
	}
	st := rs.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("no reconnect recorded across restart: %+v", st)
	}
	if hb := svc2.Tenant("resume").Heartbeats(); hb < 5 {
		t.Fatalf("survivor saw %d heartbeats, want >= 5", hb)
	}
}
