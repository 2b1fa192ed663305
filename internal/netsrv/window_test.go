package netsrv

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"vsensor/internal/feed"
	"vsensor/internal/server"
	"vsensor/internal/transport"
)

// The window's contract, from the session's side. The Link-side half (who a
// failed frame goes back to) is transport's TestLinkWindowAttribution over a
// scripted medium; these run the real session over real sockets.

// resetsAt is a trial whose first conns connections each reset at their
// byte b of what the service reads.
func resetsAt(b int64, conns int) feed.Trial {
	var tr feed.Trial
	for conn := range conns {
		tr.Events = append(tr.Events, feed.Event{Kind: feed.Reset, At: conn, Arg: b})
	}
	return tr
}

// TestWindowProgressUnderEarlyResets is the regression test for invariant
// (3), progress: a wire that dies sooner than one window of frames, against a
// non-durable tenant. The session ack's LSN is a flat 0 there, so a reconnect
// proves nothing and re-sends everything unanswered; if a fresh connection
// were handed the whole backlog at once, every one would be reset before its
// first ack was read and the queue would shrink only by luck. Opening each
// connection at one frame means every connection retires at least one.
func TestWindowProgressUnderEarlyResets(t *testing.T) {
	const ranks, perRank = 8, 200
	frames := ranks * perRank / 8
	// 200 frames of ~400 bytes: a default window (256) of them is ~100 KiB,
	// and none of the first 200 connections lives past 3 KiB.
	feed.Check(t, resetsAt(3<<10, frames), func(t *testing.T, tr feed.Trial) error {
		m := listenVia(t, Config{Shards: 1, MaxWorkers: 4}, &tr)
		rs, err := DialResilient(m.session("early-resets", 5))
		if err != nil {
			return err
		}
		defer rs.Close()
		if lsn := rs.Ack().LSN; lsn != 0 {
			return fmt.Errorf("non-durable tenant acked LSN %d, want 0", lsn)
		}

		recs := chaosRecs(ranks, perRank)
		done := make(chan error, 1)
		go func() { done <- runRanksOver(rs, transport.FaultPlan{}, recs) }()
		select {
		case err := <-done:
			if err != nil {
				return err
			}
		case <-time.After(60 * time.Second):
			return fmt.Errorf("no progress: session %+v", rs.Stats())
		}

		tenant := m.svc.Tenant("early-resets")
		errs := []error{feed.Same("record", feed.Sorted(tenant.Records()), feed.Sorted(slices.Concat(recs...)))}
		if cov := tenant.Coverage(); !cov.Complete() {
			errs = append(errs, fmt.Errorf("coverage incomplete: %+v", cov))
		}
		st := rs.Stats()
		if st.Reconnects == 0 || m.wire.Fired(feed.Reset) == 0 {
			errs = append(errs, fmt.Errorf("plan too tame: session %+v, %d resets", st, m.wire.Fired(feed.Reset)))
		}
		if st.InFlight != 0 || st.Outages != 0 {
			errs = append(errs, fmt.Errorf("session %+v, want nothing in flight and no outage", st))
		}
		// Progress, not luck: every connection retires at least one envelope,
		// so there cannot be more connections than envelopes. (Handing a
		// fresh connection the whole backlog finishes too, eventually — after
		// some 7,000 reconnects and 44 MB for these 70 KB of frames.)
		if st.Reconnects > int64(frames) {
			errs = append(errs, fmt.Errorf("%d reconnects for %d frames: connections are dying without retiring a frame (%+v)", st.Reconnects, frames, st))
		}
		return errors.Join(errs...)
	})
}

// recordingObserver collects what ObserveAcks reports, in order.
type recordingObserver struct {
	mu    sync.Mutex
	fates []error
}

func (o *recordingObserver) observe(_ []byte, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fates = append(o.fates, err)
}

func (o *recordingObserver) take() []error {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.fates
	o.fates = nil
	return out
}

// TestReceiveAmongAsyncReportsItsOwnFate mixes the two calls on one session:
// a synchronous Receive drains the window ahead of it, but what it returns is
// its own frame's fate, and the older frames' fates go to the observer — not
// the first failure anyone met, which is what it used to return.
func TestReceiveAmongAsyncReportsItsOwnFate(t *testing.T) {
	svc := listen(t, Config{})
	rs, err := DialResilient(ReconnectConfig{Addr: svc.Addr().String(), Hello: Hello{RunID: "mix"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var seen recordingObserver
	rs.ObserveAcks(seen.observe)

	good := func(seq uint64) []byte { return testFrame(0, seq, seq*2, 2) }
	bad := good(99)
	bad[len(bad)-1] ^= 0x40 // fails the frame CRC: the server rejects it

	for _, f := range [][]byte{good(1), bad, good(2)} {
		if err := rs.SendAsync(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Receive(good(3)); err != nil {
		t.Fatalf("Receive of a good frame behind a rejected async one = %v, want nil", err)
	}
	if got := seen.take(); len(got) != 3 || got[0] != nil || !errors.Is(got[1], ErrFrameRejected) || got[2] != nil {
		t.Fatalf("observer heard %v, want [nil, rejected, nil]", got)
	}

	if err := rs.SendAsync(good(4)); err != nil {
		t.Fatal(err)
	}
	if err := rs.Receive(bad); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("Receive of a bad frame behind a good async one = %v, want ErrFrameRejected", err)
	}
	if got := seen.take(); len(got) != 1 || got[0] != nil {
		t.Fatalf("observer heard %v, want [nil]", got)
	}
	if st := rs.Stats(); st.InFlight != 0 {
		t.Fatalf("in flight after Receive: %+v", st)
	}
	if n := len(svc.Tenant("mix").Records()); n != 8 {
		t.Fatalf("tenant holds %d records, want 8 (four good frames)", n)
	}
}

// TestWindowBoundedAcrossOutage is invariant (2): with the service gone for
// good the window does not grow past maxWindow — it used to append without
// limit — a sender that finds it full fails like a synchronous one, and
// giving up hands every unanswered frame back instead of keeping it queued.
// Close then has nothing to hide; a Close over frames it could not drain says
// so.
func TestWindowBoundedAcrossOutage(t *testing.T) {
	// Once the window is open the stub answers nothing more: it swallows one
	// full window, hangs up and stops listening, so the sender that finds the
	// window full meets an outage no redial can cure.
	cfg := ReconnectConfig{Hello: Hello{RunID: "bound"}, Retry: RetryPolicy{MaxElapsed: 4 * time.Second, Seed: 3}, clock: deadlineClock}
	addr, wait := stubService(t, "q")
	cfg.Addr = addr
	rs, err := DialResilient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen recordingObserver
	rs.ObserveAcks(seen.observe)
	// Open the window fully first, so frames queue instead of waiting out
	// the one-frame start.
	for seq := uint64(1); seq <= 2*maxWindow; seq++ {
		if err := rs.SendAsync(testFrame(0, seq, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
	seen.take()

	accepted := 0
	var refused error
	for seq := uint64(1000); refused == nil && seq < 1000+4*maxWindow; seq++ {
		if refused = rs.SendAsync(testFrame(0, seq, seq, 1)); refused == nil {
			accepted++
		}
		if st := rs.Stats(); st.InFlight > maxWindow {
			t.Fatalf("%d envelopes in flight, window is %d", st.InFlight, maxWindow)
		}
	}
	if !errors.Is(refused, server.ErrServerDown) {
		t.Fatalf("SendAsync into a dead service kept accepting (%d frames): last error %v", accepted, refused)
	}
	if accepted != maxWindow {
		t.Fatalf("%d frames accepted before the first refusal, want the full window of %d", accepted, maxWindow)
	}
	fates := seen.take()
	if len(fates) != accepted {
		t.Fatalf("%d frames accepted, %d fates reported: %v", accepted, len(fates), fates)
	}
	for i, err := range fates {
		if !errors.Is(err, server.ErrServerDown) {
			t.Fatalf("fate %d = %v, want ErrServerDown", i, err)
		}
	}
	if st := rs.Stats(); st.InFlight != 0 || st.Outages == 0 {
		t.Fatalf("after giving up: %+v, want an empty window and a booked outage", st)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close with nothing in flight: %v", err)
	}
	wait()

	// The other half of Close: frames accepted, service dies, no later
	// operation redials — Close must not report success.
	svc2 := listen(t, Config{clock: deadlineClock})
	cfg.Addr = svc2.Addr().String()
	rs2, err := DialResilient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs2.Receive(testFrame(0, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	svc2.Close()
	if err := rs2.SendAsync(testFrame(0, 2, 2, 1)); err != nil {
		t.Fatalf("SendAsync with room in the window = %v, want accepted", err)
	}
	if err := rs2.Close(); err == nil {
		t.Fatalf("Close over an unanswered frame reported success: %+v", rs2.Stats())
	}
}

// TestWindowedSendSteadyStateAllocs pins the windowed record path's
// allocation ceiling, in the style of server's TestFlushSteadyStateAllocs:
// once the window is open and every slot of the session's ring has held a
// frame, a full batch through Conn → Link → ResilientSession allocates
// nothing — no queue growth, no per-frame copy, no ticket. The far end is the
// stub service with a reused read buffer, so the process-wide count is the
// client's alone.
func TestWindowedSendSteadyStateAllocs(t *testing.T) {
	addr, wait := stubService(t, "s")
	rs, err := DialResilient(ReconnectConfig{Addr: addr, Hello: Hello{RunID: "allocs"}})
	if err != nil {
		t.Fatal(err)
	}
	link := transport.NewLinkOver(rs, transport.FaultPlan{})
	conn := link.NewConn(0, transport.Config{BatchSize: 8})
	batch := func() {
		for i := 0; i < 8; i++ {
			if err := conn.OnSlice(chaosRec(0, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4*256; i++ { // open the window, touch every ring slot, size the ticket queue
		batch()
	}
	if avg := testing.AllocsPerRun(2000, batch); avg != 0 {
		t.Errorf("steady-state windowed frame allocates %.2f objects, want 0", avg)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); st.InFlight != 0 {
		t.Errorf("in flight after Close: %+v", st)
	}
	rs.Close()
	wait()
}

// TestMediumsDoNotRetainFrame pins the contract transport's Conn relies on
// when it stages its next record into the frame it just sent: no Medium
// keeps the caller's buffer past the call. One
// buffer carries every frame and is scribbled over as soon as each Receive
// or SendAsync returns — on the in-process server, and on the resilient
// session synchronously, through the window, and through a window whose
// connections reset at their byte 2 KiB (a feed trial's wire events), so
// that unanswered frames are sent again from what the session kept — and
// every tenant must hold exactly the records a reference server ingested
// from private copies.
func TestMediumsDoNotRetainFrame(t *testing.T) {
	const rank, frames = 1, 64
	ref := server.New()
	for seq := uint64(1); seq <= frames; seq++ {
		if err := ref.Receive(testFrame(rank, seq, seq*5, 5)); err != nil {
			t.Fatal(err)
		}
	}
	svc := listen(t, Config{})
	session := func(runID string) *ResilientSession {
		rs, err := dialOnce(svc.Addr().String(), Hello{RunID: runID, Rank: rank})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		return rs
	}
	resets := resetsAt(2<<10, frames)
	wire := listenVia(t, Config{}, &resets)
	resent, err := dialVia(wire, "resent", 40)
	if err != nil {
		t.Fatal(err)
	}
	defer resent.Close()
	inproc := server.New()
	rcv, async := session("receive"), session("send-async")
	for _, m := range []struct {
		name   string
		send   func([]byte) error
		drain  func() error
		tenant func() *server.Server
	}{
		{"Server.Receive", inproc.Receive, func() error { return nil }, func() *server.Server { return inproc }},
		{"ResilientSession.Receive", rcv.Receive, rcv.Drain, func() *server.Server { return svc.Tenant("receive") }},
		{"ResilientSession.SendAsync", async.SendAsync, async.Drain, func() *server.Server { return svc.Tenant("send-async") }},
		{"ResilientSession.SendAsync across resets", resent.SendAsync, resent.Drain, func() *server.Server { return wire.svc.Tenant("resent") }},
	} {
		buf := make([]byte, 0, 1024)
		for seq := uint64(1); seq <= frames; seq++ {
			buf = append(buf[:0], testFrame(rank, seq, seq*5, 5)...)
			if err := m.send(buf); err != nil {
				t.Fatalf("%s: frame %d: %v", m.name, seq, err)
			}
			for i := range buf {
				buf[i] = 0xA5
			}
		}
		if err := m.drain(); err != nil {
			t.Fatalf("%s: drain: %v", m.name, err)
		}
		if err := feed.Same(m.name+" record", m.tenant().Records(), ref.Records()); err != nil {
			t.Error(err)
		}
	}
	if st := resent.Stats(); st.Reconnects == 0 {
		t.Errorf("no reset reached the session (%+v): nothing was sent again", st)
	}
}
