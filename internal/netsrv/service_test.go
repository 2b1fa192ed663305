package netsrv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// testFrame builds one valid vSF1 data frame for rank with n records.
// seq is 1-based; cum counts records through (and including) this frame.
func testFrame(rank int, seq uint64, cum uint64, n int) []byte {
	recs := make([]detect.SliceRecord, n)
	for i := range recs {
		recs[i] = detect.SliceRecord{
			Sensor:  i % 4,
			Group:   1,
			Rank:    rank,
			SliceNs: int64(seq)*1e6 + int64(i),
			Count:   3,
			AvgNs:   100 + float64(i),
		}
	}
	return server.AppendFrame(nil, server.FrameHeader{Rank: rank, Seq: seq, CumRecords: cum}, recs)
}

// dialOnce is a plain connect on the one client: a retry budget too small
// to sleep through makes the first dial's failure — a *Refuse included —
// come straight back.
func dialOnce(addr string, h Hello) (*ResilientSession, error) {
	return DialResilient(ReconnectConfig{Addr: addr, Hello: h, Retry: RetryPolicy{MaxElapsed: time.Nanosecond}})
}

// listen serves cfg on a loopback listener until the test ends.
func listen(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestZeroConfigTenantShards pins the tenant factory's default: a session
// on a zero Config gets a server with server.DefaultShards ingest shards,
// the count `serve -server-shards 0` promises.
func TestZeroConfigTenantShards(t *testing.T) {
	svc := listen(t, Config{})
	sess, err := dialOnce(svc.Addr().String(), Hello{RunID: "run-d", Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Receive(testFrame(1, 1, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if got := svc.Tenant("run-d").Shards(); got != server.DefaultShards {
		t.Fatalf("tenant has %d shards, want server.DefaultShards (%d)", got, server.DefaultShards)
	}
}

func TestSessionRoundTrip(t *testing.T) {
	svc := listen(t, Config{Shards: 2})

	sess, err := dialOnce(svc.Addr().String(), Hello{RunID: "run-a", Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Ack().Flags&AckFlagResumed != 0 {
		t.Fatalf("fresh run acked as resumed: %+v", sess.Ack())
	}

	for seq := uint64(1); seq <= 4; seq++ {
		if err := sess.Receive(testFrame(3, seq, seq*5, 5)); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	// Heartbeats ride the same envelope stream.
	if err := sess.Receive(server.AppendHeartbeat(nil, 3, 1e9, 5e9)); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}

	srv := svc.Tenant("run-a")
	if srv == nil {
		t.Fatal("tenant run-a missing after session")
	}
	if got := len(srv.Records()); got != 20 {
		t.Fatalf("tenant ingested %d records, want 20", got)
	}
	if hb := srv.Heartbeats(); hb != 1 {
		t.Fatalf("tenant saw %d heartbeats, want 1", hb)
	}

	// A corrupt frame is acked as a rejection, not a hang or disconnect.
	bad := testFrame(3, 9, 45, 2)
	bad[len(bad)-1] ^= 0xff
	if err := sess.Receive(bad); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("corrupt frame: got %v, want ErrFrameRejected", err)
	}
	// And the session is still usable afterwards.
	if err := sess.Receive(testFrame(3, 5, 21, 1)); err != nil {
		t.Fatalf("frame after rejection: %v", err)
	}

	st := svc.Stats()
	if st.FramesIn != 6 || st.FramesRejected != 1 {
		t.Fatalf("stats = %+v, want FramesIn=6 FramesRejected=1", st)
	}
}

func TestSessionResumeLSNAndFlags(t *testing.T) {
	svc := listen(t, Config{})

	s1, err := dialOnce(svc.Addr().String(), Hello{RunID: "run-r", Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Receive(testFrame(0, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Second session against the same run ID sees the resumed flag and the
	// same tenant (an in-memory tenant reports LSN 0; the durable path is
	// exercised by the kill-recover conformance suite).
	s2, err := dialOnce(svc.Addr().String(), Hello{RunID: "run-r", Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Ack().Flags&AckFlagResumed == 0 {
		t.Fatalf("second session not acked as resumed: %+v", s2.Ack())
	}
	if ids := svc.RunIDs(); len(ids) != 1 || ids[0] != "run-r" {
		t.Fatalf("RunIDs = %v, want [run-r]", ids)
	}
}

// TestLoadShedExplicitRefusal fills the MaxWorkers cap with live sessions
// and asserts the next connection is shed at once with an explicit vSE1
// busy + retry-after — never a silent drop, hang or queue — and that once
// the sessions close the served count returns to zero and admits again.
func TestLoadShedExplicitRefusal(t *testing.T) {
	svc := listen(t, Config{MaxWorkers: 2, RetryAfterMs: 123})
	addr := svc.Addr().String()

	var sessions []*ResilientSession
	for i := 0; i < 2; i++ {
		s, err := dialOnce(addr, Hello{RunID: "shed", Rank: i})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		defer s.Close()
		sessions = append(sessions, s)
	}

	var ref *Refuse
	if _, err := dialOnce(addr, Hello{RunID: "shed", Rank: 2}); !errors.As(err, &ref) ||
		ref.Code != RefuseBusy || ref.RetryAfterMs != 123 {
		t.Fatalf("dial at the cap = %v, want RefuseBusy with the configured 123ms retry-after", err)
	}
	if st := svc.Stats(); st.Shed != 1 || st.Workers != 2 {
		t.Fatalf("stats = %+v, want Shed=1 Workers=2", st)
	}

	for _, s := range sessions {
		s.Close()
	}
	waitFor(t, "served count back to 0", func() bool { return svc.Stats().Workers == 0 })
	if st := svc.Stats(); st.PeakWorkers != 2 {
		t.Fatalf("PeakWorkers = %d, want the cap 2: %+v", st.PeakWorkers, st)
	}
	s, err := dialOnce(addr, Hello{RunID: "shed", Rank: 3})
	if err != nil {
		t.Fatalf("dial after the cap freed: %v", err)
	}
	s.Close()
}

func TestTenantCaps(t *testing.T) {
	svc := listen(t, Config{
		MaxWorkers:     8,
		MaxRuns:        1,
		MaxRunSessions: 1,
	})
	addr := svc.Addr().String()

	s1, err := dialOnce(addr, Hello{RunID: "only", Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()

	var ref *Refuse
	if _, err := dialOnce(addr, Hello{RunID: "only", Rank: 1}); !errors.As(err, &ref) || ref.Code != RefuseRunSessions {
		t.Fatalf("second session on capped run: %v, want RefuseRunSessions", err)
	}
	if _, err := dialOnce(addr, Hello{RunID: "other", Rank: 0}); !errors.As(err, &ref) || ref.Code != RefuseRuns {
		t.Fatalf("second run on capped service: %v, want RefuseRuns", err)
	}
	st := svc.Stats()
	if st.RefusedSessions != 1 || st.RefusedRuns != 1 {
		t.Fatalf("stats = %+v, want RefusedSessions=1 RefusedRuns=1", st)
	}

	// Releasing the session frees the slot for the same run.
	s1.Close()
	waitFor(t, "session slot freed", func() bool {
		s2, err := dialOnce(addr, Hello{RunID: "only", Rank: 2})
		if err != nil {
			return false
		}
		defer s2.Close()
		return s2.Ack().Flags&AckFlagResumed != 0
	})
}

func TestBadHelloRefused(t *testing.T) {
	svc := listen(t, Config{})

	// A data frame where the hello belongs is a protocol violation.
	c, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := bufio.NewWriter(c)
	if err := writeEnvelope(w, testFrame(0, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	payload, _, err := readEnvelope(r, nil, refuseSize)
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	ref, err := ParseRefuse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Code != RefuseBadHello {
		t.Fatalf("refusal code %d, want RefuseBadHello", ref.Code)
	}

	// An unsupported protocol version is refused the same way.
	hello := AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "v2", Rank: 0})
	hello[4] = 2 // bump version; CRC now stale too — either failure refuses
	c2, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	w2 := bufio.NewWriter(c2)
	if err := writeEnvelope(w2, hello); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	payload, _, err = readEnvelope(bufio.NewReader(c2), nil, refuseSize)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = ParseRefuse(payload); err != nil || ref.Code != RefuseBadHello {
		t.Fatalf("version-2 hello: ref=%+v err=%v, want RefuseBadHello", ref, err)
	}
	if st := svc.Stats(); st.RefusedBadHello != 2 {
		t.Fatalf("stats = %+v, want RefusedBadHello=2", st)
	}
}

// TestShedCountsInStatus wires the service into an obs registry the way
// `vsensor serve` does and asserts shed/accept counts surface through both
// /metrics and /status, where the run.net block is Stats' JSON form under
// exactly the keys the hand-written map it replaced served.
func TestShedCountsInStatus(t *testing.T) {
	o := obs.New()
	svc := listen(t, Config{MaxWorkers: 1})
	svc.SetObs(o)
	o.SetStatus(func() any { return map[string]any{"net": svc.Stats()} })

	// One session fills the cap; the next connection is shed, and counted
	// before its refusal is written.
	addr := svc.Addr().String()
	s1, err := dialOnce(addr, Hello{RunID: "obs", Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if _, err := dialOnce(addr, Hello{RunID: "obs", Rank: 1}); err == nil {
		t.Fatal("second connection was not shed")
	}

	ts := httptest.NewServer(o.Handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Run struct {
			Net map[string]any `json:"net"`
		} `json:"run"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := body.Run.Net["shed"]; got != float64(1) {
		t.Fatalf("/status net.shed = %v, want 1", got)
	}
	if got := body.Run.Net["accepted"]; got != float64(2) {
		t.Fatalf("/status net.accepted = %v, want 2", got)
	}
	var keys []string
	for k := range body.Run.Net {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "accepted corrupt_envelopes frames_down frames_in frames_rejected "+
		"peak_workers refused_badhello refused_runs refused_sessions refused_shutdown runs sessions "+
		"sessions_open sessions_reaped shed workers"; got != want {
		t.Fatalf("/status net keys:\n got: %s\nwant: %s", got, want)
	}

	res, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, res.Body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	metrics := sb.String()
	for _, want := range []string{"net_shed_total 1", "net_accepted_total 2"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// rawSession dials addr and completes the handshake by hand: the bare
// socket under an admitted session, for tests that speak envelopes directly.
func rawSession(t *testing.T, addr, runID string) (net.Conn, *bufio.Writer, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	w, r := bufio.NewWriter(c), bufio.NewReader(c)
	if err := writeEnvelope(w, AppendHello(nil, Hello{Version: ProtocolVersion, RunID: runID})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	payload, _, err := readEnvelope(r, nil, sessionAckSize)
	if err == nil {
		_, err = ParseSessionAck(payload)
	}
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return c, w, r
}

// TestCloseReachesEveryConn closes a service that holds an admitted session
// and a connection that never sent its hello: the session's socket sees
// EOF, the hello-less one reads vSE1 shutdown, and Close returns without
// waiting out the hello deadline (the wall clock's, 5s).
func TestCloseReachesEveryConn(t *testing.T) {
	svc := listen(t, Config{})
	addr := svc.Addr().String()
	sc, _, _ := rawSession(t, addr, "close")
	cq, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	waitFor(t, "both conns served", func() bool { return svc.Stats().Workers == 2 })

	start := time.Now()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d > helloTimeout/5 {
		t.Fatalf("Close took %v with a %v hello deadline pending", d, helloTimeout)
	}
	if n, err := sc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("admitted session read (%d, %v) after Close, want EOF", n, err)
	}
	payload, _, err := readEnvelope(bufio.NewReader(cq), nil, refuseSize)
	if err != nil {
		t.Fatalf("hello-less conn read after Close: %v", err)
	}
	if ref, err := ParseRefuse(payload); err != nil || ref.Code != RefuseShutdown {
		t.Fatalf("hello-less conn got %+v (%v), want RefuseShutdown", ref, err)
	}
	if st := svc.Stats(); st.Sessions != 1 || st.RefusedShutdown != 1 || st.Workers != 0 {
		t.Fatalf("stats = %+v, want Sessions=1 RefusedShutdown=1 Workers=0", st)
	}
}

// TestCloseWhileDialing races Close against 8 goroutines that dial in a
// loop, every other connection saying hello and the rest staying silent,
// each held up to 20ms. Close must return promptly whatever it catches in
// flight; afterwards nothing is served and every accepted connection is
// booked exactly once: as a session, or in one refusal bucket.
func TestCloseWhileDialing(t *testing.T) {
	svc := listen(t, Config{MaxWorkers: 4})
	addr := svc.Addr().String()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hello := AppendHello(nil, Hello{Version: ProtocolVersion, RunID: fmt.Sprintf("dialer-%d", g)})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := net.Dial("tcp", addr)
				if err != nil {
					continue // the listener is gone; spin until stop
				}
				// Errors here only end this try early.
				c.SetDeadline(time.Now().Add(20 * time.Millisecond))
				if i%2 == 0 {
					w := bufio.NewWriter(c)
					writeEnvelope(w, hello)
					w.Flush()
				}
				io.Copy(io.Discard, c) // until the service closes c or the deadline
				c.Close()
			}
		}()
	}
	waitFor(t, "sessions and hello-less conns churning", func() bool {
		st := svc.Stats()
		return st.Sessions >= 8 && st.RefusedBadHello >= 4
	})
	start := time.Now()
	err := svc.Close()
	took := time.Since(start)
	if err != nil || took > 2*time.Second {
		t.Fatalf("Close = %v after %v while connections arrived, want nil within 2s", err, took)
	}
	st := svc.Stats()
	booked := st.Sessions + st.Shed + st.RefusedSessions + st.RefusedRuns + st.RefusedBadHello + st.RefusedShutdown
	if st.Workers != 0 || booked != st.Accepted {
		t.Fatalf("after Close: %d still served, %d accepted but %d booked: %+v", st.Workers, st.Accepted, booked, st)
	}
}

// TestSessionPipelinedSend exercises the windowed async path that the
// ingest benchmarks ride: more frames than the full window, a corrupt
// frame mid-stream whose rejection must surface on Drain (not get lost in
// the ack batch), and a clean pipeline afterwards.
func TestSessionPipelinedSend(t *testing.T) {
	svc := listen(t, Config{Shards: 2})
	sess, err := DialResilient(ReconnectConfig{Addr: svc.Addr().String(), Hello: Hello{RunID: "pipe", Rank: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const frames = 2*maxWindow + 100
	for seq := uint64(1); seq <= frames; seq++ {
		f := testFrame(0, seq, seq*2, 2)
		if seq == 37 {
			f[len(f)-1] ^= 0xFF // CRC breaks; server reject-acks, stream continues
		}
		if err := sess.SendAsync(f); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	if err := sess.Drain(); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("Drain = %v, want ErrFrameRejected for the corrupt frame", err)
	}
	// The rejection was consumed with the drain; the pipeline is clean again.
	if err := sess.SendAsync(testFrame(0, frames+1, 2*frames+2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Drain(); err != nil {
		t.Fatalf("second Drain = %v", err)
	}
	srv := svc.Tenant("pipe")
	// Frame 37 was rejected (2 records lost); everything else landed.
	if got, want := len(srv.Records()), (frames-1+1)*2; got != want {
		t.Fatalf("tenant ingested %d records, want %d", got, want)
	}
	if st := svc.Stats(); st.FramesRejected != 1 {
		t.Fatalf("FramesRejected = %d, want 1", st.FramesRejected)
	}
}

// TestRefuseErrorStrings pins the operator-facing rendering of every
// refusal code: the code name and the retry-after hint must both appear.
func TestRefuseErrorStrings(t *testing.T) {
	for code, name := range map[uint16]string{
		RefuseBusy:        "busy",
		RefuseRunSessions: "per-run session cap",
		RefuseRuns:        "run cap",
		RefuseBadHello:    "bad hello",
		RefuseShutdown:    "shutting down",
		99:                "code 99",
	} {
		r := Refuse{Version: ProtocolVersion, Code: code, RetryAfterMs: 250}
		msg := r.Error()
		if !strings.Contains(msg, name) || !strings.Contains(msg, "250ms") {
			t.Errorf("Refuse{Code:%d}.Error() = %q, want it to mention %q and 250ms", code, msg, name)
		}
	}
}

// TestOversizedEnvelopeRejected sends an envelope whose declared length
// exceeds MaxEnvelopeBytes. The server must not allocate the claimed
// buffer: it discards the payload bytes, reject-acks, and keeps the
// session usable for the next well-formed frame.
func TestOversizedEnvelopeRejected(t *testing.T) {
	svc := listen(t, Config{Shards: 1})

	_, w, r := rawSession(t, svc.Addr().String(), "big")

	// Declared length one past the cap, followed by exactly that many
	// bytes with a truthful envelope CRC: a genuine oversized frame, not
	// wire corruption, so the server drains it and keeps the session.
	const declared = MaxEnvelopeBytes + 1
	zeros := make([]byte, 32<<10)
	zcrc := uint32(0)
	for n := 0; n < declared; {
		chunk := declared - n
		if chunk > len(zeros) {
			chunk = len(zeros)
		}
		zcrc = crc32.Update(zcrc, crc32.IEEETable, zeros[:chunk])
		n += chunk
	}
	var hdr [envHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(declared))
	binary.LittleEndian.PutUint32(hdr[4:], zcrc)
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(w, zeroReader{}, declared); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ack, _, err := readEnvelope(r, nil, 1)
	if err != nil {
		t.Fatalf("ack after oversized envelope: %v", err)
	}
	if len(ack) != 1 || ack[0] != frameAckReject {
		t.Fatalf("oversized envelope ack = %v, want reject", ack)
	}

	// The stream is still framed correctly: a valid frame lands.
	if err := writeEnvelope(w, testFrame(0, 1, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ack, _, err = readEnvelope(r, ack[:0], 1)
	if err != nil || len(ack) != 1 || ack[0] != frameAckOK {
		t.Fatalf("frame after oversized envelope: ack %v err %v", ack, err)
	}
	if got := len(svc.Tenant("big").Records()); got != 3 {
		t.Fatalf("tenant ingested %d records, want 3", got)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}
