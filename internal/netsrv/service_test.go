package netsrv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"net/http/httptest"
	"sort"
	"strings"
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

func TestSessionRoundTrip(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

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
	svc, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

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

// TestLoadShedExplicitRefusal saturates a 1-deep accept queue behind a
// 1-worker pool and asserts the overflow connection is refused with an
// explicit vSE1 busy + retry-after — never a silent drop or hang.
func TestLoadShedExplicitRefusal(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{
		MinWorkers:   1,
		MaxWorkers:   1,
		AcceptQueue:  1,
		RetryAfterMs: 123,
		HelloTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	// c1 occupies the only worker with a live session.
	c1, err := dialOnce(addr, Hello{RunID: "shed", Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// c2 parks in the accept queue (it never sends a hello, and the worker
	// is busy, so it stays there).
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "c2 queued", func() bool { return svc.Stats().Accepted == 2 })

	// c3 arrives to a full queue: explicit refusal, bounded wait.
	done := make(chan error, 1)
	go func() {
		_, derr := dialOnce(addr, Hello{RunID: "shed", Rank: 1})
		done <- derr
	}()
	select {
	case derr := <-done:
		var ref *Refuse
		if !errors.As(derr, &ref) {
			t.Fatalf("shed dial returned %v, want *Refuse", derr)
		}
		if ref.Code != RefuseBusy {
			t.Fatalf("refusal code %d, want RefuseBusy", ref.Code)
		}
		if ref.RetryAfterMs != 123 {
			t.Fatalf("retry-after %dms, want the configured 123", ref.RetryAfterMs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shed connection hung instead of being refused")
	}

	if st := svc.Stats(); st.Shed != 1 {
		t.Fatalf("stats = %+v, want Shed=1", st)
	}
}

// TestPoolScalesUpDown drives enough concurrent sessions to hit
// MaxWorkers, then closes them and watches the pool retire back to
// MinWorkers — never exceeding either bound.
func TestPoolScalesUpDown(t *testing.T) {
	const maxW = 4
	svc, err := Listen("127.0.0.1:0", Config{
		MinWorkers: 1,
		MaxWorkers: maxW,
		IdleWorker: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var sessions []*ResilientSession
	for i := 0; i < maxW; i++ {
		s, err := dialOnce(svc.Addr().String(), Hello{RunID: "pool", Rank: i})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		sessions = append(sessions, s)
		if err := s.Receive(testFrame(i, 1, 1, 1)); err != nil {
			t.Fatalf("session %d frame: %v", i, err)
		}
	}
	waitFor(t, "pool at max", func() bool { return svc.Stats().Workers == maxW })
	if st := svc.Stats(); st.PeakWorkers > maxW {
		t.Fatalf("pool exceeded MaxWorkers: %+v", st)
	}

	for _, s := range sessions {
		s.Close()
	}
	waitFor(t, "pool back at min", func() bool { return svc.Stats().Workers == 1 })
	// It must stay there: retirement respects the floor.
	time.Sleep(50 * time.Millisecond)
	if st := svc.Stats(); st.Workers != 1 {
		t.Fatalf("pool dropped below MinWorkers: %+v", st)
	}
}

func TestTenantCaps(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{
		MaxWorkers:     8,
		MaxRuns:        1,
		MaxRunSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
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
	svc, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

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
	svc, err := Listen("127.0.0.1:0", Config{
		MinWorkers:  1,
		MaxWorkers:  1,
		AcceptQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.SetObs(o)
	o.SetStatus(func() any { return map[string]any{"net": svc.Stats()} })

	addr := svc.Addr().String()
	s1, err := dialOnce(addr, Hello{RunID: "obs", Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "queue primed", func() bool { return svc.Stats().Accepted == 2 })
	if _, err := dialOnce(addr, Hello{RunID: "obs", Rank: 1}); err == nil {
		t.Fatal("third connection was not shed")
	}
	waitFor(t, "shed counted", func() bool { return svc.Stats().Shed == 1 })

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
	if got := body.Run.Net["accepted"]; got != float64(3) {
		t.Fatalf("/status net.accepted = %v, want 3", got)
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
	for _, want := range []string{"net_shed_total 1", "net_accepted_total 3"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCloseRefusesQueued verifies shutdown drains the accept queue with
// explicit vSE1 shutdown refusals instead of dropping the sockets.
func TestCloseRefusesQueued(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{
		MinWorkers:  1,
		MaxWorkers:  1,
		AcceptQueue: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr().String()

	s1, err := dialOnce(addr, Hello{RunID: "close", Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	cq, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	waitFor(t, "conn queued", func() bool { return svc.Stats().Accepted == 2 })

	closeDone := make(chan error, 1)
	go func() { closeDone <- svc.Close() }()

	r := bufio.NewReader(cq)
	payload, _, err := readEnvelope(r, nil, refuseSize)
	if err != nil {
		t.Fatalf("queued conn read during shutdown: %v", err)
	}
	ref, err := ParseRefuse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Code != RefuseShutdown {
		t.Fatalf("refusal code %d, want RefuseShutdown", ref.Code)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := svc.Stats(); st.RefusedShutdown != 1 {
		t.Fatalf("stats = %+v, want RefusedShutdown=1", st)
	}
}

// TestSessionPipelinedSend exercises the windowed async path that the
// ingest benchmarks ride: more frames than the pipeline window, a corrupt
// frame mid-stream whose rejection must surface on Drain (not get lost in
// the ack batch), and a clean pipeline afterwards.
func TestSessionPipelinedSend(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess, err := DialResilient(ReconnectConfig{Addr: svc.Addr().String(), Hello: Hello{RunID: "pipe", Rank: 0}, Dial: DialConfig{Window: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const frames = 100
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
	if err := sess.SendAsync(testFrame(0, 101, 202, 2)); err != nil {
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
	svc, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	conn, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(conn)
	if err := writeEnvelope(w, AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "big", Rank: 0})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readEnvelope(r, nil, sessionAckSize); err != nil {
		t.Fatalf("handshake: %v", err)
	}

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
