package server

import (
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
)

// hb delivers one heartbeat through the public Receive path.
func hb(t *testing.T, s *Server, rank int, nowNs, leaseNs int64) {
	t.Helper()
	if err := s.Receive(AppendHeartbeat(nil, rank, nowNs, leaseNs)); err != nil {
		t.Fatalf("heartbeat rank %d: %v", rank, err)
	}
}

func TestHeartbeatCodec(t *testing.T) {
	f := AppendHeartbeat(nil, 7, 123_456, 5_000_000)
	if len(f) != heartbeatSize {
		t.Fatalf("heartbeat is %d bytes, want %d", len(f), heartbeatSize)
	}
	if !IsHeartbeat(f) {
		t.Fatal("IsHeartbeat rejected a heartbeat")
	}
	rank, now, lease, err := parseHeartbeat(f)
	if err != nil || rank != 7 || now != 123_456 || lease != 5_000_000 {
		t.Fatalf("parse = (%d,%d,%d,%v)", rank, now, lease, err)
	}
	// A record frame must not be mistaken for a heartbeat.
	rec := AppendFrame(nil, FrameHeader{Rank: 1, Seq: 1, CumRecords: 1},
		[]detect.SliceRecord{{Rank: 1, Count: 1, AvgNs: 1}})
	if IsHeartbeat(rec) {
		t.Fatal("record frame classified as heartbeat")
	}
	// Any single flipped bit is caught by the CRC (or the length check).
	for bit := 0; bit < len(f)*8; bit++ {
		bad := feed.Flip(f, bit)
		if !IsHeartbeat(bad) {
			continue // magic broken: dispatched as a record frame instead
		}
		if _, _, _, err := parseHeartbeat(bad); err == nil {
			t.Fatalf("bit %d flip went undetected", bit)
		}
	}
}

func TestHeartbeatRejectCounted(t *testing.T) {
	s := NewSharded(2)
	bad := feed.Flip(AppendHeartbeat(nil, 1, 100, 50), 8*8+4) // corrupt the stamp; CRC now fails
	if err := s.Receive(bad); err == nil {
		t.Fatal("corrupt heartbeat accepted")
	}
	if got := s.Coverage().RejectedFrames; got != 1 {
		t.Fatalf("rejected frames = %d, want 1", got)
	}
	if got := s.Heartbeats(); got != 0 {
		t.Fatalf("heartbeats = %d, want 0", got)
	}
}

// The lease state machine: lag within one lease is alive, beyond one lease
// suspect, beyond deadFactor leases dead. Ranks without a lease never
// leave Alive no matter the lag. Ranks 4..7 sit on either side of both
// boundaries, so an off-by-one or a changed deadFactor shows.
func TestLivenessStateMachine(t *testing.T) {
	const lease = 1_000_000
	s := NewSharded(4)
	hb(t, s, 0, 0, lease)        // will lag far behind: dead
	hb(t, s, 1, 0, lease)        // will lag a little: suspect
	hb(t, s, 2, 0, 0)            // no lease: always alive
	hb(t, s, 3, 10*lease, lease) // defines the frontier: alive

	// Rank 1 renews late enough to be suspect but not dead.
	hb(t, s, 1, 10*lease-2*lease, lease)
	hb(t, s, 4, 10*lease-lease, lease)     // lag exactly one lease: alive
	hb(t, s, 5, 10*lease-lease-1, lease)   // one past it: suspect
	hb(t, s, 6, 10*lease-3*lease, lease)   // lag exactly three leases: suspect
	hb(t, s, 7, 10*lease-3*lease-1, lease) // one past them: dead

	states := map[int]LivenessState{}
	for _, rl := range s.Liveness() {
		states[rl.Rank] = rl.State
	}
	want := map[int]LivenessState{0: Dead, 1: Suspect, 2: Alive, 3: Alive, 4: Alive, 5: Suspect, 6: Suspect, 7: Dead}
	for rank, st := range want {
		if states[rank] != st {
			t.Errorf("rank %d = %s, want %s", rank, states[rank], st)
		}
	}
	sum := s.LivenessSummary()
	if sum.Alive != 3 || sum.Suspect != 3 || sum.Dead != 2 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.FrontierNs != 10*lease {
		t.Errorf("frontier = %d, want %d", sum.FrontierNs, int64(10*lease))
	}
	if Alive.String() != "alive" || Suspect.String() != "suspect" || Dead.String() != "dead" {
		t.Error("LivenessState strings wrong")
	}
}

// A newer heartbeat's lease wins; a stale (reordered) one must not roll
// the last-seen mark backwards.
func TestHeartbeatMonotonic(t *testing.T) {
	s := NewSharded(1)
	hb(t, s, 0, 5_000, 100)
	hb(t, s, 0, 2_000, 100) // reordered: older stamp arrives later
	rl := s.Liveness()
	if len(rl) != 1 || rl[0].LastSeenNs != 5_000 {
		t.Fatalf("liveness = %+v, want last seen 5000", rl)
	}
	if got := s.Heartbeats(); got != 2 {
		t.Fatalf("heartbeats = %d, want 2 (both folded)", got)
	}
}

// Records are evidence of life too: a rank that streams records without
// ever heartbeating again stays alive via its slice stamps.
func TestRecordsRefreshLiveness(t *testing.T) {
	const lease = 1_000
	s := NewSharded(2)
	hb(t, s, 0, 0, lease)
	hb(t, s, 1, 0, lease)
	// Rank 0 keeps reporting records up to slice 100*lease; rank 1 is silent.
	recs := []detect.SliceRecord{{Rank: 0, SliceNs: 100 * lease, Count: 1, AvgNs: 1}}
	if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1}, recs)); err != nil {
		t.Fatal(err)
	}
	states := map[int]LivenessState{}
	for _, rl := range s.Liveness() {
		states[rl.Rank] = rl.State
	}
	if states[0] != Alive {
		t.Errorf("reporting rank = %s, want alive", states[0])
	}
	if states[1] != Dead {
		t.Errorf("silent rank = %s, want dead", states[1])
	}
}

// The degraded verdict: a permanently dead rank is excluded from the
// watermark — epochs close and the report terminates instead of stalling —
// and the report names the rank with a liveness-discounted confidence.
func TestDegradedReportExcludesDeadRank(t *testing.T) {
	const lease = 1_000_000
	const slice = int64(1_000_000)
	s := NewSharded(4)
	// Ranks 0..3 report slice 0; ranks 0..2 advance far past it with
	// heartbeats and records, rank 3 goes silent after slice 0.
	for rank := 0; rank < 4; rank++ {
		hb(t, s, rank, 0, lease)
		recs := []detect.SliceRecord{{Sensor: 1, Rank: rank, SliceNs: 0, Count: 1, AvgNs: 100}}
		if rank == 0 {
			recs[0].AvgNs = 1000 // the outlier: 10x slower than its peers
		}
		if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: rank, Seq: 1, CumRecords: 1}, recs)); err != nil {
			t.Fatal(err)
		}
	}
	for rank := 0; rank < 3; rank++ {
		hb(t, s, rank, 20*lease, lease)
		recs := []detect.SliceRecord{{Sensor: 1, Rank: rank, SliceNs: 20 * slice, Count: 1, AvgNs: 100}}
		if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: rank, Seq: 2, CumRecords: 2}, recs)); err != nil {
			t.Fatal(err)
		}
	}

	rep := s.InterProcessReport(0.9)
	if !rep.Degraded {
		t.Fatal("report not degraded despite a dead rank")
	}
	if len(rep.DeadRanks) != 1 || rep.DeadRanks[0] != 3 {
		t.Fatalf("dead ranks = %v, want [3]", rep.DeadRanks)
	}
	if rep.LivenessConfidence != 0.75 {
		t.Fatalf("liveness confidence = %g, want 0.75 (3 of 4 ranks)", rep.LivenessConfidence)
	}
	if rep.Confidence >= rep.Coverage.Fraction() {
		t.Fatalf("confidence %g not discounted below coverage %g", rep.Confidence, rep.Coverage.Fraction())
	}
	// With rank 3 excluded, the watermark is the live ranks' minimum
	// (20*slice), which is past slice 0: the slice-0 epoch closed and the
	// outlier verdict was issued — the run terminated instead of stalling.
	found := false
	for _, o := range rep.Outliers {
		if o.Rank == 0 && o.SliceNs == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("slice-0 outlier not reported (epoch stalled?): %+v", rep.Outliers)
	}
}

// Without leases the watermark includes every reporting rank — one silent
// rank pins it and the early epoch stays open (pre-liveness behavior).
func TestNoLeaseRankPinsWatermark(t *testing.T) {
	s := NewSharded(4)
	for rank := 0; rank < 4; rank++ {
		recs := []detect.SliceRecord{{Sensor: 1, Rank: rank, SliceNs: 0, Count: 1, AvgNs: 100}}
		if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: rank, Seq: 1, CumRecords: 1}, recs)); err != nil {
			t.Fatal(err)
		}
	}
	for rank := 0; rank < 3; rank++ {
		recs := []detect.SliceRecord{{Sensor: 1, Rank: rank, SliceNs: 20_000_000, Count: 1, AvgNs: 100}}
		if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: rank, Seq: 2, CumRecords: 2}, recs)); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.InterProcessReport(0.9)
	if rep.Degraded || len(rep.DeadRanks) != 0 {
		t.Fatalf("lease-free run degraded: %+v", rep)
	}
	if rep.LivenessConfidence != 1 || rep.Confidence != rep.Coverage.Fraction() {
		t.Fatalf("lease-free confidence discounted: %+v", rep)
	}
	if st := s.EpochStats(); st.Open == 0 {
		t.Fatal("silent lease-free rank did not pin the watermark (epoch closed early)")
	}
}
