package transport

import (
	"sync/atomic"
	"testing"

	"vsensor/internal/server"
	"vsensor/internal/storage"
)

// The retry backoff schedule is exact: each failed attempt but the last
// charges the ack timeout plus an exponentially doubling backoff, capped at
// backoffMaxNs. With every attempt dropped the virtual clock must advance by
// precisely
//
//	maxRetries*ackTimeoutNs + Σ_{k<maxRetries} min(backoffBaseNs·2^k, backoffMaxNs)
//
// before the frame parks — a sum the schedule's last steps reach the cap in.
func TestRetryBackoffSchedule(t *testing.T) {
	if backoffBaseNs<<(maxRetries-1) <= backoffMaxNs {
		t.Fatalf("the %d-retry schedule never reaches the backoff cap", maxRetries)
	}
	srv := server.New()
	link := NewLink(srv, FaultPlan{Seed: 3, Drop: 1})
	clk := &fakeClock{}
	conn := link.NewConn(0, Config{BatchSize: 4})
	conn.BindClock(clk)
	for i := 0; i < 4; i++ {
		if err := conn.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(maxRetries * ackTimeoutNs)
	for k := 0; k < maxRetries; k++ {
		want += min(int64(backoffBaseNs)<<k, backoffMaxNs)
	}
	st := conn.Stats()
	if st.Retries != maxRetries {
		t.Fatalf("retries = %d, want %d (maxRetries exhausted)", st.Retries, maxRetries)
	}
	if st.WaitNs != want || clk.now != want {
		t.Fatalf("wait=%d clock=%d, want exactly %d", st.WaitNs, clk.now, want)
	}
	if st.Parked != 1 {
		t.Fatalf("parked = %d, want 1", st.Parked)
	}
}

// A dead rank goes silent mid-run: its first DeadAfterFrames frames land,
// everything after is discarded without retries, virtual-time burn, or a
// close error — while other ranks are untouched.
func TestDeadRankGoesSilent(t *testing.T) {
	srv := server.NewSharded(4)
	link := NewLink(srv, FaultPlan{DeadRank: 1, DeadAfterFrames: 2})
	alive := link.NewConn(0, Config{BatchSize: 1})
	dead := link.NewConn(1, Config{BatchSize: 1})
	clk := &fakeClock{}
	dead.BindClock(clk)
	for i := 0; i < 5; i++ {
		if err := alive.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
		if err := dead.OnSlice(rec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := alive.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dead.Close(); err != nil {
		t.Fatalf("a dead rank's close must be silent, got %v", err)
	}
	var fromDead, fromAlive int
	for _, r := range srv.Records() {
		switch r.Rank {
		case 0:
			fromAlive++
		case 1:
			fromDead++
		}
	}
	if fromAlive != 5 {
		t.Errorf("alive rank delivered %d records, want 5", fromAlive)
	}
	if fromDead != 2 {
		t.Errorf("dead rank delivered %d records, want its first 2", fromDead)
	}
	st := dead.Stats()
	if st.LostRecords != 3 {
		t.Errorf("dead rank lost %d records, want 3", st.LostRecords)
	}
	if clk.now != 0 {
		t.Errorf("dead rank burned %d ns of virtual time", clk.now)
	}
}

// Crash hooks fire exactly once each, in order: onCrash when the first
// attempt enters the down window, onRecover on the first attempt past it.
func TestCrashHooksFireExactlyOnce(t *testing.T) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{CrashAfterFrames: 3, CrashDownFrames: 2})
	var crashes, recovers atomic.Int64
	link.SetCrashHooks(
		func() { crashes.Add(1) },
		func() {
			if crashes.Load() != 1 {
				t.Error("onRecover fired before onCrash")
			}
			recovers.Add(1)
		},
	)
	conn := link.NewConn(0, Config{BatchSize: 1})
	for i := 0; i < 6; i++ {
		if err := conn.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if crashes.Load() != 1 || recovers.Load() != 1 {
		t.Fatalf("crash hooks fired %d/%d times, want 1/1", crashes.Load(), recovers.Load())
	}
	if got := len(srv.Records()); got != 6 {
		t.Fatalf("records = %d, want 6 (retries cover the window)", got)
	}
}

// End to end: the crash window wired to a durable server really wipes it
// and recovery replays the journal — nothing is lost across the crash.
func TestCrashHooksDriveDurableServer(t *testing.T) {
	srv := server.NewSharded(2)
	srv.AttachDurability(server.DurabilityConfig{Disk: storage.NewDisk(storage.Faults{})})
	link := NewLink(srv, FaultPlan{CrashAfterFrames: 4, CrashDownFrames: 3})
	link.SetCrashHooks(
		func() {
			if err := srv.Crash(); err != nil {
				t.Errorf("crash hook: %v", err)
			}
		},
		func() {
			if _, err := srv.Recover(); err != nil {
				t.Errorf("recover hook: %v", err)
			}
		},
	)
	conn := link.NewConn(0, Config{BatchSize: 1})
	const n = 10
	for i := 0; i < n; i++ {
		if err := conn.OnSlice(rec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != n {
		t.Fatalf("records after crash+recovery = %d, want %d", got, n)
	}
	if ds := srv.DurabilityStats(); ds.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", ds.Recoveries)
	}
	cov := srv.Coverage()
	if !cov.Complete() {
		t.Fatalf("coverage incomplete after recovery: %+v", cov)
	}
}

// Heartbeats follow the lease cadence — one immediately, then at least
// every LeaseNs/2 of virtual time — without consuming link delivery
// attempts (existing crashafter schedules must not shift).
func TestHeartbeatCadence(t *testing.T) {
	srv := server.NewSharded(2)
	link := NewLink(srv, FaultPlan{})
	clk := &fakeClock{}
	conn := link.NewConn(3, Config{BatchSize: 1, LeaseNs: 1000})
	conn.BindClock(clk)
	times := []int64{0, 300, 600, 900, 1200}
	for i, now := range times {
		clk.now = now
		if err := conn.OnSlice(rec(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Heartbeats at t=0 (first flush), t=600 (>= 0+500), t=1200 (>= 600+500).
	if got := conn.Stats().Heartbeats; got != 3 {
		t.Fatalf("conn heartbeats = %d, want 3", got)
	}
	if got := srv.Heartbeats(); got != 3 {
		t.Fatalf("server heartbeats = %d, want 3", got)
	}
	if got := link.Attempts(); got != int64(len(times)) {
		t.Fatalf("attempts = %d, want %d (heartbeats must not consume attempts)", got, len(times))
	}
	// The server learned the lease and still counts the rank alive.
	live := srv.Liveness()
	if len(live) != 1 || live[0].Rank != 3 || live[0].LeaseNs != 1000 || live[0].State != server.Alive {
		t.Fatalf("liveness = %+v", live)
	}
	// Heartbeats are invisible to record accounting.
	if msgs := srv.Progress().Messages; msgs != int64(len(times)) {
		t.Fatalf("messages = %d, want %d record frames only", msgs, len(times))
	}
}
