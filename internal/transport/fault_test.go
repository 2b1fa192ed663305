package transport

import (
	"runtime"
	"strings"
	"testing"

	"vsensor/internal/server"
)

func TestFaultPlanZero(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		want bool
	}{
		{"empty", FaultPlan{}, true},
		{"seed only", FaultPlan{Seed: 7}, true}, // a seed without rates injects nothing
		{"drop", FaultPlan{Drop: 0.1}, false},
		{"dup", FaultPlan{Dup: 0.1}, false},
		{"reorder", FaultPlan{Reorder: 0.1}, false},
		{"corrupt", FaultPlan{Corrupt: 0.1}, false},
		{"delay", FaultPlan{DelayNs: 1}, false},
		{"crashafter", FaultPlan{CrashAfterFrames: 5}, false},
		// Regression: Zero() used to ignore CrashDownFrames, so a plan that
		// only set the down window was treated as fault-free.
		{"crashdown only", FaultPlan{CrashDownFrames: 5}, false},
		{"deadrank", FaultPlan{DeadRank: 1, DeadAfterFrames: 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.plan.Zero(); got != tc.want {
				t.Errorf("Zero(%+v) = %v, want %v", tc.plan, got, tc.want)
			}
		})
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name    string
		plan    FaultPlan
		wantErr string // substring; empty means valid
	}{
		{"zero", FaultPlan{}, ""},
		{"full valid", FaultPlan{Drop: 0.5, Dup: 1, Reorder: 0, Corrupt: 0.01, DelayNs: 10,
			CrashAfterFrames: 5, CrashDownFrames: 2, DeadRank: 3, DeadAfterFrames: 7}, ""},
		{"rate above one", FaultPlan{Drop: 1.5}, "out of [0,1]"},
		{"negative rate", FaultPlan{Corrupt: -0.1}, "out of [0,1]"},
		{"negative delay", FaultPlan{DelayNs: -1}, "negative delay/crash"},
		{"negative crashafter", FaultPlan{CrashAfterFrames: -1}, "negative delay/crash"},
		{"crashdown without crashafter", FaultPlan{CrashDownFrames: 4}, "without crashafter"},
		{"negative deadrank", FaultPlan{DeadRank: -2, DeadAfterFrames: 1}, "negative deadrank"},
		{"negative deadafter", FaultPlan{DeadAfterFrames: -1}, "negative deadrank"},
		{"deadrank without deadafter", FaultPlan{DeadRank: 2}, "without deadafter"},
		{"deadafter alone kills rank 0", FaultPlan{DeadAfterFrames: 3}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Validate(%+v) = %v, want nil", tc.plan, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate(%+v) = %v, want error containing %q", tc.plan, err, tc.wantErr)
			}
		})
	}
}

func TestParsePlanDeadRank(t *testing.T) {
	p, err := ParsePlan("deadrank=2,deadafter=5,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.DeadRank != 2 || p.DeadAfterFrames != 5 || p.Seed != 9 {
		t.Fatalf("parsed %+v", p)
	}
	// String renders the pair; re-parsing round-trips.
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("round trip %q -> %+v, want %+v", p.String(), back, p)
	}

	for _, spec := range []string{
		"deadrank=2",             // no deadafter: the rank would never die
		"deadrank=0",             // explicit rank 0, still needs deadafter
		"deadafter=-1",           // negative
		"deadrank=x,deadafter=1", // unparsable
		"crashdown=5",            // down window without a start
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted an invalid spec", spec)
		}
	}

	// deadrank=0 paired with deadafter is legal: rank 0 can die.
	p, err = ParsePlan("deadrank=0,deadafter=4")
	if err != nil {
		t.Fatal(err)
	}
	if p.DeadRank != 0 || p.DeadAfterFrames != 4 {
		t.Fatalf("parsed %+v", p)
	}
}

// NewConn pays for a fault stream only when the plan can roll dice: every
// instrumented run goes through a Link, and a rand source is ~5 KB per
// rank that a dice-free plan never reads. A faulty plan must keep the
// exact (Seed, rank) schedule it always had — the numbers pinned below
// were recorded before the stream became lazy.
func TestNewConnFaultStreamIsLazyAndStable(t *testing.T) {
	quiet := NewLink(server.New(), FaultPlan{})
	const conns = 100
	keep := make([]*Conn, conns)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = quiet.NewConn(i, Config{})
	}
	runtime.ReadMemStats(&after)
	if perConn := (after.TotalAlloc - before.TotalAlloc) / conns; perConn >= 1024 {
		t.Errorf("NewConn under FaultPlan{} allocates %d B per conn, want < 1 KiB", perConn)
	}

	srv := server.New()
	lossy := NewLink(srv, FaultPlan{Seed: 11, Drop: 0.2, Dup: 0.1, Reorder: 0.1, Corrupt: 0.15, DelayNs: 500})
	conn := lossy.NewConn(3, Config{BatchSize: 4})
	for i := 0; i < 200; i++ {
		if err := conn.OnSlice(rec(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	st, cov := conn.Stats(), srv.Coverage()
	got := [5]int64{st.Retries, st.WaitNs, lossy.Attempts(), cov.DupFrames, cov.ChecksumErrors}
	want := [5]int64{18, 1457100, 58, 3, 8}
	if got != want || !cov.Complete() {
		t.Errorf("fault schedule moved: {retries, waitNs, attempts, dupFrames, checksumErrors} = %v, want %v (coverage %+v)", got, want, cov)
	}
}
