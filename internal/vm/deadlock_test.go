package vm

import (
	"runtime"
	"testing"
	"time"
)

// An MPI program whose ranks can never all finish fails instead of hanging:
// once every unfinished rank waits, each faults at the MPI call it waits in,
// and Run returns with no rank goroutine left behind.
func TestMismatchedMPIFails(t *testing.T) {
	for _, c := range []struct {
		name string
		src  string
		want []string // each rank's error
	}{
		{"barrier-on-rank-0-only", `func main() {
    if (mpi_comm_rank() == 0) {
        mpi_barrier();
    }
}`, []string{"rank 0: 3:9: mpi_barrier: deadlock: waits in barrier, which 1 of 4 ranks reached, and no other rank can run", "", "", ""}},
		{"recv-nobody-sends", `func main() {
    if (mpi_comm_rank() == 0) {
        mpi_recv(1, 8);
    }
}`, []string{"rank 0: 3:9: mpi_recv: deadlock: waits for a message from rank 1 and no other rank can run", "", "", ""}},
		{"rank-0-faults-before-barrier", `func main() {
    int a[3];
    if (mpi_comm_rank() == 0) { a[5] = 1; }
    mpi_barrier();
}`, []string{
			"rank 0: 3:33: index 5 out of range [0,3)",
			"rank 1: 4:5: mpi_barrier: deadlock: waits in barrier, which 3 of 4 ranks reached, and no other rank can run",
			"rank 2: 4:5: mpi_barrier: deadlock: waits in barrier, which 3 of 4 ranks reached, and no other rank can run",
			"rank 3: 4:5: mpi_barrier: deadlock: waits in barrier, which 3 of 4 ranks reached, and no other rank can run",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New(mustProg(t, c.src), Config{Ranks: 4})
			before := runtime.NumGoroutine()
			done := make(chan *Result, 1)
			go func() { done <- m.Run() }()
			var res *Result
			select {
			case res = <-done:
			case <-time.After(time.Second):
				t.Fatal("Run still waits after 1 s")
			}
			for r, st := range res.Ranks {
				got := ""
				if st.Err != nil {
					got = st.Err.Error()
				}
				if got != c.want[r] {
					t.Errorf("rank %d's error = %q, want %q", r, got, c.want[r])
				}
			}
			if got := res.Err(); got == nil || got.Error() != c.want[0] {
				t.Errorf("Result.Err() = %v, want rank 0's %q", got, c.want[0])
			}
			// A rank goroutine exits just after it signals its end.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}
