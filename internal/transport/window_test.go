package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// scriptedWindow is a Windowed medium whose far end follows a script: it
// holds up to window accepted envelopes, answers the oldest when it needs
// room (and all of them on Drain), and decides each envelope's fate by its
// place in the acceptance order. An envelope the script spares is delivered
// to a real server, so the verdict (and the final log) is the real one. It
// has no lock of its own: the Link promises to call SendAsync and Drain one
// at a time, and -race holds it to that.
type scriptedWindow struct {
	srv     *server.Server
	link    *Link // set after NewLinkOver, to read the Link's own in-flight count
	window  int
	observe func(encoded []byte, err error)

	fate     func(i int) error // scripted failure of the i-th accepted envelope, nil = deliver
	giveUpAt int               // refuse the attempt that would be accepted as this index, once, answering everything queued "down"; -1 = never
	gaveUp   bool

	queue    []scriptedEnvelope
	accepted int
	peak     int         // most envelopes ever unanswered, by the Link's count
	failed   map[int]int // rank → attempts of its frames the script failed or refused
}

type scriptedEnvelope struct {
	idx   int
	frame []byte
}

func (m *scriptedWindow) Receive([]byte) error {
	panic("a Link over a Windowed medium must not call Receive")
}

func (m *scriptedWindow) ObserveAcks(fn func(encoded []byte, err error)) { m.observe = fn }

func (m *scriptedWindow) blame(frame []byte) {
	if h, err := server.ParseFrame(frame); err == nil {
		m.failed[h.Rank]++
	}
}

func (m *scriptedWindow) answer(forced error) {
	e := m.queue[0]
	m.queue = m.queue[1:]
	err := forced
	if err == nil {
		err = m.fate(e.idx)
	}
	if err != nil {
		m.blame(e.frame)
	} else {
		err = m.srv.Receive(e.frame)
	}
	m.observe(e.frame, err)
}

func (m *scriptedWindow) SendAsync(encoded []byte) error {
	if m.accepted == m.giveUpAt && !m.gaveUp {
		m.gaveUp = true
		for len(m.queue) > 0 {
			m.answer(server.ErrServerDown)
		}
		m.blame(encoded)
		return server.ErrServerDown
	}
	for len(m.queue) >= m.window {
		m.answer(nil)
	}
	m.queue = append(m.queue, scriptedEnvelope{m.accepted, append([]byte(nil), encoded...)})
	m.accepted++
	// The Link pushed this envelope's ticket before the call.
	if n := len(m.link.tickets) - m.link.thead; n > m.peak {
		m.peak = n
	}
	return nil
}

func (m *scriptedWindow) Drain() error {
	for len(m.queue) > 0 {
		m.answer(nil)
	}
	return nil
}

var errScriptedReject = errors.New("scripted reject")

func noReorder(p FaultPlan) FaultPlan {
	p.Reorder = 0
	return p
}

// TestLinkWindowAttribution scripts the far end of a windowed medium and
// checks the Link's five promises from the sender's side: a frame that comes
// back rejected, down, or unanswered at a give-up returns to its own rank and
// no other, is retransmitted, and the final log equals the synchronous
// reference; never more than the window is unanswered; nothing is in flight
// once a Conn has closed.
func TestLinkWindowAttribution(t *testing.T) {
	const ranks, perRank, batch, window = 6, 160, 8, 16
	const frames = ranks * perRank / batch
	want := runRanks(t, FaultPlan{}, ranks, perRank).Records()
	sortRecords(want)

	never := func(int) error { return nil }
	cases := []struct {
		name     string
		plan     FaultPlan
		leaseNs  int64
		fate     func(i int) error
		giveUpAt int
		failures int // scripted failures of first attempts; retransmits landing in the script add to it
	}{
		{name: "all acked", fate: never, giveUpAt: -1},
		{name: "reject frame 37", giveUpAt: -1, failures: 1, fate: func(i int) error {
			if i == 37 {
				return errScriptedReject
			}
			return nil
		}},
		{name: "down frames 50..53", giveUpAt: -1, failures: 4, fate: func(i int) error {
			if i >= 50 && i <= 53 {
				return server.ErrServerDown
			}
			return nil
		}},
		{name: "first and last", giveUpAt: -1, failures: 2, fate: func(i int) error {
			if i == 0 || i == frames-1 {
				return server.ErrServerDown
			}
			return nil
		}},
		{name: "give up with the window unanswered", fate: never, giveUpAt: 64, failures: 1},
		{name: "give up on the first frame", fate: never, giveUpAt: 0, failures: 1},
		// The dice on top: duplicates, corrupt copies, held frames and
		// heartbeats ride the window with their fate discarded, so only
		// exactly-once is asserted, not the retry ledger.
		{name: "chaos plan over the window", plan: chaosPlan, leaseNs: 1000, fate: never, giveUpAt: -1, failures: -1},
		// A held (reordered) frame was acked to its sender when it was held;
		// failing its late arrival loses it on the synchronous path too, so
		// the scripted far end only meets plans that hold nothing.
		{name: "chaos plan minus reorder, failing far end", plan: noReorder(chaosPlan), leaseNs: 1000, giveUpAt: 90, failures: -1, fate: func(i int) error {
			if i%29 == 7 {
				return server.ErrServerDown
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			m := &scriptedWindow{srv: server.New(), window: window, fate: tc.fate, giveUpAt: tc.giveUpAt, failed: map[int]int{}}
			link := NewLinkOver(m, tc.plan)
			link.SetObs(o)
			m.link = link

			var wg sync.WaitGroup
			stats := make([]ConnStats, ranks)
			errs := make([]error, ranks)
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					conn := link.NewConn(rank, Config{BatchSize: batch, LeaseNs: tc.leaseNs})
					conn.BindClock(&fakeClock{})
					for i := 0; i < perRank; i++ {
						if err := conn.OnSlice(rec(rank, i)); err != nil {
							errs[rank] = err
							return
						}
					}
					errs[rank] = conn.Close()
					if n := conn.inflight.Load(); n != 0 {
						errs[rank] = fmt.Errorf("%d envelopes in flight after Close", n)
					}
					if n := conn.nreturned.Load(); n != 0 {
						errs[rank] = fmt.Errorf("%d returned frames unclaimed after Close", n)
					}
					stats[rank] = conn.Stats()
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}

			got := m.srv.Records()
			sortRecords(got)
			if len(got) != len(want) {
				t.Fatalf("log has %d records, synchronous reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d differs after sorting: %+v vs %+v", i, got[i], want[i])
				}
			}
			if cov := m.srv.Coverage(); !cov.Complete() {
				t.Errorf("coverage incomplete: %+v", cov)
			}
			if m.peak > window {
				t.Errorf("%d envelopes unanswered at once, window is %d", m.peak, window)
			}
			if n := len(link.tickets) - link.thead; n != 0 || len(m.queue) != 0 {
				t.Errorf("%d tickets and %d queued envelopes left after every Close", n, len(m.queue))
			}
			if got := o.Registry().Counter("transport_window_stalls_total").Value(); got == 0 {
				t.Errorf("%d frames through a window of %d and no stall counted", frames, window)
			}
			if tc.failures < 0 {
				return
			}
			var failures int
			for rank, st := range stats {
				if st.Retries != int64(m.failed[rank]) {
					t.Errorf("rank %d: %d retries, the script failed %d of its attempts (all: %v)", rank, st.Retries, m.failed[rank], m.failed)
				}
				if st.FramesSent != perRank/batch || st.LostRecords != 0 || st.Parked != 0 {
					t.Errorf("rank %d: stats %+v, want %d frames sent and nothing lost or parked", rank, st, perRank/batch)
				}
				if (st.WaitNs != 0) != (st.Retries != 0) {
					t.Errorf("rank %d: charged %d ns for %d retries", rank, st.WaitNs, st.Retries)
				}
				failures += m.failed[rank]
			}
			if failures < tc.failures {
				t.Errorf("script failed %d attempts, want at least %d", failures, tc.failures)
			}
			refused := 0
			if m.gaveUp {
				refused = 1 // refused, not returned: it failed the call that sent it
			}
			if got := o.Registry().Counter("transport_returned_frames_total").Value(); got != int64(failures-refused) {
				t.Errorf("transport_returned_frames_total = %d, want %d", got, failures-refused)
			}
		})
	}
}
