package netsrv

import "time"

// fastClock runs k times faster than the wall: every deadline netsrv ships
// fires after 1/k of its span, and every clock-time assertion of a test is
// the same ratio to the constants that production sees. A test picks k,
// never a deadline.
type fastClock struct {
	start time.Time
	k     time.Duration
}

// fast is a clock k times the wall's speed, starting now.
func fast(k int) clock { return fastClock{start: time.Now(), k: time.Duration(k)} }

func (c fastClock) now() time.Time                     { return c.start.Add(time.Since(c.start) * c.k) }
func (c fastClock) sleep(d time.Duration)              { time.Sleep(d / c.k) }
func (c fastClock) deadline(d time.Duration) time.Time { return time.Now().Add(d / c.k) }

// netClock is what the net tables run on: the shipped 10s per-operation
// deadline fires after 250ms of wall time, the 5s dial, hello and ack-write
// deadlines after 125ms, and redial backoff grows from 125µs to 12.5ms.
var netClock = fast(40)

// deadlineClock runs the tests that wait one of the client's deadlines or
// its whole retry budget out — the literal wire rows whose silences only
// those deadlines end in time, and an outage no redial cures: its 10s read
// deadline passes after 50ms of wall time and its 5s dial deadline after
// 25ms, a fifth of netClock's cost.
var deadlineClock = fast(200)
