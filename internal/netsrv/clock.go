package netsrv

import "time"

// The deadlines netsrv ships with. Each is a span of clock time, so a
// test that runs its clock fast runs these same values at the same ratios.
const (
	// dialTimeout bounds one connect: the TCP dial and the hello/ack
	// exchange share one deadline.
	dialTimeout = 5 * time.Second

	// opTimeout is the client's per-operation I/O deadline after the
	// handshake: every socket write and every blocking ack read must make
	// progress within it, so a dead or stalled peer surfaces as a timeout
	// instead of pinning the sender. It covers one full frame write plus a
	// server round trip.
	opTimeout = 10 * time.Second

	// backoffBase is the first sleep after a retryable dial failure with
	// no server hint; it doubles per attempt up to backoffMax.
	backoffBase = 5 * time.Millisecond
	backoffMax  = 500 * time.Millisecond

	// helloTimeout bounds how long an accepted connection may dawdle
	// before completing its vSS1 hello.
	helloTimeout = 5 * time.Second

	// writeTimeout is armed before every ack-bearing flush (session ack,
	// frame acks): a peer that stops reading cannot pin its goroutine once
	// the socket buffers fill.
	writeTimeout = 5 * time.Second

	// refuseTimeout bounds the courtesy write of a vSE1 refusal.
	refuseTimeout = time.Second
)

// clock is netsrv's one source of time: every deadline, backoff sleep and
// age check goes through it. A nil clock in a Config or ReconnectConfig is
// the wall clock, which is all product code uses; tests run one that is
// faster than the wall, so the shipped deadlines fire in milliseconds.
type clock interface {
	now() time.Time
	sleep(d time.Duration)
	// deadline is the wall instant at which d of clock time will have
	// passed: what sockets and dialers are handed.
	deadline(d time.Duration) time.Time
}

type wallClock struct{}

func (wallClock) now() time.Time                     { return time.Now() }
func (wallClock) sleep(d time.Duration)              { time.Sleep(d) }
func (wallClock) deadline(d time.Duration) time.Time { return time.Now().Add(d) }

// orWall is c, or the wall clock when c is nil.
func orWall(c clock) clock {
	if c == nil {
		return wallClock{}
	}
	return c
}

// arm sets one socket deadline through set (a conn's SetDeadline,
// SetReadDeadline or SetWriteDeadline). Its error is dropped: it only means
// the conn is closed, and the next Read or Write reports that.
func arm(set func(time.Time) error, t time.Time) {
	_ = set(t) //vs:discard only a closed conn fails it, and its next Read or Write says so
}
