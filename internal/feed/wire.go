package feed

import (
	"cmp"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"
)

// wireConns is how many of a trial's first connections a drawn wire event
// may land on: about as many as the drawn resets, flips and silences end.
const wireConns = 6

// wireEvent places one drawn wire event of kind at a byte inside what its
// direction carries: in bytes the service reads, out bytes it writes.
func wireEvent(r *rand.Rand, kind Kind, span time.Duration, in, out int64) Event {
	e := Event{Kind: kind, At: r.IntN(wireConns), Out: r.IntN(2) == 0, Span: span}
	size := in
	if e.Out {
		size = out
	}
	e.Arg = r.Int64N(max(size, 1))
	return e
}

// Wire is a listener whose connections suffer a trial's wire events (Reset
// through Partition), on the service's side of the socket. An event is
// placed by connection (At, in accept order), direction (Out) and byte in
// that direction (Arg), and its window (Span) is the service's clock time,
// so where a fault lands is the trial's alone.
type Wire struct {
	net.Listener
	events   []Event // the trial's wire events, by byte
	deadline func(time.Duration) time.Time

	mu        sync.Mutex
	conns     []*wireConn // by accept order
	fired     [numKinds]int
	hungUp    int
	partition time.Time // when the last partition window ends
}

// Wire wraps ln, a service's listener. deadline is the service's clock: the
// wall instant at which d of its time will have passed.
func (t Trial) Wire(ln net.Listener, deadline func(time.Duration) time.Time) *Wire {
	w := &Wire{Listener: ln, deadline: deadline}
	for _, e := range t.Events {
		if e.Kind >= Reset {
			w.events = append(w.events, e)
		}
	}
	slices.SortStableFunc(w.events, func(a, b Event) int { return cmp.Compare(a.Arg, b.Arg) })
	return w
}

// Accept hands the service its next connection, silent from the start if a
// partition window is open.
func (w *Wire) Accept() (net.Conn, error) {
	nc, err := w.Listener.Accept()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	c := &wireConn{Conn: nc, w: w, k: len(w.conns), ev: map[bool][]Event{}, pos: map[bool]int64{}, done: make(chan struct{})}
	for _, e := range w.events {
		if e.At == c.k {
			c.ev[e.Out] = append(c.ev[e.Out], e)
		}
	}
	w.conns = append(w.conns, c)
	if time.Now().Before(w.partition) && c.silence(w.partition) {
		w.fired[Partition]++
	}
	return c, nil
}

// Fired is how many times the trial's events of kind hit a connection; a
// partition hits each connection it silences.
func (w *Wire) Fired(kind Kind) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired[kind]
}

// HungUp is how many silent connections the client closed before their
// window ended: each one a deadline of the client's that fired, since
// nothing else makes it give up on a connection that says nothing.
func (w *Wire) HungUp() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hungUp
}

// Settle waits up to d for every connection a fault must end — one that
// delivered a flipped byte, which the service read or sent, or one that went
// silent — to close, and lists the ordinals of those still open: a flip no
// parser tore its connection down for, or a silence that outlived its window.
func (w *Wire) Settle(d time.Duration) []int {
	w.mu.Lock()
	ended := slices.DeleteFunc(slices.Clone(w.conns), func(c *wireConn) bool { return c.flips == 0 && c.until.IsZero() })
	w.mu.Unlock()
	late := make(chan struct{})
	defer time.AfterFunc(d, func() { close(late) }).Stop()
	var open []int
	for _, c := range ended {
		select {
		case <-c.done:
		case <-late:
			select {
			case <-c.done:
			default:
				open = append(open, c.k)
			}
		}
	}
	return open
}

// wireConn is one accepted connection and the events placed on it.
type wireConn struct {
	net.Conn
	w    *Wire
	k    int              // its ordinal
	ev   map[bool][]Event // still ahead, by direction (Out) and byte
	pos  map[bool]int64   // bytes read, bytes written
	done chan struct{}

	// Under w.mu.
	until  time.Time // the end of the window that silenced it; zero while it talks
	closed bool
	flips  int // flipped bytes delivered
}

// Close tears the connection down: what the service calls, and what every
// fault that ends a connection calls.
func (c *wireConn) Close() error {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	return c.Conn.Close()
}

// silence makes c drop what the service writes and swallow what it reads
// until the window ends, and then closes it, unless an end gives up on it
// first. It reports whether c went silent. Called with w.mu held.
func (c *wireConn) silence(until time.Time) bool {
	if c.closed || !c.until.IsZero() {
		return false
	}
	c.until = until
	time.AfterFunc(time.Until(until), func() { c.Close() })
	return true
}

func (c *wireConn) silent() bool {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return !c.until.IsZero()
}

// fire applies the events due at c's position in direction out and returns
// how many bytes may pass before the next one, and the mask to flip into
// the first of them. Its error means a fault closed c.
func (c *wireConn) fire(out bool) (limit int, flip byte, err error) {
	limit = math.MaxInt
	for len(c.ev[out]) > 0 && c.ev[out][0].Arg <= c.pos[out] {
		e := c.ev[out][0]
		c.ev[out] = c.ev[out][1:]
		c.w.mu.Lock()
		c.w.fired[e.Kind]++
		switch e.Kind {
		case HalfOpen:
			c.silence(c.w.deadline(e.Span))
		case Partition:
			c.w.partition = c.w.deadline(e.Span)
			c.silence(c.w.partition)
			for _, o := range c.w.conns {
				if o != c && o.silence(c.w.partition) {
					c.w.fired[Partition]++
				}
			}
		}
		c.w.mu.Unlock()
		switch e.Kind {
		case Reset:
			if tc, ok := c.Conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			c.Close()
			return 0, 0, net.ErrClosed
		case Stall:
			select {
			case <-time.After(time.Until(c.w.deadline(e.Span))):
			case <-c.done:
				return 0, 0, net.ErrClosed
			}
		case BitFlip:
			flip, limit = 1<<(e.Arg%8), 1
		case Short:
			limit = 1
		}
	}
	if len(c.ev[out]) > 0 {
		limit = min(limit, int(c.ev[out][0].Arg-c.pos[out]))
	}
	return limit, flip, nil
}

// delivered books a flipped byte that left the wire.
func (c *wireConn) delivered() {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	c.flips++
}

// Read hands the service the next bytes the client sent, up to the next
// event. A silent connection swallows them until the client hangs up, the
// service's read deadline fires or the window's end closes it, and returns
// that error.
func (c *wireConn) Read(p []byte) (int, error) {
	limit, flip, err := c.fire(false)
	if err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(p[:min(len(p), limit)])
	for c.silent() {
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
				c.w.mu.Lock()
				c.w.hungUp++
				c.w.mu.Unlock()
			}
			return 0, err
		}
		_, err = c.Conn.Read(p)
	}
	if n > 0 && flip != 0 {
		p[0] ^= flip
		c.delivered()
	}
	c.pos[false] += int64(n)
	return n, err
}

// Write sends what the service wrote, cut at each event; a silent
// connection drops it.
func (c *wireConn) Write(p []byte) (int, error) {
	sent := 0
	for sent < len(p) {
		limit, flip, err := c.fire(true)
		if err != nil {
			return sent, err
		}
		if c.silent() {
			return len(p), nil
		}
		chunk := p[sent : sent+min(limit, len(p)-sent)]
		if flip != 0 {
			chunk = []byte{chunk[0] ^ flip}
		}
		n, err := c.Conn.Write(chunk)
		if n > 0 && flip != 0 {
			c.delivered()
		}
		sent += n
		c.pos[true] += int64(n)
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}
