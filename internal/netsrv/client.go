package netsrv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// ErrFrameRejected is what a frameAckReject status surfaces as on the
// client: the server parsed the envelope but refused the frame (bad CRC,
// bad header, oversized envelope).
var ErrFrameRejected = errors.New("netsrv: server rejected frame")

// clientConn is one handshaken connection of a ResilientSession: the socket,
// its buffers and its deadlines. It has no lock, no window and no memory of
// failures — the session owns all three and drops a clientConn on its first
// transport error.
type clientConn struct {
	nc      net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	ack     SessionAck
	clk     clock
	flushed time.Time // last flush write forced on age (flushLag), clock time
	readDl  time.Time // last armed read deadline (freshness gate), clock time
	writeDl time.Time // last armed write deadline (freshness gate), clock time
	ackBuf  []byte
}

// armRead and armWrite set the per-operation socket deadlines — the
// dead-peer defense. Each blocking read and each operation's writes must
// make progress within opTimeout. Re-arming is freshness-gated: the
// deadline is pushed out only once it has decayed below opTimeout/2, so
// the effective bound on any single blocking call stays within
// [opTimeout/2, opTimeout] while the hot path skips almost all of the
// runtime-timer churn a per-call SetDeadline would cost.
func (c *clientConn) armRead() {
	if now := c.clk.now(); c.readDl.Sub(now) <= opTimeout/2 {
		c.readDl = now.Add(opTimeout)
		arm(c.nc.SetReadDeadline, c.clk.deadline(opTimeout))
	}
}

func (c *clientConn) armWrite() {
	if now := c.clk.now(); c.writeDl.Sub(now) <= opTimeout/2 {
		c.writeDl = now.Add(opTimeout)
		arm(c.nc.SetWriteDeadline, c.clk.deadline(opTimeout))
	}
}

// write queues one envelope. No frame waits in the write buffer longer than
// flushLag while frames keep coming: a trickle goes out frame by frame, as
// promptly as a round trip would send it; a firehose fills the buffer before
// this fires.
func (c *clientConn) write(encoded []byte) error {
	c.armWrite()
	if err := writeEnvelope(c.w, encoded); err != nil {
		return err
	}
	if now := c.clk.now(); now.Sub(c.flushed) > flushLag {
		c.flushed = now
		return c.w.Flush()
	}
	return nil
}

// flushLag is how stale write lets the write buffer get: well under a
// report interval, well over the time a saturated sender takes to fill it.
const flushLag = 2 * time.Millisecond

// flush sends every queued envelope.
func (c *clientConn) flush() error {
	c.armWrite()
	return c.w.Flush()
}

// buffered reports whether a whole ack envelope (envHeaderSize+1 bytes) can
// be read without touching the socket.
func (c *clientConn) buffered() bool { return c.r.Buffered() >= envHeaderSize+1 }

// readAck consumes one 1-byte ack envelope. Anything other than a clean,
// known status is a stream-integrity failure.
func (c *clientConn) readAck() (byte, error) {
	c.armRead()
	payload, _, err := readEnvelope(c.r, c.ackBuf, 1)
	if err != nil {
		return 0, fmt.Errorf("netsrv: ack read: %w", err)
	}
	c.ackBuf = payload[:0]
	if len(payload) != 1 {
		return 0, fmt.Errorf("netsrv: ack envelope has %d bytes, want 1", len(payload))
	}
	if payload[0] > frameAckDown {
		return 0, fmt.Errorf("netsrv: unknown ack status %d", payload[0])
	}
	return payload[0], nil
}
