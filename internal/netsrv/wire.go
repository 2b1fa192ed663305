// Package netsrv promotes the analysis server to a real networked service:
// a binary length-prefixed protocol over TCP that reuses the `vS*` frame
// formats from internal/server/wire.go, wrapped in a session layer so one
// listener multiplexes many concurrent *runs* (tenancy above the existing
// rank sharding — each run owns its own sharded server, durability, and
// snapshot cache).
//
// The wire conversation:
//
//	client                                 server
//	------ TCP connect ------------------->
//	------ envelope(vSS1 hello) ---------->  admission (caps)
//	<----- envelope(vSA1 session ack) ----   ...or envelope(vSE1 refuse)
//	------ envelope(vSF1/vSH1) ----------->  tenant server Receive
//	<----- envelope(1-byte frame ack) ----
//	------ ... pipelined frames ... ------>
//	<----- ... in-order acks ... ---------
//
// Every message travels in an *envelope*: a little-endian u32 byte length,
// a u32 IEEE CRC32 of the payload, then that many payload bytes. Payloads
// are self-describing — the first four bytes are a vS* magic (or the
// payload is the 1-byte frame-ack status) — and the session frames defined
// here (vSS1/vSA1/vSE1) carry their own CRC like the data frames they ride
// alongside. The envelope CRC is the stream-integrity armor underneath all
// of that: a flipped bit anywhere on the wire (length prefix included —
// a corrupted length mis-carves the next payload, which then fails its
// CRC) surfaces as ErrEnvelopeCorrupt, which both ends treat as
// connection-fatal. Corrupted bytes therefore never reach tenant
// accounting; the client reconnects and resumes at the durable LSN, which
// is what lets the socket+wire conformance rows demand *exact* equality
// with an undisturbed run even while the wire flips bits.
//
// The service serves each accepted connection on its own goroutine, at
// most MaxWorkers at once, and sheds load at that cap: the connection gets
// an explicit vSE1 busy reply with a retry-after hint — never a silent
// drop, hang or queue — so the client's retry/backoff engages.
package netsrv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"vsensor/internal/server"
)

// ProtocolVersion is the session-layer version carried in every vSS1
// hello; the server refuses anything else (RefuseBadHello), which is what
// lets the format evolve without ambiguity.
const ProtocolVersion = 1

// MaxRunIDLen bounds the tenancy key a hello may carry.
const MaxRunIDLen = 128

// Session-frame magics, little-endian like the vSF*/vSH1 data frames.
const (
	helloMagic  = 0x76535331 // "vSS1" — client hello, opens a session
	ackMagic    = 0x76534131 // "vSA1" — server session ack
	refuseMagic = 0x76534531 // "vSE1" — server busy/refuse + retry-after
)

// Fixed encoded sizes (the hello adds its variable-length run ID).
const (
	helloHeaderSize = 24
	sessionAckSize  = 20
	refuseSize      = 16
)

// Per-frame ack statuses: one byte per delivered data frame, in order.
const (
	frameAckOK     = 0 // ingested (or deduplicated) — the sender's ack
	frameAckReject = 1 // rejected: framing/CRC error, or oversized envelope
	frameAckDown   = 2 // tenant server is between Crash and Recover
)

// Hello is the decoded vSS1 handshake: protocol version, tenancy key, the
// sender's (primary) rank, and the LSN the client wants to resume from.
// Data frames carry their own rank field, so one session may legally relay
// frames for many ranks; Rank here names the session for metrics and caps.
//
// Layout (little endian):
//
//	off  0: u32 magic     "vSS1"
//	off  4: u16 version   ProtocolVersion
//	off  6: u16 runIDLen  1..MaxRunIDLen
//	off  8: u32 rank      primary sending rank
//	off 12: u64 resumeLSN client's resume position (0 = fresh)
//	off 20: u32 crc       IEEE CRC32 over header[0:20] + runID bytes
//	off 24: runID         runIDLen bytes, printable ASCII (0x21..0x7e)
type Hello struct {
	Version   uint16
	RunID     string
	Rank      int
	ResumeLSN uint64
}

// SessionAck is the decoded vSA1 reply accepting a hello. LSN is the run's
// current durable log-sequence number (0 for an in-memory tenant), telling
// a resuming client exactly how much of its history survived.
//
// Layout (little endian):
//
//	off  0: u32 magic   "vSA1"
//	off  4: u16 version
//	off  6: u16 flags   bit 0: run already existed (resumed tenancy)
//	off  8: u64 lsn     run's current durable LSN
//	off 16: u32 crc     IEEE CRC32 over bytes [0:16)
type SessionAck struct {
	Version uint16
	Flags   uint16
	LSN     uint64
}

// AckFlagResumed marks a session ack for a run that already existed on the
// server (another session created the tenant first, or this is a
// reconnect).
const AckFlagResumed = 1

// Refusal codes carried by vSE1.
const (
	RefuseBusy        = 1 // MaxWorkers connections already served — load shed
	RefuseRunSessions = 2 // per-run session cap reached
	RefuseRuns        = 3 // run (tenant) cap reached
	RefuseBadHello    = 4 // malformed/unsupported hello
	RefuseShutdown    = 5 // service is shutting down
)

// Refuse is the decoded vSE1 busy/refuse reply: the server cannot take the
// session now, and RetryAfterMs hints when to try again — the explicit
// backpressure signal that keeps clients backing off instead of hanging.
//
// Layout (little endian):
//
//	off  0: u32 magic        "vSE1"
//	off  4: u16 version
//	off  6: u16 code         Refuse* reason
//	off  8: u32 retryAfterMs backoff hint
//	off 12: u32 crc          IEEE CRC32 over bytes [0:12)
type Refuse struct {
	Version      uint16
	Code         uint16
	RetryAfterMs uint32
}

// Error renders a refusal as the client-side error Dial returns.
func (r Refuse) Error() string {
	return fmt.Sprintf("netsrv: session refused (%s), retry after %dms", refuseName(r.Code), r.RetryAfterMs)
}

func refuseName(code uint16) string {
	switch code {
	case RefuseBusy:
		return "busy: connection cap reached"
	case RefuseRunSessions:
		return "per-run session cap"
	case RefuseRuns:
		return "run cap"
	case RefuseBadHello:
		return "bad hello"
	case RefuseShutdown:
		return "shutting down"
	}
	return fmt.Sprintf("code %d", code)
}

// AppendHello serializes a hello onto dst. The encoding is canonical: for
// any Hello that ParseHello accepts, re-encoding reproduces the input bytes
// exactly (the FuzzSession property).
func AppendHello(dst []byte, h Hello) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, helloHeaderSize)...)
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr[0:], helloMagic)
	binary.LittleEndian.PutUint16(hdr[4:], h.Version)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(len(h.RunID)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(h.Rank))
	binary.LittleEndian.PutUint64(hdr[12:], h.ResumeLSN)
	dst = append(dst, h.RunID...)
	crc := crc32.ChecksumIEEE(dst[start : start+20])
	crc = crc32.Update(crc, crc32.IEEETable, dst[start+helloHeaderSize:])
	binary.LittleEndian.PutUint32(dst[start+20:], crc)
	return dst
}

// ParseHello validates a hello without trusting any field: length, magic,
// version, bounded and printable run ID, bounded rank, CRC. Arbitrary bytes
// must never panic; an accepted hello re-encodes byte-identically.
func ParseHello(data []byte) (Hello, error) {
	var h Hello
	if len(data) < helloHeaderSize {
		return h, fmt.Errorf("netsrv: short hello (%d bytes, header is %d)", len(data), helloHeaderSize)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != helloMagic {
		return h, fmt.Errorf("netsrv: bad hello magic %#x", m)
	}
	h.Version = binary.LittleEndian.Uint16(data[4:])
	if h.Version != ProtocolVersion {
		return h, fmt.Errorf("netsrv: unsupported protocol version %d (this side speaks %d)", h.Version, ProtocolVersion)
	}
	n := int(binary.LittleEndian.Uint16(data[6:]))
	if n == 0 || n > MaxRunIDLen {
		return h, fmt.Errorf("netsrv: hello run-ID length %d out of [1,%d]", n, MaxRunIDLen)
	}
	if len(data) != helloHeaderSize+n {
		return h, fmt.Errorf("netsrv: hello length %d, want %d for a %d-byte run ID", len(data), helloHeaderSize+n, n)
	}
	rank := binary.LittleEndian.Uint32(data[8:])
	if rank > server.MaxFrameRank {
		return h, fmt.Errorf("netsrv: hello claims rank %d (max %d)", rank, server.MaxFrameRank)
	}
	h.Rank = int(rank)
	h.ResumeLSN = binary.LittleEndian.Uint64(data[12:])
	id := data[helloHeaderSize:]
	for _, b := range id {
		if b < 0x21 || b > 0x7e {
			return h, fmt.Errorf("netsrv: hello run ID contains non-printable byte %#x", b)
		}
	}
	crc := crc32.ChecksumIEEE(data[:20])
	crc = crc32.Update(crc, crc32.IEEETable, id)
	if got := binary.LittleEndian.Uint32(data[20:]); got != crc {
		return h, fmt.Errorf("%w in hello: says %#x, computed %#x", server.ErrChecksum, got, crc)
	}
	h.RunID = string(id)
	return h, nil
}

// AppendSessionAck serializes a session ack onto dst (canonical encoding,
// same round-trip property as AppendHello).
func AppendSessionAck(dst []byte, a SessionAck) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, sessionAckSize)...)
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr[0:], ackMagic)
	binary.LittleEndian.PutUint16(hdr[4:], a.Version)
	binary.LittleEndian.PutUint16(hdr[6:], a.Flags)
	binary.LittleEndian.PutUint64(hdr[8:], a.LSN)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(hdr[:16]))
	return dst
}

// ParseSessionAck validates a vSA1 reply.
func ParseSessionAck(data []byte) (SessionAck, error) {
	var a SessionAck
	if len(data) != sessionAckSize {
		return a, fmt.Errorf("netsrv: session ack length %d, want %d", len(data), sessionAckSize)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != ackMagic {
		return a, fmt.Errorf("netsrv: bad session-ack magic %#x", m)
	}
	if got, want := binary.LittleEndian.Uint32(data[16:]), crc32.ChecksumIEEE(data[:16]); got != want {
		return a, fmt.Errorf("%w in session ack: says %#x, computed %#x", server.ErrChecksum, got, want)
	}
	a.Version = binary.LittleEndian.Uint16(data[4:])
	if a.Version != ProtocolVersion {
		return a, fmt.Errorf("netsrv: session ack version %d (this side speaks %d)", a.Version, ProtocolVersion)
	}
	a.Flags = binary.LittleEndian.Uint16(data[6:])
	a.LSN = binary.LittleEndian.Uint64(data[8:])
	return a, nil
}

// AppendRefuse serializes a vSE1 busy/refuse reply onto dst (canonical
// encoding, same round-trip property as AppendHello).
func AppendRefuse(dst []byte, r Refuse) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, refuseSize)...)
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr[0:], refuseMagic)
	binary.LittleEndian.PutUint16(hdr[4:], r.Version)
	binary.LittleEndian.PutUint16(hdr[6:], r.Code)
	binary.LittleEndian.PutUint32(hdr[8:], r.RetryAfterMs)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(hdr[:12]))
	return dst
}

// ParseRefuse validates a vSE1 reply.
func ParseRefuse(data []byte) (Refuse, error) {
	var r Refuse
	if len(data) != refuseSize {
		return r, fmt.Errorf("netsrv: refuse length %d, want %d", len(data), refuseSize)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != refuseMagic {
		return r, fmt.Errorf("netsrv: bad refuse magic %#x", m)
	}
	if got, want := binary.LittleEndian.Uint32(data[12:]), crc32.ChecksumIEEE(data[:12]); got != want {
		return r, fmt.Errorf("%w in refuse: says %#x, computed %#x", server.ErrChecksum, got, want)
	}
	r.Version = binary.LittleEndian.Uint16(data[4:])
	if r.Version != ProtocolVersion {
		return r, fmt.Errorf("netsrv: refuse version %d (this side speaks %d)", r.Version, ProtocolVersion)
	}
	r.Code = binary.LittleEndian.Uint16(data[6:])
	r.RetryAfterMs = binary.LittleEndian.Uint32(data[8:])
	return r, nil
}

// ---------- envelope framing ----------

// ErrEnvelopeTooLarge marks an envelope whose declared length exceeds the
// reader's cap — the huge-allocation guard of the stream layer.
var ErrEnvelopeTooLarge = errors.New("netsrv: envelope exceeds size cap")

// ErrEnvelopeCorrupt marks an envelope whose payload bytes do not match
// the CRC in its header. Unlike a frame-level checksum failure (which is
// a per-frame reject), a corrupt envelope means the byte stream itself
// can no longer be trusted — both ends kill the connection and rely on
// reconnect + resume-LSN to redeliver.
var ErrEnvelopeCorrupt = errors.New("netsrv: envelope CRC mismatch (stream corrupt)")

// envHeaderSize is the fixed envelope prefix: u32 payload length + u32
// IEEE CRC32 of the payload.
const envHeaderSize = 8

// envHeader is a decoded envelope prefix, carried alongside
// ErrEnvelopeTooLarge so the caller can drain (and still CRC-verify) a
// payload it refused to buffer.
type envHeader struct {
	n   int
	crc uint32
}

// writeEnvelope frames one payload onto w: u32 length + u32 CRC + bytes.
// The caller decides when to Flush — that is what lets pipelined frames
// and their acks batch into large socket writes.
func writeEnvelope(w *bufio.Writer, payload []byte) error {
	// Header bytes go through WriteByte so nothing escapes to the heap —
	// this runs once per envelope on the ingest hot path.
	n := uint32(len(payload))
	crc := crc32.ChecksumIEEE(payload)
	for shift := 0; shift < 32; shift += 8 {
		if err := w.WriteByte(byte(n >> shift)); err != nil {
			return err
		}
	}
	for shift := 0; shift < 32; shift += 8 {
		if err := w.WriteByte(byte(crc >> shift)); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// readEnvelope reads one framed payload into buf (reused across calls),
// enforcing the size cap BEFORE allocating and verifying the envelope CRC
// after reading. A too-large envelope returns ErrEnvelopeTooLarge with the
// decoded header so the caller can drainEnvelope the payload and keep the
// stream synchronized; a CRC mismatch returns ErrEnvelopeCorrupt, which is
// connection-fatal for every caller.
func readEnvelope(r *bufio.Reader, buf []byte, maxBytes int) ([]byte, envHeader, error) {
	// The header is decoded in place for the reason writeEnvelope's goes
	// through WriteByte: a stack array handed to io.ReadFull escapes, one
	// allocation per envelope on both ends of the wire.
	hdrBuf, err := r.Peek(envHeaderSize)
	if err != nil {
		if len(hdrBuf) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF // what io.ReadFull calls a torn header
		}
		return nil, envHeader{}, err
	}
	hdr := envHeader{
		n:   int(binary.LittleEndian.Uint32(hdrBuf[0:])),
		crc: binary.LittleEndian.Uint32(hdrBuf[4:]),
	}
	_, _ = r.Discard(envHeaderSize) //vs:discard cannot fail: Peek just buffered these bytes
	if hdr.n > maxBytes {
		return nil, hdr, fmt.Errorf("%w: %d bytes declared, cap %d", ErrEnvelopeTooLarge, hdr.n, maxBytes)
	}
	if cap(buf) < hdr.n {
		buf = make([]byte, hdr.n)
	}
	buf = buf[:hdr.n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, hdr, err
	}
	if got := crc32.ChecksumIEEE(buf); got != hdr.crc {
		return nil, hdr, fmt.Errorf("%w: header says %#x, payload hashes %#x", ErrEnvelopeCorrupt, hdr.crc, got)
	}
	return buf, hdr, nil
}

// drainEnvelope skips a payload readEnvelope refused to buffer, keeping
// the envelope stream aligned — but still verifies the CRC while
// discarding, because an oversized *declared* length may itself be wire
// corruption: a genuine oversized frame drains clean (per-frame reject),
// a corrupted length prefix drains dirty (ErrEnvelopeCorrupt, kill the
// connection).
func drainEnvelope(r *bufio.Reader, hdr envHeader) error {
	crc := uint32(0)
	remaining := hdr.n
	for remaining > 0 {
		chunk := remaining
		if chunk > 32<<10 {
			chunk = 32 << 10
		}
		b, err := r.Peek(chunk)
		if len(b) == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		if _, err := r.Discard(len(b)); err != nil {
			return err
		}
		remaining -= len(b)
	}
	if crc != hdr.crc {
		return fmt.Errorf("%w: header says %#x, drained payload hashes %#x", ErrEnvelopeCorrupt, hdr.crc, crc)
	}
	return nil
}
