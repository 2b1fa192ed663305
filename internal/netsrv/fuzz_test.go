package netsrv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/server"
)

// FuzzSession hammers the session-layer parsers with arbitrary bytes:
// hostile versions, run-ID lengths and charsets, resume LSNs, truncations,
// and vS-magic confusion (vSF1/vSH1 data frames fed to the handshake
// parser). Two properties must hold for every input:
//
//  1. No parser panics or over-allocates — hostile lengths are bounded
//     before use.
//  2. Accept ⇒ byte-exact re-encode: any payload a parser accepts must
//     re-serialize to exactly the input bytes. This pins the encodings as
//     canonical — there is no second byte string for the same Hello, so
//     CRC checks, dedup, and cross-version hashing stay meaningful.
func FuzzSession(f *testing.F) {
	// Valid frames of each session type.
	f.Add(AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "run-a", Rank: 3, ResumeLSN: 99}))
	f.Add(AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "x", Rank: 0}))
	f.Add(AppendSessionAck(nil, SessionAck{Version: ProtocolVersion, Flags: AckFlagResumed, LSN: 12345}))
	f.Add(AppendRefuse(nil, Refuse{Version: ProtocolVersion, Code: RefuseBusy, RetryAfterMs: 50}))
	// Truncations and hostile mutations.
	hello := AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "truncated", Rank: 1})
	f.Add(hello[:helloHeaderSize-1])
	f.Add(hello[:len(hello)-3])
	long := AppendHello(nil, Hello{Version: ProtocolVersion, RunID: string(bytes.Repeat([]byte{'z'}, MaxRunIDLen)), Rank: server.MaxFrameRank})
	f.Add(long)
	// Magic confusion: real vSF1 and vSH1 payloads must be rejected by the
	// session parsers, not misread.
	f.Add(server.AppendFrame(nil, server.FrameHeader{Rank: 2, Seq: 1, CumRecords: 1},
		[]detect.SliceRecord{{Sensor: 1, Rank: 2, Count: 1, AvgNs: 10}}))
	f.Add(server.AppendHeartbeat(nil, 4, 1e9, 5e9))
	// Envelope streams: whole, truncated mid-payload, CRC-corrupted, and a
	// corrupted length prefix carving into the next envelope's bytes.
	env := encodeEnvelope(nil, AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "env", Rank: 1}))
	env = encodeEnvelope(env, AppendSessionAck(nil, SessionAck{Version: ProtocolVersion, LSN: 7}))
	f.Add(env)
	f.Add(env[:len(env)-5])
	crcFlip := append([]byte(nil), env...)
	crcFlip[5] ^= 0x10 // CRC field of the first envelope
	f.Add(crcFlip)
	bitFlip := append([]byte(nil), env...)
	bitFlip[envHeaderSize+2] ^= 0x01 // payload byte: CRC must catch it
	f.Add(bitFlip)
	lenFlip := append([]byte(nil), env...)
	lenFlip[0] ^= 0x04 // length prefix: mis-carves the next payload
	f.Add(lenFlip)

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := ParseHello(data); err == nil {
			if h.Version != ProtocolVersion {
				t.Fatalf("accepted hello with version %d", h.Version)
			}
			if n := len(h.RunID); n == 0 || n > MaxRunIDLen {
				t.Fatalf("accepted hello with run-ID length %d", n)
			}
			if h.Rank < 0 || h.Rank > server.MaxFrameRank {
				t.Fatalf("accepted hello with rank %d", h.Rank)
			}
			if re := AppendHello(nil, h); !bytes.Equal(re, data) {
				t.Fatalf("hello re-encode differs:\n in: %x\nout: %x", data, re)
			}
		}
		if a, err := ParseSessionAck(data); err == nil {
			if re := AppendSessionAck(nil, a); !bytes.Equal(re, data) {
				t.Fatalf("session-ack re-encode differs:\n in: %x\nout: %x", data, re)
			}
		}
		if r, err := ParseRefuse(data); err == nil {
			if re := AppendRefuse(nil, r); !bytes.Equal(re, data) {
				t.Fatalf("refuse re-encode differs:\n in: %x\nout: %x", data, re)
			}
		}
		// A payload can satisfy at most one vS* parser: the magics are
		// distinct, so cross-acceptance would mean a parser ignored them.
		accepted := 0
		if _, err := ParseHello(data); err == nil {
			accepted++
		}
		if _, err := ParseSessionAck(data); err == nil {
			accepted++
		}
		if _, err := ParseRefuse(data); err == nil {
			accepted++
		}
		if _, err := server.ParseFrame(data); err == nil {
			accepted++
		}
		if accepted > 1 {
			t.Fatalf("%d parsers accepted the same %d-byte payload", accepted, len(data))
		}
		// Envelope-stream property: decode data as a CRC-framed stream.
		// Every accepted envelope must re-encode to exactly the bytes
		// consumed (canonical framing), and a corrupted or truncated
		// stream must stop cleanly — no panic, no over-allocation past
		// the declared cap.
		r := bufio.NewReader(bytes.NewReader(data))
		off := 0
		for {
			payload, _, err := readEnvelope(r, nil, 1<<20)
			if err != nil {
				break
			}
			n := envHeaderSize + len(payload)
			if off+n > len(data) {
				t.Fatalf("envelope at %d claims %d bytes past input end", off, n)
			}
			if re := encodeEnvelope(nil, payload); !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("envelope re-encode differs at offset %d", off)
			}
			off += n
		}
	})
}

// encodeEnvelope appends the wire envelope (length, CRC, payload) for
// payload to dst — the test-side mirror of writeEnvelope.
func encodeEnvelope(dst, payload []byte) []byte {
	var hdr [envHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}
