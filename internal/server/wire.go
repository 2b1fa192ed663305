package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
)

// Wire format: one frame per transferred batch.
//
// Frame layout (little endian):
//
//	off  0: u32 magic       "vSF1"
//	off  4: u32 rank        sending rank
//	off  8: u64 seq         per-rank frame sequence number, 1-based
//	off 16: u64 cumRecords  cumulative records sent by this rank, incl. frame
//	off 24: u32 count       records in this frame
//	off 28: u32 crc         IEEE CRC32 over header[0:28] + payload
//	off 32: payload         count * recordWireSize bytes
//
// Per record: u32 sensor, u32 group, u32 rank, i64 slice, i32 count,
// f64 avgNs, f64 avgInstr. A record's rank must equal the header rank: a
// frame is one sender's batch (paper §5.4), so the server files the whole
// frame — flow, progress, lease — under one rank in one shard.
//
// The sequence number lets the server deduplicate retransmissions and track
// per-rank delivery gaps; cumRecords lets it compute how many records it
// *should* have seen from a rank even when frames are still missing; the CRC
// rejects bit-corrupted frames before any of the header is trusted. A
// sampled frame's lineage trace is not on the wire: it is a pure function of
// (rank, seq), which every hop holding the shared sampler derives (TraceOf).
const (
	frameMagic     = 0x76534631 // "vSF1"
	recordWireSize = 4 + 4 + 4 + 8 + 4 + 8 + 8
)

// FrameHeaderSize is the bytes before a frame's first record: the room a
// sender that stages records in place leaves for SealFrame.
const FrameHeaderSize = 32

// FrameSize is the length of a frame that carries records records.
func FrameSize(records int) int { return FrameHeaderSize + records*recordWireSize }

// MaxFrameRecords bounds the record count a frame header may claim. It is a
// huge-allocation guard: a hostile 32-bit count could otherwise demand a
// multi-gigabyte decode before any payload byte is validated.
const MaxFrameRecords = 1 << 20

// MaxFrameRank bounds the sender rank a frame header may claim, so a
// corrupted rank field cannot blow up per-rank tracking maps.
const MaxFrameRank = 1 << 22

// ErrChecksum marks a frame whose CRC did not match its contents — the
// transport's bit-corruption failure mode, as opposed to a framing error.
var ErrChecksum = errors.New("server: frame checksum mismatch")

// FrameHeader is the decoded per-frame metadata.
type FrameHeader struct {
	Rank       int
	Seq        uint64
	CumRecords uint64
	Count      int
}

// AppendFrame serializes a frame onto dst (usually a reused buffer with len
// 0) and returns the extended slice. h.Count is taken from len(recs); the
// CRC is computed here. It is AppendRecord over header room, then SealFrame:
// a sender that stages records as they are produced (transport.Conn) builds
// the same bytes.
func AppendFrame(dst []byte, h FrameHeader, recs []detect.SliceRecord) []byte {
	start := len(dst)
	dst = slices.Grow(dst, FrameSize(len(recs)))[:start+FrameHeaderSize]
	for _, r := range recs {
		dst = AppendRecord(dst, r)
	}
	SealFrame(dst[start:], h)
	return dst
}

// AppendRecord appends r in the 40-byte wire record layout: the one record
// encoder, behind every frame a sender builds.
func AppendRecord(dst []byte, r detect.SliceRecord) []byte {
	n := len(dst)
	if cap(dst)-n < recordWireSize {
		dst = slices.Grow(dst, recordWireSize)
	}
	dst = dst[:n+recordWireSize]
	w := (*wireRec)(dst[n:])
	binary.LittleEndian.PutUint32(w[0:], uint32(r.Sensor))
	binary.LittleEndian.PutUint32(w[4:], uint32(r.Group))
	binary.LittleEndian.PutUint32(w[8:], uint32(r.Rank))
	binary.LittleEndian.PutUint64(w[12:], uint64(r.SliceNs))
	binary.LittleEndian.PutUint32(w[20:], uint32(r.Count))
	binary.LittleEndian.PutUint64(w[24:], math.Float64bits(r.AvgNs))
	binary.LittleEndian.PutUint64(w[32:], math.Float64bits(r.AvgInstr))
	return dst
}

// SealFrame makes frame — FrameHeaderSize bytes of header room followed by
// whole wire records — a complete frame in place: it writes h's rank,
// sequence and cumulative count, the record count the payload holds
// (h.Count is ignored), and the CRC.
func SealFrame(frame []byte, h FrameHeader) {
	hdr := (*[FrameHeaderSize]byte)(frame)
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(h.Rank))
	binary.LittleEndian.PutUint64(hdr[8:], h.Seq)
	binary.LittleEndian.PutUint64(hdr[16:], h.CumRecords)
	binary.LittleEndian.PutUint32(hdr[24:], uint32((len(frame)-FrameHeaderSize)/recordWireSize))
	crc := crc32.ChecksumIEEE(hdr[:28])
	crc = crc32.Update(crc, crc32.IEEETable, frame[FrameHeaderSize:])
	binary.LittleEndian.PutUint32(hdr[28:], crc)
}

// ParseFrame validates a frame without trusting any header field: length,
// magic, bounded record count (before the count is used to size anything),
// exact framing, bounded rank, header consistency, the CRC, and finally that
// every record carries the header's rank. The rank rule runs after the CRC,
// so a bit flip in a record's rank field stays a checksum error; a CRC-valid
// frame mixing ranks is a framing error. It is the hardened checkBatch:
// arbitrary bytes must never panic or force a huge allocation.
func ParseFrame(data []byte) (FrameHeader, error) {
	var h FrameHeader
	if len(data) < FrameHeaderSize {
		return h, fmt.Errorf("server: short frame (%d bytes, header is %d)", len(data), FrameHeaderSize)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != frameMagic {
		return h, fmt.Errorf("server: bad frame magic %#x", m)
	}
	n := binary.LittleEndian.Uint32(data[24:])
	if n > MaxFrameRecords {
		// Reject before computing n*recordWireSize or sizing a decode
		// buffer from it.
		return h, fmt.Errorf("server: frame claims %d records (max %d)", n, MaxFrameRecords)
	}
	want := FrameSize(int(n))
	if len(data) != want {
		return h, fmt.Errorf("server: frame length %d, want %d for %d records", len(data), want, n)
	}
	rank := binary.LittleEndian.Uint32(data[4:])
	if rank > MaxFrameRank {
		return h, fmt.Errorf("server: frame claims rank %d (max %d)", rank, MaxFrameRank)
	}
	h.Rank = int(rank)
	h.Seq = binary.LittleEndian.Uint64(data[8:])
	h.CumRecords = binary.LittleEndian.Uint64(data[16:])
	h.Count = int(n)
	if h.Seq == 0 {
		return h, fmt.Errorf("server: frame sequence 0 (sequences are 1-based)")
	}
	if h.CumRecords < uint64(h.Count) {
		return h, fmt.Errorf("server: frame cumRecords %d < count %d", h.CumRecords, h.Count)
	}
	crc := crc32.ChecksumIEEE(data[:28])
	crc = crc32.Update(crc, crc32.IEEETable, data[FrameHeaderSize:])
	if got := binary.LittleEndian.Uint32(data[28:]); got != crc {
		return h, fmt.Errorf("%w: header says %#x, computed %#x", ErrChecksum, got, crc)
	}
	for off := FrameHeaderSize + 8; off < len(data); off += recordWireSize {
		if r := binary.LittleEndian.Uint32(data[off:]); r != rank {
			return h, fmt.Errorf("server: frame from rank %d carries a record of rank %d", rank, r)
		}
	}
	return h, nil
}

// TraceOf derives an encoded frame's lineage trace from its header's rank
// and sequence number with the shared sampler: 0 when lin is nil, the frame
// is unsampled, or data is shorter than a header. Used on paths that hold
// raw bytes, e.g. parked-frame drains.
func TraceOf(lin *obs.Lineage, data []byte) uint64 {
	if lin == nil || len(data) < FrameHeaderSize {
		return 0
	}
	return lin.TraceID(int(binary.LittleEndian.Uint32(data[4:])), binary.LittleEndian.Uint64(data[8:]))
}

// wireRec is one record in the wire layout, as the shard log stores it. The
// fold and the watermark advance read the few fields they need through its
// accessors instead of decoding the record.
type wireRec [recordWireSize]byte

// recAt returns the record at byte offset off of a record run.
func recAt(run []byte, off int) *wireRec { return (*wireRec)(run[off:]) }

func (r *wireRec) sensor() int32  { return int32(binary.LittleEndian.Uint32(r[0:])) }
func (r *wireRec) group() int32   { return int32(binary.LittleEndian.Uint32(r[4:])) }
func (r *wireRec) rank() int32    { return int32(binary.LittleEndian.Uint32(r[8:])) }
func (r *wireRec) sliceNs() int64 { return int64(binary.LittleEndian.Uint64(r[12:])) }
func (r *wireRec) avgNs() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(r[24:])) }

// records returns how many wire records sg holds.
func (sg segment) records() int { return len(sg.recs) / recordWireSize }

// decodeRecords fills dst from len(dst) wire records at the start of raw:
// the one record decoder, called only by decodeSegments.
func decodeRecords(dst []detect.SliceRecord, raw []byte) {
	off := 0
	for i := range dst {
		dst[i] = detect.SliceRecord{
			Sensor:   int(binary.LittleEndian.Uint32(raw[off:])),
			Group:    int(binary.LittleEndian.Uint32(raw[off+4:])),
			Rank:     int(binary.LittleEndian.Uint32(raw[off+8:])),
			SliceNs:  int64(binary.LittleEndian.Uint64(raw[off+12:])),
			Count:    int32(binary.LittleEndian.Uint32(raw[off+20:])),
			AvgNs:    math.Float64frombits(binary.LittleEndian.Uint64(raw[off+24:])),
			AvgInstr: math.Float64frombits(binary.LittleEndian.Uint64(raw[off+32:])),
		}
		off += recordWireSize
	}
}

// decodeSegments decodes the records of segs, in order, after the first
// skip: the read edge, where a stored record becomes a detect.SliceRecord.
// Records and RecordsWindow serve through it; skip is a record cursor, found
// by counting segment lengths. The result is never nil.
func decodeSegments(segs []segment, skip int) []detect.SliceRecord {
	skip *= recordWireSize
	n := -skip
	for _, sg := range segs {
		n += len(sg.recs)
	}
	out := make([]detect.SliceRecord, n/recordWireSize)
	dst := out
	for _, sg := range segs {
		raw := sg.recs
		if skip >= len(raw) {
			skip -= len(raw)
			continue
		}
		raw, skip = raw[skip:], 0
		k := len(raw) / recordWireSize
		decodeRecords(dst[:k], raw)
		dst = dst[k:]
	}
	return out
}

// decodeFrame parses and deserializes a whole frame (test/tooling helper;
// the ingest path stores the validated payload as it is).
func decodeFrame(data []byte) (FrameHeader, []detect.SliceRecord, error) {
	h, err := ParseFrame(data)
	if err != nil {
		return h, nil, err
	}
	return h, decodeSegments([]segment{{recs: data[FrameHeaderSize:]}}, 0), nil
}
