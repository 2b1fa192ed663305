package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"vsensor/internal/detect"
)

// FuzzBatchRoundTrip proves decode(encode(x)) == x: for any single-rank
// record batch and header the fuzzer can express, the frame codec must
// reproduce it exactly; a batch carrying a record of another rank must be
// refused as a framing error, never as a checksum error.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(1), uint64(1), []byte{})
	f.Add(uint32(2), uint64(3), uint64(200),
		[]byte{1, 0, 2, 0, 3, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint32(4194304), uint64(1<<63), uint64(1<<63),
		bytes.Repeat([]byte{0xff}, 72))
	f.Fuzz(func(t *testing.T, rank uint32, seq, cum uint64, raw []byte) {
		// Materialize records from the raw bytes (9 bytes drive one record).
		var recs []detect.SliceRecord
		for off := 0; off+9 <= len(raw) && len(recs) < 256; off += 9 {
			recs = append(recs, detect.SliceRecord{
				Sensor:   int(raw[off]),
				Group:    int(raw[off+1] % 8),
				Rank:     int(raw[off+2]),
				SliceNs:  int64(raw[off+3]) * 1_000_000,
				Count:    int32(raw[off+4]) + 1,
				AvgNs:    float64(binary.LittleEndian.Uint16(raw[off+5:])) / 3,
				AvgInstr: float64(binary.LittleEndian.Uint16(raw[off+7:])),
			})
		}
		h := FrameHeader{
			Rank:       int(rank % (MaxFrameRank + 1)),
			Seq:        seq,
			CumRecords: cum,
		}
		if h.Seq == 0 {
			h.Seq = 1
		}
		if h.CumRecords < uint64(len(recs)) {
			h.CumRecords = uint64(len(recs))
		}
		enc := AppendFrame(nil, h, recs)
		got, decoded, err := decodeFrame(enc)
		for _, r := range recs {
			if r.Rank != h.Rank {
				if err == nil || errors.Is(err, ErrChecksum) {
					t.Fatalf("frame from rank %d with a record of rank %d: err = %v, want a framing error", h.Rank, r.Rank, err)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("self-encoded frame rejected: %v", err)
		}
		if got.Rank != h.Rank || got.Seq != h.Seq || got.CumRecords != h.CumRecords || got.Count != len(recs) {
			t.Fatalf("header mangled: sent %+v got %+v", h, got)
		}
		if len(decoded) != len(recs) {
			t.Fatalf("decoded %d records, sent %d", len(decoded), len(recs))
		}
		for i := range recs {
			if decoded[i] != recs[i] {
				t.Fatalf("record %d: sent %+v got %+v", i, recs[i], decoded[i])
			}
		}
		// AppendFrame must also compose onto a non-empty buffer.
		prefix := []byte{0xaa, 0xbb}
		composed := AppendFrame(prefix, h, recs)
		if !bytes.Equal(composed[:2], prefix) || !bytes.Equal(composed[2:], enc) {
			t.Fatal("AppendFrame corrupted the destination prefix")
		}
	})
}

// FuzzCheckBatch throws arbitrary bytes at the frame parser and the server
// ingest path: they must never panic, never allocate from an unvalidated
// length, and never ingest a frame whose CRC does not cover its bytes. A
// frame the parser accepts is stored as received: the shard's one segment
// holds exactly its payload, and Records, re-encoded, gives those bytes back
// bit for bit (NaN payloads included).
func FuzzCheckBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x46, 0x53, 0x76}) // magic alone
	valid := AppendFrame(nil, FrameHeader{Rank: 1, Seq: 1, CumRecords: 2},
		[]detect.SliceRecord{
			{Sensor: 1, Rank: 1, SliceNs: 1000, Count: 1, AvgNs: 10},
			{Sensor: 2, Rank: 1, SliceNs: 1000, Count: 1, AvgNs: 20},
		})
	f.Add(valid)
	hostile := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hostile[24:], 0xffffffff) // huge claimed count
	f.Add(hostile)
	trunc := append([]byte(nil), valid[:40]...)
	f.Add(trunc)
	// What a client from before traces were derived sends for a sampled
	// frame: magic 0x76534632, a u64 trace after the header, the CRC over
	// both. It must be refused as bad magic, whole or cut inside the trace;
	// so must a frame with 8 stray bytes after its payload.
	legacy := append(append(append([]byte(nil), valid[:FrameHeaderSize]...), u64b(0x1122334455667788)...), valid[FrameHeaderSize:]...)
	binary.LittleEndian.PutUint32(legacy, 0x76534632)
	binary.LittleEndian.PutUint32(legacy[28:], crc32.Update(crc32.ChecksumIEEE(legacy[:28]), crc32.IEEETable, legacy[FrameHeaderSize:]))
	if _, err := ParseFrame(legacy); err == nil || !strings.Contains(err.Error(), "bad frame magic") {
		f.Fatalf("legacy traced frame: err = %v, want bad frame magic", err)
	}
	f.Add(legacy)
	f.Add(legacy[:36])
	f.Add(append(append([]byte(nil), valid...), u64b(0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseFrame(data)
		if err == nil {
			// Anything the parser accepts must decode and re-encode to the
			// same bytes — acceptance implies integrity.
			_, recs, derr := decodeFrame(data)
			if derr != nil {
				t.Fatalf("ParseFrame accepted what decodeFrame rejects: %v", derr)
			}
			re := AppendFrame(nil, h, recs)
			if !bytes.Equal(re, data) {
				t.Fatal("accepted frame does not round-trip to identical bytes")
			}
		}
		// The full ingest path must hold the same guarantee under arbitrary
		// input, including dedup/coverage bookkeeping.
		s := New()
		ierr := s.Receive(data)
		if (ierr == nil) != (err == nil) {
			t.Fatalf("Receive and ParseFrame disagree: %v vs %v", ierr, err)
		}
		if err != nil {
			return
		}
		recs := s.Records()
		if len(recs) != h.Count {
			t.Fatalf("ingested %d records from a frame claiming %d", len(recs), h.Count)
		}
		payload := data[FrameHeaderSize:]
		if segs := s.shardFor(h.Rank).segments; len(segs) != 1 || !bytes.Equal(segs[0].recs, payload) {
			t.Fatalf("the shard log holds %d segments, not the frame's payload as received", len(segs))
		}
		var re []byte
		for _, r := range recs {
			re = AppendRecord(re, r)
		}
		if !bytes.Equal(re, payload) {
			t.Fatal("Records, re-encoded, differ from the payload the frame carried")
		}
	})
}
