package transport

import (
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/server"
)

// BenchmarkFrameRoundTrip measures the wire codec alone: encode one
// 64-record frame and parse+validate it back (CRC both ways).
func BenchmarkFrameRoundTrip(b *testing.B) {
	recs := make([]detect.SliceRecord, 64)
	for i := range recs {
		recs[i] = rec(1, i)
	}
	h := server.FrameHeader{Rank: 1, Seq: 1, CumRecords: 64}
	var enc []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = server.AppendFrame(enc[:0], h, recs)
		if _, err := server.ParseFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnFlush measures one 64-record batch through a fault-free link
// into the server — the steady-state cost of the production-shaped record
// path per flush.
func BenchmarkConnFlush(b *testing.B) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{})
	conn := link.NewConn(0, Config{BatchSize: 64})
	batch := make([]detect.SliceRecord, 64)
	for i := range batch {
		batch[i] = rec(0, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range batch {
			if err := conn.OnSlice(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConnFlushFaulty is the same path under a 20% drop / 5% corrupt
// plan: retry, backoff accounting, and CRC rejects included.
func BenchmarkConnFlushFaulty(b *testing.B) {
	srv := server.New()
	link := NewLink(srv, FaultPlan{Seed: 1, Drop: 0.2, Corrupt: 0.05})
	conn := link.NewConn(0, Config{BatchSize: 64})
	batch := make([]detect.SliceRecord, 64)
	for i := range batch {
		batch[i] = rec(0, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range batch {
			if err := conn.OnSlice(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
