package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/server"
)

// mediumFunc adapts a function to Medium.
type mediumFunc func([]byte) error

func (f mediumFunc) Receive(encoded []byte) error { return f(encoded) }

// TestConnFramesMatchAppendFrame pins that staging records in the Conn's
// frame buffer and sealing it in place builds the very bytes
// server.AppendFrame builds: every frame the Conn hands its medium — fresh,
// retried from the park queue, packed from several flush intervals, or cut
// from the remainder at Close — equals AppendFrame over the same header and
// the records its cumulative count names.
func TestConnFramesMatchAppendFrame(t *testing.T) {
	const rank = 5
	for _, tc := range []struct {
		name           string
		batch, records int
		fail           func(attempt int) bool
	}{
		{"batch=1", 1, 21, nil},
		{"batch=8", 8, 8*6 + 3, nil},
		{"batch=64", 64, 64*3 + 17, nil},
		// Attempts 2 to 1+4·(maxRetries+1) fail: the second frame's
		// attempts park it, the three flushes behind it each spend a drain
		// on it and pack, and the one after delivers both.
		{"packed", 8, 8*12 + 5, func(a int) bool { return a >= 2 && a <= 1+4*(maxRetries+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The medium keeps a copy of every frame handed to it and fails
			// the attempts tc.fail names (1-based).
			var frames [][]byte
			m := mediumFunc(func(encoded []byte) error {
				frames = append(frames, bytes.Clone(encoded))
				if tc.fail != nil && tc.fail(len(frames)) {
					return errors.New("medium down")
				}
				return nil
			})
			conn := NewLinkOver(m, FaultPlan{}).NewConn(rank, Config{BatchSize: tc.batch})
			sent := make([]detect.SliceRecord, tc.records)
			for i := range sent {
				sent[i] = rec(rank, i)
				if err := conn.OnSlice(sent[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := conn.Close(); err != nil {
				t.Fatal(err)
			}
			var last server.FrameHeader
			for i, f := range frames {
				h, err := server.ParseFrame(f)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				recs := sent[h.CumRecords-uint64(h.Count) : h.CumRecords]
				want := server.AppendFrame(nil, server.FrameHeader{Rank: rank, Seq: h.Seq, CumRecords: h.CumRecords}, recs)
				if !bytes.Equal(f, want) {
					t.Fatalf("frame %d (seq %d, %d records) differs from AppendFrame over the same header and records", i, h.Seq, h.Count)
				}
				if h.Seq > last.Seq {
					if h.Seq != last.Seq+1 || h.CumRecords-uint64(h.Count) != last.CumRecords {
						t.Fatalf("frame seq %d (cum %d, %d records) does not follow seq %d (cum %d)",
							h.Seq, h.CumRecords, h.Count, last.Seq, last.CumRecords)
					}
					last = h
				}
			}
			if last.CumRecords != uint64(tc.records) {
				t.Fatalf("frames carry %d records, want %d", last.CumRecords, tc.records)
			}
			st := conn.Stats()
			if tc.fail == nil {
				if want := tc.records % tc.batch; want > 0 && last.Count != want {
					t.Errorf("the frame Close cut holds %d records, want the %d left over", last.Count, want)
				}
			} else if st.PackedFlushes != 3 || st.Retries == 0 {
				t.Errorf("stats = %+v, want 3 packed flushes behind a parked frame", st)
			}
		})
	}
}

// TestConnBatchSizeClampedToFrame pins that a BatchSize above what one frame
// may carry still yields only frames ParseFrame accepts: the Conn cuts at
// server.MaxFrameRecords.
func TestConnBatchSizeClampedToFrame(t *testing.T) {
	var frames, records int
	m := mediumFunc(func(encoded []byte) error {
		h, err := server.ParseFrame(encoded)
		if err != nil {
			return err
		}
		frames++
		records += h.Count
		return nil
	})
	conn := NewLinkOver(m, FaultPlan{}).NewConn(0, Config{BatchSize: server.MaxFrameRecords + 8})
	const n = server.MaxFrameRecords + 3
	r := rec(0, 1)
	for i := 0; i < n; i++ {
		if err := conn.OnSlice(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if frames != 2 || records != n {
		t.Fatalf("%d frames carried %d records, want 2 carrying %d", frames, records, n)
	}
}

// TestInprocBytesPerRecord is the deterministic guard on what the
// in-process record path allocates per record: a fixed feed of 512 ranks ×
// 16 slices × 8 sensors — ingest-inproc's shape at an eighth of its ranks —
// through a Link and one Conn per rank into a sharded server, every Conn
// closed, then one inter-process report. The feed, server and Conns are
// built before the count starts, on one P after a collection, so the count
// repeats within a fraction of a byte. A Conn staging 56-byte records beside
// a pooled frame buffer, with 16-byte epoch entries, read 135.3 B/rec here;
// staging wire bytes in the Conn's own frame buffer, with entries in a
// 12-byte pair of columns, reads 115.2.
func TestInprocBytesPerRecord(t *testing.T) {
	const ranks, slices, sensors = 512, 16, 8
	const bound = 120.0 // B/rec
	rng := rand.New(rand.NewSource(1))
	feed := make([]detect.SliceRecord, 0, ranks*slices*sensors)
	for sl := range slices {
		for r := range ranks {
			for s := range sensors {
				feed = append(feed, detect.SliceRecord{
					Sensor: s, Rank: r, SliceNs: int64(sl) * 1_000_000, Count: 1,
					AvgNs: 1000 * (1 + (rng.Float64()-0.5)/50), AvgInstr: 1,
				})
			}
		}
	}
	srv := server.NewSharded(server.DefaultShards)
	link := NewLink(srv, FaultPlan{})
	conns := make([]*Conn, ranks)
	for r := range conns {
		conns[r] = link.NewConn(r, Config{})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range feed {
		if err := conns[r.Rank].OnSlice(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conns {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rep := srv.InterProcessReport(0.8)
	runtime.ReadMemStats(&after)

	if got := rep.Coverage.IngestedRecords; got != int64(len(feed)) {
		t.Fatalf("server ingested %d records, want %d", got, len(feed))
	}
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(feed))
	t.Logf("%d records allocated %.2f B/rec", len(feed), perRec)
	if perRec > bound {
		t.Errorf("the in-process path allocated %.2f B/rec, want <= %.0f", perRec, bound)
	}
}
