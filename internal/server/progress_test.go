package server

import (
	"testing"

	"vsensor/internal/detect"
)

func TestRecordsWindowCursor(t *testing.T) {
	s := New()
	c := s.NewClient(0, 1)
	for i := 0; i < 5; i++ {
		c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: int64(i) * 1000, Count: 1, AvgNs: 10})
	}
	first, cur, _, ok := s.Snapshot().RecordsWindow(0)
	if !ok || len(first) != 5 || cur != 5 {
		t.Fatalf("first batch: %d records, cursor %d, ok %v", len(first), cur, ok)
	}
	// Nothing new yet.
	none, cur2, _, ok := s.Snapshot().RecordsWindow(cur)
	if !ok || len(none) != 0 || cur2 != 5 {
		t.Fatalf("expected empty delta: %d, %d, ok %v", len(none), cur2, ok)
	}
	// Two more arrive.
	c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 9000, Count: 1, AvgNs: 10})
	c.OnSlice(detect.SliceRecord{Sensor: 1, Rank: 0, SliceNs: 10000, Count: 1, AvgNs: 10})
	delta, cur3, _, ok := s.Snapshot().RecordsWindow(cur2)
	if !ok || len(delta) != 2 || cur3 != 7 {
		t.Fatalf("delta = %d, cursor %d, ok %v", len(delta), cur3, ok)
	}
	if delta[0].SliceNs != 9000 || delta[1].Sensor != 1 {
		t.Errorf("delta contents wrong: %+v", delta)
	}
	// Out-of-range cursors are refused and restart from the base.
	for _, bad := range []int{-5, 99} {
		if recs, next, base, ok := s.Snapshot().RecordsWindow(bad); ok || len(recs) != 0 || next != base || base != 0 {
			t.Errorf("cursor %d: %d records, next %d, base %d, ok %v; want a refusal back to base 0", bad, len(recs), next, base, ok)
		}
	}
}

func TestPerRankProgress(t *testing.T) {
	s := New()
	if pr := s.PerRankProgress(); len(pr) != 0 {
		t.Fatalf("empty server per-rank = %v", pr)
	}
	c0 := s.NewClient(0, 1)
	c2 := s.NewClient(2, 1)
	c0.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 1_000_000, Count: 1, AvgNs: 10})
	c0.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 3_000_000, Count: 1, AvgNs: 10})
	c2.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 2, SliceNs: 2_000_000, Count: 1, AvgNs: 10})
	// A heartbeat-only rank has no progress to report.
	if err := s.Receive(AppendHeartbeat(nil, 1, 5_000_000, 0)); err != nil {
		t.Fatal(err)
	}
	pr := s.PerRankProgress()
	if len(pr) != 2 {
		t.Fatalf("per-rank entries = %d", len(pr))
	}
	if pr[0].Rank != 0 || pr[0].Records != 2 || pr[0].LatestSliceNs != 3_000_000 {
		t.Errorf("rank 0 progress = %+v", pr[0])
	}
	if pr[1].Rank != 2 || pr[1].Records != 1 || pr[1].LatestSliceNs != 2_000_000 {
		t.Errorf("rank 2 progress = %+v", pr[1])
	}
	if p := s.Progress(); p.LatestSliceNs != 3_000_000 {
		t.Errorf("aggregate latest = %d", p.LatestSliceNs)
	}
}

func TestProgressSnapshot(t *testing.T) {
	s := New()
	if p := s.Progress(); p.Records != 0 || p.LatestSliceNs != 0 {
		t.Errorf("empty progress = %+v", p)
	}
	c := s.NewClient(0, 2)
	c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 5_000_000, Count: 1, AvgNs: 10})
	c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 8_000_000, Count: 1, AvgNs: 10})
	p := s.Progress()
	if p.Records != 2 || p.Messages != 1 || p.LatestSliceNs != 8_000_000 {
		t.Errorf("progress = %+v", p)
	}
	if p.Bytes <= 0 {
		t.Error("bytes not accounted")
	}
}
