package feed

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

var every = Spec{
	Seed: 1, Step: 7, Trials: 40, Ranks: [2]int{3, 8}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 5},
	Events: map[Kind][]float64{
		Drop: {0.1}, Dup: {0.2}, Corrupt: {0.1}, Shuffle: {0.5}, HoldBack: {0.1}, Heartbeat: {0.1, LeaseRound},
		Poll: {0.1}, Crash: {1, 2}, TornWrite: {0.5}, SyncLoss: {0.3}, BitRot: {0.4},
	},
	Burst: 3,
}

// toy encodes a frame as its rank and sequence, a heartbeat as its rank and
// stamp.
var toy = Codec{
	Frame:     func(f Frame) []byte { return []byte{'f', byte(f.Rank), byte(f.Seq)} },
	Heartbeat: func(rank int, nowNs, _ int64) []byte { return []byte{'h', byte(rank), byte(nowNs / SliceNs)} },
}

// Enabling one more kind leaves the frames and every other kind's events as
// they were.
func TestKindsDrawFromTheirOwnStreams(t *testing.T) {
	if missing := every.Unexercised(); len(missing) != 0 {
		t.Fatalf("the spec never draws %v", missing)
	}
	for kind := range numKinds {
		without := every
		without.Events = maps.Clone(every.Events)
		delete(without.Events, kind)
		for k := range every.Trials {
			with, less := every.Trial(k), without.Trial(k)
			if !reflect.DeepEqual(with.Frames(), less.Frames()) {
				t.Fatalf("enabling %v moved trial %d's frames", kind, k)
			}
			others := slices.DeleteFunc(slices.Clone(with.Events), func(e Event) bool { return e.Kind == kind })
			if !slices.Equal(others, less.Events) {
				t.Fatalf("enabling %v moved trial %d's other events:\n%#v\n%#v", kind, k, with, less)
			}
		}
	}
	if got := (Spec{Events: map[Kind][]float64{Dup: {0, 0.5}, Drop: {0}}}).Unexercised(); !slices.Equal(got, []string{"same key twice", "Dup"}) {
		t.Fatalf("a spec of no trials draws nothing, but Unexercised says %v are missing", got)
	}
}

func TestScheduleTruthAndDrive(t *testing.T) {
	tr := Trial{Seed: 1, Shape: Shape{Ranks: 2, Sensors: 1, Slices: 2}}
	if n := len(tr.Frames()); n != 2 {
		t.Fatalf("%d frames, the checks below assume 2", n)
	}
	tr.Events = []Event{
		{Kind: Drop, At: 0}, {Kind: Drop, At: 1}, {Kind: Dup, At: 1}, {Kind: Corrupt, At: 0, Arg: 9},
		{Kind: HoldBack, At: 0}, {Kind: Heartbeat, At: 1, Rank: 1, Arg: 2 * SliceNs}, {Kind: Crash, At: 2},
		{Kind: TornWrite, Rate: 0.5}, {Kind: BitRot, Rate: 0.25},
	}
	f0 := toy.Frame(tr.Frames()[0])
	want := []Step{
		{Data: toy.Frame(tr.Frames()[1]), Rank: 1}, {Data: []byte{'h', 1, 2}, Rank: 1}, // unit 1: its copy, then the heartbeat
		{Poll: true}, {Data: Flip(f0, 9)}, // unit 0, held back: its original dropped
		{Crash: true},
	}
	if got := tr.Schedule(toy); !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule\n got: %v\nwant: %v", got, want)
	}
	if got, want := tr.Truth(), Sorted(tr.Frames()[1].Recs); !slices.Equal(got, want) {
		t.Fatalf("truth %v, want only frame 1's records %v", got, want)
	}
	if f := tr.Disk(); f.TornWrite != 0.5 || f.BitRot != 0.25 || f.SyncLoss != 0 {
		t.Fatalf("disk faults %+v", f)
	}
	var delivered []int
	polls := 0
	err := Drive(tr.Schedule(toy), func(i int, _ []byte) error { delivered = append(delivered, i); return nil },
		func() { polls++ }, func(n int) (int, error) { return n - 2, nil }) // the crash loses two deliveries
	if err != nil || !slices.Equal(delivered, []int{0, 1, 2, 1, 2}) || polls != 2 {
		t.Fatalf("drive delivered %v with %d polls (err %v), want [0 1 2 1 2] re-driven past one crash", delivered, polls, err)
	}
}

// Shrink finds the one pair of events a failure needs, whichever of the
// others it starts with.
func TestShrinkIsOneMinimal(t *testing.T) {
	tr := Trial{Seed: 5}
	for i := range 23 {
		tr.Events = append(tr.Events, Event{Kind: Poll, At: i})
	}
	tests := 0
	fails := func(c Trial) bool {
		tests++
		return slices.Contains(c.Events, Event{Kind: Poll, At: 4}) && slices.Contains(c.Events, Event{Kind: Poll, At: 17})
	}
	got := Shrink(tr, fails)
	if want := []Event{{Kind: Poll, At: 4}, {Kind: Poll, At: 17}}; !slices.Equal(got.Events, want) {
		t.Fatalf("shrunk to %#v after %d tests", got, tests)
	}
	if s, want := fmt.Sprintf("%#v", got), "feed.Trial{Seed:5, Shape:feed.Shape{Ranks:0, Sensors:0, Slices:0}, Events:[]feed.Event{feed.Event{Kind:feed.Poll, At:4, Rank:0, Arg:0, Rate:0}, feed.Event{Kind:feed.Poll, At:17, Rank:0, Arg:0, Rate:0}}}"; s != want {
		t.Fatalf("literal\n got: %s\nwant: %s", s, want)
	}
	if got := Shrink(tr, func(Trial) bool { return true }); got.Events != nil {
		t.Fatalf("a failure that needs no event shrank to %v", got.Events)
	}
}

func TestRaceStops(t *testing.T) {
	var n atomic.Int64
	stop := Race(func() { n.Add(1) }, func() { n.Add(1) })
	for n.Load() < 100 {
	}
	stop()
	stop()
	after := n.Load()
	for range 100 {
		runtime.Gosched()
	}
	if n.Load() != after {
		t.Fatal("a poll ran after stop returned")
	}
	Check(t, Trial{}, func(*testing.T, Trial) error { return nil })
}
