package feed

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

var every = Spec{
	Seed: 1, Step: 7, Trials: 40, Ranks: [2]int{3, 8}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 5},
	Events: map[Kind][]float64{
		Drop: {0.1}, Dup: {0.2}, Corrupt: {0.1}, Shuffle: {0.5}, HoldBack: {0.1}, Heartbeat: {0.1, LeaseRound},
		Poll: {0.1}, Crash: {1, 2}, TornWrite: {0.5}, SyncLoss: {0.3}, BitRot: {0.4},
		Reset: {1, 2}, Stall: {0.1}, BitFlip: {1}, Short: {2}, HalfOpen: {0.1}, Partition: {0.1},
	},
	Burst: 3,
	Bytes: func(frames []Frame) (int64, int64) { return int64(3 * len(frames)), int64(len(frames)) },
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
	if s, want := fmt.Sprintf("%#v", got), "feed.Trial{Seed:5, Shape:feed.Shape{Ranks:0, Sensors:0, Slices:0}, Events:[]feed.Event{feed.Event{Kind:feed.Poll, At:4, Rank:0, Arg:0, Rate:0, Out:false, Span:0}, feed.Event{Kind:feed.Poll, At:17, Rank:0, Arg:0, Rate:0, Out:false, Span:0}}}"; s != want {
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

// Each wire event lands on its connection, its direction and its byte.
func TestWireEventsLandOnTheirBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const window = 30 * time.Millisecond
	w := Trial{Events: []Event{
		{Kind: Short, At: 0, Arg: 2}, {Kind: BitFlip, At: 0, Arg: 4},
		{Kind: Stall, At: 0, Arg: 6, Out: true, Span: window}, {Kind: Reset, At: 0, Arg: 8, Out: true},
		{Kind: HalfOpen, At: 1, Arg: 2, Out: true, Span: window}, {Kind: Partition, At: 2, Out: true, Span: window},
	}}.Wire(ln, func(d time.Duration) time.Time { return time.Now().Add(d) })
	defer w.Close()
	dial := func() (client, service net.Conn) {
		client, err := net.Dial("tcp", w.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		if service, err = w.Accept(); err != nil {
			t.Fatal(err)
		}
		return client, service
	}

	client, service := dial()
	client.Write([]byte("0123456789"))
	var reads []string
	buf := make([]byte, 64)
	for got := 0; got < 10; {
		n, err := service.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		reads, got = append(reads, string(buf[:n])), got+n
	}
	if want := []string{"01", "2", "3", "$", "56789"}; !slices.Equal(reads, want) { // '4' with bit 4 flipped
		t.Fatalf("service reads %q, want %q", reads, want)
	}
	if open := w.Settle(0); !slices.Equal(open, []int{0}) {
		t.Fatalf("connections open after a delivered flip: %v, want [0]", open)
	}
	start := time.Now()
	if n, err := service.Write([]byte("abcdefghij")); n != 8 || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write across a reset at byte 8 = %d, %v", n, err)
	}
	if got, _ := io.ReadAll(client); string(got) != "abcdefgh" || time.Since(start) < window {
		t.Fatalf("client heard %q after %v, want 8 bytes after a %v stall", got, time.Since(start), window)
	}
	if open := w.Settle(time.Second); open != nil {
		t.Fatalf("reset connection still open: %v", open)
	}

	// Silent connections drop what the service writes and close when their
	// window ends, unless the client hangs up first.
	halfOpen, service := dial()
	start = time.Now()
	if n, err := service.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write into a half-open connection = %d, %v", n, err)
	}
	partitioned, service := dial()
	service.Write([]byte("lost")) // the partition's byte 0: it and the next connection go silent
	late, service := dial()
	service.Write([]byte("lost too"))
	late.Close()
	if _, err := service.Read(buf); !errors.Is(err, io.EOF) || w.HungUp() != 1 {
		t.Fatalf("read of a silent connection its client closed = %v after %d hang-ups, want EOF after 1", err, w.HungUp())
	}
	for c, want := range map[net.Conn]string{halfOpen: "he", partitioned: ""} {
		if got, _ := io.ReadAll(c); string(got) != want || time.Since(start) < window {
			t.Errorf("client heard %q after %v, want %q after the %v window", got, time.Since(start), want, window)
		}
	}
	if open := w.Settle(time.Second); open != nil || w.HungUp() != 1 {
		t.Fatalf("silent connections %v outlived their window; %d hang-ups, want 1", open, w.HungUp())
	}
	for kind := Reset; kind < numKinds; kind++ {
		want := 1
		if kind == Partition {
			want = 2 // it also hits the late connection
		}
		if w.Fired(kind) != want {
			t.Errorf("%v hit %d times, want %d", kind, w.Fired(kind), want)
		}
	}
}
