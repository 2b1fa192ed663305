// Package feed is the one seeded workload every delivery property of the
// analysis server (internal/server, internal/netsrv) draws its trial from.
//
// A Trial is a seed, a Shape and an explicit list of fault Events. Its
// frames, their delivery Schedule and the exactly-once Truth are functions
// of those three alone. Each axis of a draw — the records, the
// same-key-twice case, the frame splits and every event kind — reads its own
// stream derived from the seed and the axis name, so enabling one more kind
// leaves the frames and every other kind's events as they were. On failure,
// Check shrinks the events to a 1-minimal failing list (delta debugging) and
// prints the trial as a Go literal that pastes into a regression table.
//
// The package must not import internal/server, whose white-box tests import
// it: properties pass the wire encoders in as a Codec.
package feed

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/storage"
)

// Kind is an event's fault.
type Kind uint8

const (
	Drop      Kind = iota // frame At's original delivery never happens
	Dup                   // a copy of frame At joins unit (At+Arg) mod frames
	Corrupt               // a copy of frame At with bit Arg flipped follows it
	Shuffle               // the units are delivered in the permutation seeded by Arg
	HoldBack              // unit At is delivered after every other unit, past a poll
	Heartbeat             // rank Rank's heartbeat stamped Arg ns follows frame At
	Poll                  // a query follows frame At
	Crash                 // the server crashes before unit At (At = frames: after the last)
	TornWrite             // the disk's storage.Faults rates, Rate each
	SyncLoss
	BitRot
	Reset     // the connection closes with linger 0 at its byte Arg (wire.go)
	Stall     // the connection's bytes that way wait Span at byte Arg
	BitFlip   // bit Arg%8 of byte Arg flips
	Short     // byte Arg travels alone: a runt read or write
	HalfOpen  // at byte Arg the connection goes silent until Span ends or its client hangs up
	Partition // at byte Arg every connection, and each accepted within Span, goes silent like that
	numKinds
)

var kindNames = [numKinds]string{"Drop", "Dup", "Corrupt", "Shuffle", "HoldBack", "Heartbeat", "Poll", "Crash", "TornWrite", "SyncLoss", "BitRot",
	"Reset", "Stall", "BitFlip", "Short", "HalfOpen", "Partition"}

func (k Kind) String() string { return kindNames[k] }

// GoString makes %#v print a Trial as a Go literal that compiles outside the
// package.
func (k Kind) GoString() string { return "feed." + k.String() }

// Event is one explicit fault. A unit is one frame's place in the delivery
// order: the frame itself, then the copies, heartbeats and polls its events
// add there, in event order.
type Event struct {
	Kind Kind
	At   int           // the frame the event acts on or follows; wire kinds: the connection, in accept order
	Rank int           // Heartbeat: the rank
	Arg  int64         // Dup: unit offset; Corrupt: bit; Heartbeat: stamp ns; Shuffle: seed; wire kinds: the byte
	Rate float64       // TornWrite, SyncLoss, BitRot: the probability
	Out  bool          // wire kinds: on the bytes the service writes, not those it reads
	Span time.Duration // Stall, HalfOpen, Partition: the window, in the service's clock time
}

// Shape sizes a trial's records: every rank reports every sensor in every
// slice, less the sensors a seeded draw says did not fire.
type Shape struct{ Ranks, Sensors, Slices int }

// Trial is one delivery scenario.
type Trial struct {
	Seed   int64
	Shape  Shape
	Events []Event
}

// Frame is one rank's sequenced batch of records.
type Frame struct {
	Rank     int
	Seq, Cum uint64
	Recs     []detect.SliceRecord
}

// Codec encodes frames and heartbeats in the wire format under test.
type Codec struct {
	Frame     func(f Frame) []byte
	Heartbeat func(rank int, nowNs, leaseNs int64) []byte
}

// Step is one thing a property does: deliver Data (from Rank), run a query
// (Poll), or crash and recover the server (Crash).
type Step struct {
	Data        []byte
	Rank        int
	Poll, Crash bool
}

const (
	// SliceNs is the width of a record slice.
	SliceNs = 1_000_000
	// Lease is every heartbeat's lease.
	Lease = 5_000_000
	// LeaseRound, as a Heartbeat choice, draws one lease round in place of
	// per-frame heartbeats: every rank heartbeats once, after a random
	// frame, stamped a hundred slices past the last frame, except one rank
	// stamped at zero, so that rank ends the trial dead.
	LeaseRound = -1
)

// Rand returns the trial's stream for axis, seeded from the trial's seed and
// the axis name alone. Properties draw their own knobs (shards, thresholds,
// workers) from streams of their own names.
func (t Trial) Rand(axis string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(axis))
	return rand.New(rand.NewPCG(uint64(t.Seed), h.Sum64()))
}

// Frames generates each rank's record stream and splits it into sequenced
// frames of one to four records, in rank order.
func (t Trial) Frames() []Frame {
	recs, twice, split := t.Rand("records"), t.Rand("twice"), t.Rand("split")
	var out []Frame
	for rank := range t.Shape.Ranks {
		var rs []detect.SliceRecord
		for sl := range t.Shape.Slices {
			for sn := range t.Shape.Sensors {
				if recs.Float64() < 0.15 {
					continue // the sensor did not fire on this rank in this slice
				}
				r := detect.SliceRecord{
					Sensor: sn, Group: recs.IntN(2), Rank: rank, SliceNs: int64(sl) * SliceNs,
					Count: int32(1 + recs.IntN(9)), AvgNs: 50 + 400*recs.Float64(),
				}
				rs = append(rs, r)
				if twice.Float64() < 0.1 { // a rank can report the same key twice
					r.Count, r.AvgNs = int32(1+twice.IntN(9)), 50+400*twice.Float64()
					rs = append(rs, r)
				}
			}
		}
		var seq, cum uint64
		for len(rs) > 0 {
			n := min(1+split.IntN(4), len(rs))
			seq++
			cum += uint64(n)
			out = append(out, Frame{Rank: rank, Seq: seq, Cum: cum, Recs: rs[:n:n]})
			rs = rs[n:]
		}
	}
	return out
}

// Schedule lays the trial out as steps: each unit in order (permuted if a
// Shuffle event says so) behind the crashes due before it, the held-back
// units after a poll, then the crashes due after the last frame.
func (t Trial) Schedule(c Codec) []Step {
	frames := t.Frames()
	n := len(frames)
	units, enc := make([][]Step, n), make([][]byte, n)
	dropped, held, order := make([]bool, n), make([]bool, n), make([]int, n)
	for i, f := range frames {
		enc[i], order[i] = c.Frame(f), i
	}
	crashes := make([]int, n+1)
	for _, e := range t.Events {
		switch e.Kind {
		case Drop:
			dropped[e.At] = true
		case Dup:
			u := (e.At + int(e.Arg)) % n
			units[u] = append(units[u], Step{Data: enc[e.At], Rank: frames[e.At].Rank})
		case Corrupt:
			units[e.At] = append(units[e.At], Step{Data: Flip(enc[e.At], int(e.Arg)), Rank: frames[e.At].Rank})
		case Heartbeat:
			units[e.At] = append(units[e.At], Step{Data: c.Heartbeat(e.Rank, e.Arg, Lease), Rank: e.Rank})
		case Poll:
			units[e.At] = append(units[e.At], Step{Poll: true})
		case HoldBack:
			held[e.At] = true
		case Crash:
			crashes[e.At]++
		case Shuffle:
			rand.New(rand.NewPCG(uint64(e.Arg), 0)).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
	}
	var steps []Step
	emit := func(late bool) {
		for _, u := range order {
			if held[u] != late {
				continue
			}
			for range crashes[u] {
				steps = append(steps, Step{Crash: true})
			}
			if !dropped[u] {
				steps = append(steps, Step{Data: enc[u], Rank: frames[u].Rank})
			}
			steps = append(steps, units[u]...)
		}
	}
	emit(false)
	if slices.Contains(held, true) {
		steps = append(steps, Step{Poll: true})
		emit(true)
	}
	for range crashes[n] {
		steps = append(steps, Step{Crash: true})
	}
	return steps
}

// Deliveries is the schedule's delivered bytes, in order.
func (t Trial) Deliveries(c Codec) [][]byte {
	var out [][]byte
	for _, s := range t.Schedule(c) {
		if s.Data != nil {
			out = append(out, s.Data)
		}
	}
	return out
}

// Truth is the exactly-once record set the events imply: the records of
// every frame delivered intact at least once, sorted.
func (t Trial) Truth() []detect.SliceRecord {
	dropped, copied := map[int]bool{}, map[int]bool{}
	for _, e := range t.Events {
		dropped[e.At] = dropped[e.At] || e.Kind == Drop
		copied[e.At] = copied[e.At] || e.Kind == Dup
	}
	var out []detect.SliceRecord
	for i, f := range t.Frames() {
		if !dropped[i] || copied[i] {
			out = append(out, f.Recs...)
		}
	}
	return Sorted(out)
}

// ExactlyOnce checks that recs, in any order, is the trial's Truth.
func (t Trial) ExactlyOnce(recs []detect.SliceRecord) error {
	return Same("exactly-once record", Sorted(recs), t.Truth())
}

// Disk is the trial's disk fault plan, seeded from its "disk" stream.
func (t Trial) Disk() storage.Faults {
	f := storage.Faults{Seed: t.Rand("disk").Int64()}
	for _, e := range t.Events {
		switch e.Kind {
		case TornWrite:
			f.TornWrite = e.Rate
		case SyncLoss:
			f.SyncLoss = e.Rate
		case BitRot:
			f.BitRot = e.Rate
		}
	}
	return f
}

// Sorted returns a sorted copy of recs.
func Sorted(recs []detect.SliceRecord) []detect.SliceRecord {
	out := slices.Clone(recs)
	slices.SortFunc(out, func(a, b detect.SliceRecord) int {
		return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.SliceNs, b.SliceNs), cmp.Compare(a.Sensor, b.Sensor),
			cmp.Compare(a.Group, b.Group), cmp.Compare(a.Count, b.Count), cmp.Compare(a.AvgNs, b.AvgNs), cmp.Compare(a.AvgInstr, b.AvgInstr))
	})
	return out
}

// Flip returns a copy of b with bit (mod its length in bits) flipped.
func Flip(b []byte, bit int) []byte {
	c := slices.Clone(b)
	bit %= len(c) * 8
	c[bit/8] ^= 1 << (bit % 8)
	return c
}

// Equal returns nil if got equals want, else an error showing both.
func Equal[T comparable](what string, got, want T) error {
	if got != want {
		return fmt.Errorf("%s differs:\n got: %+v\nwant: %+v", what, got, want)
	}
	return nil
}

// Same returns nil if got and want hold the same elements in the same
// order, else an error naming the first difference.
func Same[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s count: got %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return Equal(fmt.Sprint(what, " ", i), got[i], want[i])
		}
	}
	return nil
}

// Spec is how a property draws its trials: trial k from seed Seed+k*Step.
type Spec struct {
	Seed, Step             int64
	Trials                 int
	Ranks, Sensors, Slices [2]int // inclusive ranges
	// Events holds, for each kind the property enables, the choices a
	// trial draws its rate from: the chance per frame for Drop, Dup,
	// Corrupt, HoldBack, Heartbeat and Poll; the chance per trial for
	// Shuffle; the number of events for Crash, Reset, BitFlip and Short; the
	// fault rate itself for TornWrite, SyncLoss and BitRot; the Span, in
	// seconds, of the one Stall, HalfOpen or Partition (0: none). Heartbeat
	// may also choose LeaseRound.
	Events map[Kind][]float64
	// Bytes is how many bytes each direction of the service's socket
	// carries for a trial's frames, in the wire format under test: what the
	// service reads, what it writes. A drawn wire event lands on a byte
	// inside its direction's count; a spec that enables a wire kind needs it.
	Bytes func(frames []Frame) (in, out int64)
	// Burst is the most events one draw of Dup, Corrupt or Heartbeat puts
	// on its frame, back to back: retransmit storms, runs of corrupt copies,
	// one rank's heartbeat bursts. Zero means one.
	Burst int
}

// Trial draws trial k.
func (sp Spec) Trial(k int) Trial {
	tr := Trial{Seed: sp.Seed + int64(k)*sp.Step}
	r := tr.Rand("shape")
	between := func(b [2]int) int { return b[0] + r.IntN(b[1]-b[0]+1) }
	tr.Shape = Shape{Ranks: between(sp.Ranks), Sensors: between(sp.Sensors), Slices: between(sp.Slices)}
	frames := tr.Frames()
	n := len(frames)
	for kind := range numKinds {
		choices := sp.Events[kind]
		if len(choices) == 0 {
			continue
		}
		r := tr.Rand(kind.String())
		p := choices[r.IntN(len(choices))]
		if p == LeaseRound && n > 0 {
			dead := r.IntN(tr.Shape.Ranks)
			for rank := range tr.Shape.Ranks {
				stamp := int64(n+100) * SliceNs
				if rank == dead {
					stamp = 0
				}
				tr.Events = append(tr.Events, Event{Kind: Heartbeat, At: r.IntN(n), Rank: rank, Arg: stamp})
			}
			continue
		}
		switch kind {
		case Shuffle:
			if r.Float64() < p {
				tr.Events = append(tr.Events, Event{Kind: Shuffle, Arg: r.Int64()})
			}
		case Crash:
			for range int(p) {
				tr.Events = append(tr.Events, Event{Kind: Crash, At: r.IntN(n + 1)})
			}
		case TornWrite, SyncLoss, BitRot:
			if p > 0 {
				tr.Events = append(tr.Events, Event{Kind: kind, Rate: p})
			}
		case Reset, BitFlip, Short:
			in, out := sp.Bytes(frames)
			for range int(p) {
				tr.Events = append(tr.Events, wireEvent(r, kind, 0, in, out))
			}
		case Stall, HalfOpen, Partition:
			if p > 0 {
				in, out := sp.Bytes(frames)
				tr.Events = append(tr.Events, wireEvent(r, kind, time.Duration(p*float64(time.Second)), in, out))
			}
		default:
			for i := range n {
				if r.Float64() >= p {
					continue
				}
				e, burst := Event{Kind: kind, At: i}, 1
				switch kind {
				case Dup:
					e.Arg = r.Int64N(int64(n))
				case Heartbeat:
					e.Rank = r.IntN(tr.Shape.Ranks)
				}
				if kind == Dup || kind == Corrupt || kind == Heartbeat {
					burst = 1 + r.IntN(max(sp.Burst, 1))
				}
				for j := range burst {
					switch kind {
					case Corrupt:
						e.Arg = r.Int64N(1 << 16)
					case Heartbeat:
						e.Arg = int64(i)*SliceNs + int64(j)*SliceNs/10
					}
					tr.Events = append(tr.Events, e)
				}
			}
		}
	}
	return tr
}

// Unexercised lists what the spec enables but none of its trials draws:
// event kinds, and a rank reporting the same key twice.
func (sp Spec) Unexercised() []string {
	seen, twice := map[Kind]bool{}, false
	for k := range sp.Trials {
		tr := sp.Trial(k)
		for _, e := range tr.Events {
			seen[e.Kind] = true
		}
		var recs []detect.SliceRecord
		for _, f := range tr.Frames() {
			recs = append(recs, f.Recs...)
		}
		for i := 1; i < len(recs); i++ {
			a, b := recs[i-1], recs[i]
			twice = twice || a.Rank == b.Rank && a.Sensor == b.Sensor && a.Group == b.Group && a.SliceNs == b.SliceNs
		}
	}
	var missing []string
	if !twice {
		missing = append(missing, "same key twice")
	}
	for kind := range numKinds {
		if slices.ContainsFunc(sp.Events[kind], func(p float64) bool { return p != 0 }) && !seen[kind] {
			missing = append(missing, kind.String())
		}
	}
	return missing
}

// Property checks one trial, returning what it found wrong.
type Property func(t *testing.T, tr Trial) error

// Run checks prop on each of the spec's trials, as subtest "seed=k" for
// trial k, after checking that the trials draw every kind the spec enables.
// It returns how many trials ran and passed.
func Run(t *testing.T, sp Spec, prop Property) (passed int) {
	t.Helper()
	if missing := sp.Unexercised(); len(missing) > 0 {
		t.Errorf("no trial draws %v", missing)
	}
	for k := range sp.Trials {
		tr := sp.Trial(k)
		t.Run(fmt.Sprintf("seed=%d", k), func(t *testing.T) {
			Check(t, tr, prop)
			passed++
		})
	}
	return passed
}

// shrinkBudget bounds the time one test binary spends shrinking, over all
// its failures: once it is spent, a failure prints its trial unshrunk, so a
// bug that fails many trials cannot push the run past go test's timeout.
const shrinkBudget = time.Minute

// shrinkSpent is the time this binary's Checks have spent shrinking.
var shrinkSpent atomic.Int64

// Check runs prop on tr. On failure it shrinks the events and fails t with
// the error and the shrunk trial as a Go literal. Each candidate runs as a
// subtest "shrink", so a helper's t.Fatal ends only that candidate (which
// then counts as passing) and its cleanups run as it ends.
func Check(t *testing.T, tr Trial, prop Property) {
	t.Helper()
	err := prop(t, tr)
	if err == nil {
		return
	}
	start := time.Now()
	left := shrinkBudget - time.Duration(shrinkSpent.Load())
	small := Shrink(tr, func(c Trial) bool {
		if time.Since(start) >= left {
			return false
		}
		var err error
		t.Run("shrink", func(t *testing.T) { err = prop(t, c) })
		return err != nil
	})
	took := time.Since(start)
	shrinkSpent.Add(int64(took))
	t.Fatalf("%v\nshrunk %d events to %d in %v (1-minimal unless the binary's %v shrink budget ran out); paste into a regression table:\n%#v",
		err, len(tr.Events), len(small.Events), took.Round(time.Millisecond), shrinkBudget, small)
}

// Shrink reduces tr's events to a 1-minimal list that still fails: removing
// any one event makes fails false. It is delta debugging (ddmin): try each
// of n chunks, then each complement, and refine n when neither fails.
func Shrink(tr Trial, fails func(Trial) bool) Trial {
	with := func(ev []Event) Trial { c := tr; c.Events = ev; return c }
	ev := tr.Events
	if fails(with(nil)) {
		return with(nil)
	}
	for n := 2; len(ev) >= 2; {
		size := (len(ev) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(ev) && !reduced; lo += size {
			if chunk := ev[lo:min(lo+size, len(ev))]; n > 2 && fails(with(chunk)) {
				ev, n, reduced = chunk, 2, true
			}
		}
		for lo := 0; lo < len(ev) && !reduced; lo += size {
			if rest := slices.Concat(ev[:lo], ev[min(lo+size, len(ev)):]); fails(with(rest)) {
				ev, n, reduced = rest, max(n-1, 2), true
			}
		}
		if !reduced {
			if n >= len(ev) {
				break
			}
			n = min(2*n, len(ev))
		}
	}
	return with(ev)
}

// Drive runs steps in order: deliver(i, data) for the i-th delivery, poll
// for a Poll step, crash for a Crash step. crash gets the number of
// deliveries made and returns the delivery to resume from — the recovered
// LSN when the server lost an unsynced tail — and each crash fires once.
func Drive(steps []Step, deliver func(i int, data []byte) error, poll func(), crash func(delivered int) (int, error)) error {
	fired := make([]bool, len(steps))
	var at []int // the step index of each delivery made
	for i := 0; i < len(steps); i++ {
		switch s := steps[i]; {
		case s.Poll:
			poll()
		case s.Crash && !fired[i]:
			fired[i] = true
			resume, err := crash(len(at))
			if err != nil {
				return err
			}
			if resume < len(at) {
				i, at = at[resume]-1, at[:resume]
			}
		case s.Data != nil:
			at = append(at, i)
			if err := deliver(len(at)-1, s.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Race runs each poll in a loop on a goroutine of its own until the returned
// stop is called; stop waits for them, and a second call does nothing. A
// poller yields its processor after every poll, so on a small host the code
// it races gets scheduled instead of waiting out the poller's time slice.
func Race(polls ...func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, poll := range polls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					poll()
					runtime.Gosched()
				}
			}
		}()
	}
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }
}
