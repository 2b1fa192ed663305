package netsrv

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/server"
	"vsensor/internal/storage"
	"vsensor/internal/transport"
)

// The in-process chaos and kill-recover properties over real loopback TCP and
// the one client, each one table over two media: "socket", the bare listener
// (FaultPlan dice, tenant crashes), and "socket+wire", the service's listener
// behind a feed trial's wire events attacking the byte stream itself —
// resets, partitions, stalls, bit flips, runt reads and writes, half-open
// peers — each placed by connection, direction and byte, so a failure
// shrinks and replays like any other trial. The final state must be EXACTLY
// the undisturbed in-process reference: envelope CRCs keep corruption out of
// tenant accounting, and resume-LSN reconnects redeliver precisely the
// unjournaled suffix.

func chaosRec(rank, i int) detect.SliceRecord {
	return detect.SliceRecord{
		Sensor: i % 7, Group: i % 3, Rank: rank,
		SliceNs: int64(i) * 1_000_000, Count: 1, AvgNs: float64(100 + i%13),
	}
}

// chaosRecs is perRank records for each of ranks ranks.
func chaosRecs(ranks, perRank int) [][]detect.SliceRecord {
	recs := make([][]detect.SliceRecord, ranks)
	for rank := range recs {
		for i := range perRank {
			recs[rank] = append(recs[rank], chaosRec(rank, i))
		}
	}
	return recs
}

// rankRecs is each rank's records in frames.
func rankRecs(frames []feed.Frame) [][]detect.SliceRecord {
	var recs [][]detect.SliceRecord
	for _, f := range frames {
		for len(recs) <= f.Rank {
			recs = append(recs, nil)
		}
		recs[f.Rank] = append(recs[f.Rank], f.Recs...)
	}
	return recs
}

// runRanksOver pushes each rank's records through a transport.Link wrapping
// an arbitrary Medium, from one goroutine per rank — the socket twin of the
// in-process transport test harness.
func runRanksOver(m transport.Medium, plan transport.FaultPlan, recs [][]detect.SliceRecord) error {
	link := transport.NewLinkOver(m, plan)
	var wg sync.WaitGroup
	errs := make([]error, len(recs))
	for rank, rs := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := link.NewConn(rank, transport.Config{BatchSize: 8})
			for _, rec := range rs {
				if errs[rank] = conn.OnSlice(rec); errs[rank] != nil {
					return
				}
			}
			errs[rank] = conn.Close()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// netMedium is what a conformance row's sessions dial: the service on the
// bare socket, or behind a trial's wire events.
type netMedium struct {
	svc  *Service
	wire *feed.Wire // nil on the bare socket
	addr string
	clk  clock // the service's, and its sessions'
}

// listenVia starts the service on cfg's clock, netClock if it has none,
// behind tr's wire events when tr is non-nil; it closes when the test ends.
func listenVia(t *testing.T, cfg Config, tr *feed.Trial) netMedium {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.clock == nil {
		cfg.clock = netClock
	}
	m := netMedium{clk: cfg.clock}
	if tr != nil {
		m.wire = tr.Wire(ln, m.clk.deadline)
		ln = m.wire
	}
	m.svc = serve(ln, cfg)
	t.Cleanup(func() { m.svc.Close() })
	m.addr = m.svc.Addr().String()
	return m
}

// session is a ResilientSession config for the net tables: the shipped
// deadlines on m's clock, so wire faults surface in milliseconds, and an
// outage budget of 20 minutes of clock time (30s of wall on netClock) so no
// fault window is ever misread as a down server.
func (m netMedium) session(runID string, seed int64) ReconnectConfig {
	return ReconnectConfig{
		Addr:  m.addr,
		Hello: Hello{RunID: runID, Rank: 0},
		Retry: RetryPolicy{MaxElapsed: 20 * time.Minute, Seed: seed},
		clock: m.clk,
	}
}

// dialVia dials m's session. A first dial fails fast on any network
// error, so behind the wire, where an event may break its handshake, a first
// dial that some event hit is dialed again: each attempt is the next
// connection, so every event still lands where the trial placed it. Any
// other failure is the dial's own.
func dialVia(m netMedium, runID string, seed int64) (*ResilientSession, error) {
	for attempt := 1; ; attempt++ {
		hits := m.hits()
		rs, err := DialResilient(m.session(runID, seed))
		if err == nil || attempt == 8 || m.hits() == hits {
			return rs, err
		}
	}
}

// hits is how many times the wire's events have hit a connection.
func (m netMedium) hits() (n int) {
	for kind := feed.Reset; m.wire != nil && kind <= feed.Partition; kind++ {
		n += m.wire.Fired(kind)
	}
	return n
}

// What a session's socket carries, from the wire format itself: a hello and
// an envelope per frame the service reads, a session ack and a one-byte ack
// envelope per frame it writes.
const (
	sessionAckBytes = envHeaderSize + sessionAckSize
	ackBytes        = envHeaderSize + 1
)

func helloBytes(runID string) int64 { return envHeaderSize + helloHeaderSize + int64(len(runID)) }

// wireBytes is a wire row's feed.Spec.Bytes: what a session of runID carries
// each way when it delivers each frame as one envelope.
func wireBytes(runID string) func([]feed.Frame) (int64, int64) {
	return func(frames []feed.Frame) (in, out int64) {
		in, out = helloBytes(runID), sessionAckBytes
		for _, f := range frames {
			in += envHeaderSize + int64(len(codec.Frame(f)))
			out += ackBytes
		}
		return in, out
	}
}

// wireEvents are the wire rows' faults: resets, bit flips and runt segments
// by count, and one stall, half-open or partition window by its seconds of
// clock time, all shorter than the deadlines they sit below.
var wireEvents = map[feed.Kind][]float64{
	feed.Reset: {0, 1, 2, 4}, feed.BitFlip: {0, 1, 2}, feed.Short: {0, 3, 8},
	feed.Stall: {0, 0.05, 0.2}, feed.HalfOpen: {0, 0, 0.1}, feed.Partition: {0, 0, 0.1},
}

// wireLedger adds up, over a wire row, the events that took effect, the
// reconnects they cost and the silent connections the client hung up on: a
// row whose faults never land proves nothing.
type wireLedger struct {
	fired              [feed.Partition + 1]int
	reconnects, hungUp int64
}

// tally adds a trial to the ledger, and fails unless every connection a
// fault must end did: each flipped byte the wire delivered — to the
// service's parser, or to the client's — ended its connection, and no
// silence outlived its window.
func (l *wireLedger) tally(m netMedium, rs *ResilientSession) error {
	open := m.wire.Settle(5 * time.Second)
	for kind := feed.Reset; kind <= feed.Partition; kind++ {
		l.fired[kind] += m.wire.Fired(kind)
	}
	l.reconnects += rs.Stats().Reconnects
	l.hungUp += int64(m.wire.HungUp())
	if open != nil {
		return fmt.Errorf("connections %v delivered a flipped byte or went silent, and stayed open", open)
	}
	return nil
}

// wireRow is a literal socket+wire trial. Where its silences only the
// client's own deadlines can end in time, the client must hang up on hungUp
// silent connections before their windows close.
type wireRow struct {
	name   string
	tr     feed.Trial
	hungUp int64
}

// runWire runs a socket+wire row: sp's trials and the literal rows under the
// property prop builds over the row's ledger and a clock — deadlineClock for
// a row that waits out a deadline, else netClock. The ledger then holds the
// row to account once all of sp's trials ran and passed.
func runWire(t *testing.T, sp feed.Spec, rows []wireRow, prop func(*wireLedger, clock) feed.Property) {
	var l wireLedger
	ran := feed.Run(t, sp, prop(&l, netClock))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			hungUp, clk := l.hungUp, netClock
			if row.hungUp > 0 {
				clk = deadlineClock
			}
			feed.Check(t, row.tr, prop(&l, clk))
			if got := l.hungUp - hungUp; got < row.hungUp {
				t.Errorf("the client hung up on %d silent connections, want %d: a deadline of its own never fired", got, row.hungUp)
			}
		})
	}
	for kind := feed.Reset; ran == sp.Trials && kind <= feed.Partition; kind++ {
		if l.fired[kind] == 0 {
			t.Errorf("no trial's %v took effect; the wire events are too tame", kind)
		}
	}
	if ran == sp.Trials && l.reconnects == 0 {
		t.Error("no trial ever reconnected; the wire events are too tame to prove resilience")
	}
}

// chaosWireSpec draws TestNetChaosExactlyOnce's socket+wire trials: only the
// records and the wire events, under a perfect link.
var chaosWireSpec = feed.Spec{
	Seed: 0x3E7F11, Step: 7919, Trials: 40,
	Ranks: [2]int{2, 8}, Sensors: [2]int{1, 3}, Slices: [2]int{4, 30},
	Events: wireEvents,
	// The Link frames each rank's records eight to a frame.
	Bytes: func(frames []feed.Frame) (int64, int64) {
		var batches []feed.Frame
		for rank, recs := range rankRecs(frames) {
			for i := 0; i < len(recs); i += 8 {
				batches = append(batches, feed.Frame{Rank: rank, Recs: recs[i:min(i+8, len(recs))]})
			}
		}
		return wireBytes("chaos")(batches)
	},
}

var chaosWireRows = []wireRow{
	// The case a proxy's seed 59 once hit: a bit flips in the second
	// envelope of the first connection, and a reset cuts that envelope before
	// any parser has seen it whole. No envelope CRC ever fails, and the flip
	// still ends its connection.
	{"flip-cut-by-reset", feed.Trial{Seed: 59, Shape: feed.Shape{Ranks: 4, Sensors: 3, Slices: 8}, Events: []feed.Event{
		{Kind: feed.BitFlip, At: 0, Arg: 500}, {Kind: feed.Reset, At: 0, Arg: 510},
	}}, 0},
	// The first connection resets after its first ack, and the redial's
	// session ack never comes: that connection has read the hello, so the
	// service waits on it as long as its idle window, and only the client's
	// dial deadline moves the session on before the silence ends.
	{"silent-redial", feed.Trial{Seed: 7, Shape: feed.Shape{Ranks: 2, Sensors: 2, Slices: 8}, Events: []feed.Event{
		{Kind: feed.Reset, At: 0, Arg: sessionAckBytes + ackBytes, Out: true},
		{Kind: feed.HalfOpen, At: 1, Arg: 0, Out: true, Span: 2 * dialTimeout},
	}}, 1},
}

// TestNetChaosExactlyOnce is TestChaosExactlyOnce over real loopback TCP:
// concurrent rank goroutines push their records through a transport.Link
// onto one session, and the tenant's final record log must equal the
// records sent after sorting, with complete coverage — exactly-once delivery
// of every record across the socket, under -race.
func TestNetChaosExactlyOnce(t *testing.T) {
	// Seeded drops, duplicates, reordering, corruption and a link-level
	// crash window, landing on frames in flight in the session's window.
	t.Run("socket", func(t *testing.T) {
		for _, seed := range []int64{11, 29, 47} {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				m := listenVia(t, Config{Shards: 1, MaxWorkers: 4}, nil)
				rs, err := dialVia(m, "chaos", seed)
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				recs := chaosRecs(8, 200)
				if err := runRanksOver(rs, transport.FaultPlan{
					Seed: seed, Drop: 0.25, Dup: 0.1, Reorder: 0.15, Corrupt: 0.05,
					CrashAfterFrames: 60, CrashDownFrames: 20,
				}, recs); err != nil {
					t.Fatal(err)
				}
				tenant := m.svc.Tenant("chaos")
				if err := feed.Same("record", feed.Sorted(tenant.Records()), feed.Sorted(slices.Concat(recs...))); err != nil {
					t.Fatal(err)
				}
				if cov := tenant.Coverage(); !cov.Complete() || cov.DupFrames == 0 || cov.ChecksumErrors == 0 {
					t.Errorf("coverage incomplete, or the plan injected no dups/corruption over the socket: %+v", cov)
				}
			})
		}
	})
	// Every wire fault, below a perfect link: exactly-once while the wire
	// itself lies.
	t.Run("socket+wire", func(t *testing.T) { runWire(t, chaosWireSpec, chaosWireRows, netChaosWire) })
}

// netChaosWire is the socket+wire row's property: the trial's records reach
// the tenant exactly once, with complete coverage, through one session whose
// connections suffer the trial's wire events, and every flip the wire
// delivered ended its connection.
func netChaosWire(l *wireLedger, clk clock) feed.Property {
	return func(t *testing.T, tr feed.Trial) error {
		m := listenVia(t, Config{Shards: 1, MaxWorkers: 4, IdleSession: 80 * time.Second, clock: clk}, &tr)
		rs, err := dialVia(m, "chaos", tr.Seed)
		if err != nil {
			return err
		}
		defer rs.Close()
		if err := runRanksOver(rs, transport.FaultPlan{}, rankRecs(tr.Frames())); err != nil {
			return err
		}
		tenant := m.svc.Tenant("chaos")
		errs := []error{tr.ExactlyOnce(tenant.Records()), l.tally(m, rs)}
		if cov := tenant.Coverage(); !cov.Complete() {
			errs = append(errs, fmt.Errorf("coverage incomplete: %+v", cov))
		}
		if rs.Stats().Reconnects > 0 && rs.Ack().Flags&AckFlagResumed == 0 {
			errs = append(errs, errors.New("reconnected session ack not flagged resumed"))
		}
		return errors.Join(errs...)
	}
}

// codec encodes the feed's frames and heartbeats in the server's format.
var codec = feed.Codec{
	Frame: func(f feed.Frame) []byte {
		return server.AppendFrame(nil, server.FrameHeader{Rank: f.Rank, Seq: f.Seq, CumRecords: f.Cum}, f.Recs)
	},
	Heartbeat: func(rank int, nowNs, leaseNs int64) []byte { return server.AppendHeartbeat(nil, rank, nowNs, leaseNs) },
}

// referenceVerdicts feeds the deliveries to the undisturbed reference and
// records which it accepted — the per-delivery outcome every disturbed
// delivery of the same bytes must reproduce.
func referenceVerdicts(ref *server.Server, deliveries [][]byte) []bool {
	accepted := make([]bool, len(deliveries))
	for i, f := range deliveries {
		accepted[i] = ref.Receive(f) == nil
	}
	return accepted
}

// verdictMismatch reports a delivery the conformance drivers must not
// swallow: an outage (the item was not delivered at all, so a later
// record-count mismatch would have no cause attached) or an accept/reject
// outcome the reference did not produce. resumeProven marks a delivery a
// ResilientSession proved by the resume LSN: its ack died with the wire,
// so nil ("journaled exactly once") is all the session can say about it.
func verdictMismatch(got error, refAccepted, resumeProven bool) bool {
	if errors.Is(got, server.ErrServerDown) {
		return true
	}
	if got == nil && resumeProven {
		return false
	}
	return (got == nil) != refAccepted
}

// sameTenant compares a tenant with the in-process reference fed the same
// deliveries: record log in order, coverage, heartbeats and every outlier
// verdict field.
func sameTenant(got, want *server.Server, threshold float64) error {
	return errors.Join(
		feed.Same("record", got.Records(), want.Records()),
		feed.Equal("coverage", got.Coverage(), want.Coverage()),
		feed.Equal("heartbeats", got.Heartbeats(), want.Heartbeats()),
		feed.Same("outlier", got.InterProcessOutliers(threshold), want.InterProcessOutliers(threshold)),
	)
}

// netKillRecoverSpec draws the socket row's trials.
var netKillRecoverSpec = feed.Spec{
	Seed: 0x50C4E7, Step: 104729, Trials: 12,
	Ranks: [2]int{3, 10}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 4},
	Events: map[feed.Kind][]float64{
		feed.Drop: {0, 0.15}, feed.Dup: {0, 0.15}, feed.Corrupt: {0, 0.1}, feed.Shuffle: {0.5},
		feed.Heartbeat: {1.0 / 7}, feed.Crash: {1, 2, 3},
		feed.TornWrite: {0, 0.5, 1}, feed.SyncLoss: {0, 0.3}, feed.BitRot: {0, 0.4},
	},
}

// netWireSpec draws the socket+wire row's trials: the socket row's faults,
// with the wire's below them.
var netWireSpec = func() feed.Spec {
	sp := netKillRecoverSpec
	sp.Seed, sp.Step, sp.Trials = 0x9E7C4A, 7919, 40
	sp.Ranks, sp.Sensors, sp.Slices = [2]int{2, 5}, [2]int{1, 2}, [2]int{2, 3}
	sp.Events = maps.Clone(sp.Events)
	maps.Copy(sp.Events, wireEvents)
	sp.Bytes = wireBytes("kill")
	return sp
}()

// TestNetKillRecoverConformance is TestKillRecoverConformance with the
// delivery schedule crossing loopback TCP: a durable tenant on a faulty disk
// (torn writes, sync loss, bit rot), fed through one session, crashing and
// recovering mid-stream while pollers race its read surface (and, on the
// bare socket, a re-dialer hammers the resumed handshake), must end exactly
// equal to an in-process server that saw the same schedule with no network,
// no crashes and no disk — same record log, coverage, heartbeats and outlier
// verdicts — and hold every record delivered intact exactly once. Every
// delivery is checked against the reference's verdict for that entry and
// fails on the spot — index, session and medium — on an outage or a
// disagreement.
func TestNetKillRecoverConformance(t *testing.T) {
	t.Run("socket", func(t *testing.T) {
		feed.Run(t, netKillRecoverSpec, netKillRecover(Config{MaxWorkers: 4}, nil))
	})
	t.Run("socket+wire", func(t *testing.T) {
		runWire(t, netWireSpec, killWireRows, func(l *wireLedger, clk clock) feed.Property {
			return netKillRecover(Config{MaxWorkers: 4, IdleSession: 20 * time.Second, clock: clk}, l)
		})
	})
}

// killWire is the schedule the socket+wire regressions below are built on:
// four frames of one size, from two ranks.
var killWire = feed.Trial{Seed: 1, Shape: feed.Shape{Ranks: 2, Sensors: 2, Slices: 3}}

// killWireRows are literal socket+wire trials over killWire: the two ways a
// session once lost or doubled a frame across a reconnect, and a silence
// only the client's read deadline ends in time.
var killWireRows = func() []wireRow {
	with := func(events ...feed.Event) feed.Trial { tr := killWire; tr.Events = events; return tr }
	frame := envHeaderSize + int64(len(killWire.Deliveries(codec)[0]))
	thirdAck := int64(sessionAckBytes + 2*ackBytes)
	return []wireRow{
		// The second delivery is a corrupt copy the tenant rejects, which it
		// journals; the third is cut by a reset. Unless the session's LSN
		// counts the reject, the resume LSN "proves" the cut frame delivered.
		{"reject-then-reset", with(feed.Event{Kind: feed.Corrupt, At: 0, Arg: 9},
			feed.Event{Kind: feed.Reset, At: 0, Arg: helloBytes("kill") + 2*frame + frame/2}), 0},
		// The tenant journals the third delivery and the wire resets in place
		// of its ack: the resumed session must answer that frame from the
		// resume LSN, not send it again as a duplicate.
		{"ack-lost-then-reset", with(feed.Event{Kind: feed.Reset, At: 0, Arg: thirdAck, Out: true}), 0},
		// The same ack, and every byte after it, is swallowed for twice the
		// client's read deadline, as long as the service's idle window: the
		// session must give up on the connection itself.
		{"ack-swallowed", with(feed.Event{Kind: feed.HalfOpen, At: 0, Arg: thirdAck, Out: true, Span: 2 * opTimeout}), 1},
	}
}()

// netKillRecover is the property over one medium: the bare listener when l
// is nil, else the listener behind the trial's wire events, whose effects l
// adds up.
func netKillRecover(svc Config, l *wireLedger) feed.Property {
	return func(t *testing.T, tr feed.Trial) error {
		r := tr.Rand("server")
		shards := 1 << r.IntN(3)
		threshold := []float64{0.7, 0.8, 0.9}[r.IntN(3)]
		durability := server.DurabilityConfig{
			FlushEvery:    []int{0, 0, 2, 8}[r.IntN(4)],
			SnapshotEvery: []int{0, -1, 3, 8}[r.IntN(4)],
			Disk:          storage.NewDisk(tr.Disk()),
		}
		// Reference: in-process, in order, no faults of any kind.
		ref := server.NewSharded(shards)
		deliveries := tr.Deliveries(codec)
		accepted := referenceVerdicts(ref, deliveries)

		// The durable tenant is built by the service's factory hook at the
		// first hello; the property keeps the pointer so it can crash it
		// mid-stream.
		var dur *server.Server
		cfg := svc
		cfg.NewServer = func(string) *server.Server {
			dur = server.NewSharded(shards)
			dur.AttachDurability(durability)
			return dur
		}
		var wire *feed.Trial
		if l != nil {
			wire = &tr
		}
		m := listenVia(t, cfg, wire)
		rs, err := dialVia(m, "kill", tr.Seed)
		if err != nil {
			return err
		}
		defer rs.Close()
		if dur == nil {
			return errors.New("tenant factory never ran")
		}

		// Racing pollers throughout ingest, crash and recovery: the tenant's
		// read surface (the locking story under -race), and on the bare
		// socket a re-dialer opening fresh sessions against the same run (the
		// resumed handshake concurrently with crashes); behind the wire it
		// would take connections the trial's events are placed on.
		polls := []func(){func() {
			_, _, _ = dur.InterProcessOutliers(threshold), dur.Coverage(), dur.Liveness()
			_, _ = dur.Records(), dur.DurabilityStats()
		}}
		if m.wire == nil {
			polls = append(polls, func() {
				if p, err := DialResilient(ReconnectConfig{
					Addr: m.addr, Hello: Hello{RunID: "kill", Rank: 1},
					Retry: RetryPolicy{MaxElapsed: time.Nanosecond},
					clock: m.clk,
				}); err == nil {
					p.Close()
				}
			})
		}
		stop := feed.Race(polls...)
		defer stop() // a failed delivery must not leave the pollers spinning

		// Every delivered envelope journals exactly one outcome, so the
		// durable LSN counts deliveries — the in-process suite's dense-LSN
		// re-drive contract, with the session absorbing connection deaths
		// underneath.
		err = feed.Drive(tr.Schedule(codec), func(i int, f []byte) error {
			resumed := rs.Stats().Resumed
			err := rs.Receive(f)
			if verdictMismatch(err, accepted[i], rs.Stats().Resumed > resumed) {
				return fmt.Errorf("item %d: delivery = %v, reference accepted = %v\nsession: %+v",
					i, err, accepted[i], rs.Stats())
			}
			return nil
		}, nil, func(delivered int) (int, error) {
			if err := dur.Crash(); err != nil {
				return 0, fmt.Errorf("crash at %d: %w", delivered, err)
			}
			if m.wire == nil && len(deliveries) > 0 {
				// The wire reports the outage as an explicit down ack, which
				// the client maps back to ErrServerDown.
				if err := rs.Receive(deliveries[0]); !errors.Is(err, server.ErrServerDown) {
					return 0, fmt.Errorf("Receive while down = %v, want ErrServerDown over the socket", err)
				}
			}
			recov, err := dur.Recover()
			if err != nil || recov.LSN > uint64(delivered) {
				return 0, fmt.Errorf("recover at %d: %v, LSN %d", delivered, err, recov.LSN)
			}
			// The acked-but-unsynced WAL tail died with the crash: rewind the
			// session's durable-position belief to the recovered LSN before
			// re-driving, like any checkpointed producer.
			rs.ResyncLSN(recov.LSN)
			return int(recov.LSN), nil
		})
		stop()
		if err != nil {
			return err
		}
		if err := errors.Join(sameTenant(dur, ref, threshold), tr.ExactlyOnce(dur.Records())); err != nil {
			return err
		}
		if st := rs.Stats(); st.Outages != 0 {
			return fmt.Errorf("retry budget exhausted %d times; faults should never look like a down server here", st.Outages)
		}
		if m.wire != nil {
			if err := l.tally(m, rs); err != nil {
				return err
			}
		}
		// A fresh session against the recovered run reads the durable LSN
		// from its vSA1 ack — the resume contract over the wire. It waits
		// out the busy refusals of a service whose workers are still ending
		// the re-dialer's sessions; behind the wire its own hello may meet a
		// fault.
		fresh := m.session("kill", tr.Seed)
		fresh.Hello.Rank = 2
		s2, err := DialResilient(fresh)
		if err != nil {
			if m.wire == nil {
				return err
			}
			return nil
		}
		defer s2.Close()
		if s2.Ack().Flags&AckFlagResumed == 0 {
			return errors.New("fresh session not flagged as resumed")
		}
		return feed.Equal("session-ack LSN", s2.Ack().LSN, dur.DurabilityStats().LSN)
	}
}
