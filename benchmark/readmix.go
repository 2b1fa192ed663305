package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"vsensor/internal/obs"
	"vsensor/internal/server"
	"vsensor/internal/transport"
)

// ingest-read-mix: the same server and Link as ingest-inproc, used
// differently — reads beside writes, at a rate far below capacity. It is an
// open loop: a pacer sends the records due at every tick whether or not the
// program kept up, an HTTP client polls /outliers on its own schedule, and a
// tailer stamps when each frame's records first show up in a snapshot.
// Every latency is timed from when the operation was due, so a stall is
// charged to everything it delayed.

const (
	offeredRate  = 500_000 // records per second
	pacerTick    = time.Millisecond
	pollInterval = 500 * time.Microsecond // 2,000 reads per second
	// maxMedianLag is how late the pacer's median tick may start before the
	// trial counts as failed: an open loop that cannot keep its schedule is
	// measuring its own backlog. A backlog that grows puts half the ticks
	// far behind; a stall the pacer recovers from (a snapshot build, a GC)
	// delays a few ticks, is charged to the ages, and leaves the median alone.
	maxMedianLag = pacerTick
	// tailerTick is how often the tailer looks at the current snapshot.
	tailerTick = time.Millisecond
	// tailerGrace is how long after the last record the tailer may wait
	// for a snapshot that covers it.
	tailerGrace = 10 * time.Second
)

// readmixVariant is one wiring of the open loop.
type readmixVariant struct {
	name    string
	pollers bool // run the HTTP poller and the tailer
	traced  bool
}

// readmixFixture is the workload after set-up: the schedule plus, for every
// frame the connections will cut, when it is due and how many records the
// server has ingested once it lands.
type readmixFixture struct {
	sched    *schedule
	ticks    int   // pacer ticks per trial
	tickHi   []int // tickHi[k] = visits due by the end of tick k
	frameDue []time.Duration
	// smoke skips the pace check: the tests must pass on a machine (or under
	// a race detector) that cannot sustain the offered rate.
	smoke bool
}

// reportAdapter turns the server's versioned snapshot into the shape
// obs.Serve renders, one wrapper per generation so every poller of a
// generation shares one JSON render — the harness's own small stand-in for
// the facade's unexported wrapper.
func reportAdapter(srv *server.Server) func(*server.ReportSnapshot) *obs.ReportSnapshot {
	var mu sync.Mutex
	var last *obs.ReportSnapshot
	return func(sn *server.ReportSnapshot) *obs.ReportSnapshot {
		mu.Lock()
		defer mu.Unlock()
		if last != nil && last.Gen == sn.Gen {
			return last
		}
		outliers := sn.Report.Outliers
		if outliers == nil {
			outliers = []server.Outlier{}
		}
		last = &obs.ReportSnapshot{
			Gen:    sn.Gen,
			Status: map[string]any{"gen": sn.Gen, "coverage": sn.Coverage, "epochs": sn.Epochs},
			Outliers: map[string]any{
				"gen": sn.Gen, "threshold": sn.Threshold, "watermark_ns": sn.WatermarkNs,
				"outliers": outliers, "confidence": sn.Report.Confidence,
			},
			Records: func(cursor int) (any, int, int, bool) { return sn.RecordsWindow(cursor) },
		}
		return last
	}
}

// pollClient is a one-connection HTTP/1.1 client that allocates nothing per
// request: the harness shares a heap with the program, and net/http's
// client would put some sixty allocations per poll into allocs_per_krec.
type pollClient struct {
	conn net.Conn
	r    *bufio.Reader
	req  []byte
	etag []byte

	n200, n304, bodyBytes int64
}

func dialPoll(addr string) (*pollClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &pollClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), req: make([]byte, 0, 256)}, nil
}

var (
	hdrETag   = []byte("etag:")
	hdrLength = []byte("content-length:")
	hdrTE     = []byte("transfer-encoding:")
)

// poll sends one conditional GET /outliers and consumes the response.
func (c *pollClient) poll() error {
	c.req = append(c.req[:0], "GET /outliers HTTP/1.1\r\nHost: bench\r\n"...)
	if len(c.etag) > 0 {
		c.req = append(c.req, "If-None-Match: "...)
		c.req = append(c.req, c.etag...)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		return err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 {
		return fmt.Errorf("poll: short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return fmt.Errorf("poll: status line %q", line)
	}
	length, chunked := int64(0), false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		switch {
		case hasFoldPrefix(line, hdrETag):
			c.etag = append(c.etag[:0], bytes.TrimSpace(line[len(hdrETag):])...)
		case hasFoldPrefix(line, hdrLength):
			if length, err = strconv.ParseInt(string(bytes.TrimSpace(line[len(hdrLength):])), 10, 64); err != nil {
				return err
			}
		case hasFoldPrefix(line, hdrTE):
			chunked = true
		}
	}
	switch status {
	case 304:
		c.n304++
		return nil
	case 200:
		c.n200++
	default:
		return fmt.Errorf("poll: status %d", status)
	}
	if !chunked {
		c.bodyBytes += length
		_, err = c.r.Discard(int(length))
		return err
	}
	for {
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
		if err != nil {
			return fmt.Errorf("poll: chunk size %q", line)
		}
		c.bodyBytes += size
		if _, err = c.r.Discard(int(size) + 2); err != nil { // data + CRLF
			return err
		}
		if size == 0 {
			return nil
		}
	}
}

// hasFoldPrefix reports whether line starts with the lower-case prefix,
// ignoring ASCII case.
func hasFoldPrefix(line, prefix []byte) bool {
	return len(line) >= len(prefix) && bytes.EqualFold(line[:len(prefix)], prefix)
}

func setupReadMix(opt options) (*fixture, error) {
	sh := shape{Ranks: 4096, Slices: 32, Sensors: 8, Lanes: 1, Phase: 8}
	if opt.Smoke {
		sh.Ranks, sh.Slices = 64, 16
	}
	sched, err := buildSchedule(sh, opt.Seed)
	if err != nil {
		return nil, err
	}
	f := &readmixFixture{sched: sched, smoke: opt.Smoke}

	// The pacing plan: visit v is ideally due at v*Sensors/offeredRate; the
	// pacer works in ticks, so it is due at the end of the tick that holds
	// that instant. A frame is due when the visit that fills it is.
	n := sched.visits(0)
	interval := time.Duration(int64(time.Second) * int64(sh.Sensors) / offeredRate)
	f.ticks = int((time.Duration(n)*interval + pacerTick - 1) / pacerTick)
	f.tickHi = make([]int, f.ticks+1)
	for k := 1; k <= f.ticks; k++ {
		hi := int(time.Duration(k) * pacerTick / interval)
		if hi > n || k == f.ticks {
			hi = n
		}
		f.tickHi[k] = hi
	}
	buffered := make(map[int]int)
	tick := 1
	for v := 0; v < n; v++ {
		for v >= f.tickHi[tick] {
			tick++
		}
		rank := sched.visit(0, v)[0].Rank
		buffered[rank] += sh.Sensors
		for ; buffered[rank] >= server.DefaultBatchSize; buffered[rank] -= server.DefaultBatchSize {
			f.frameDue = append(f.frameDue, time.Duration(tick)*pacerTick)
		}
	}

	fx := &fixture{lanes: 4}
	for _, v := range []readmixVariant{
		{name: "main", pollers: true, traced: true},
		{name: "untraced", pollers: true},
		{name: "nopoll", traced: true},
	} {
		fx.variants = append(fx.variants, variant{name: v.name, run: func(tr *tracer, trial int) trialOut {
			return f.trial(v, tr, trial)
		}})
	}
	fx.derive = func(res *result, per map[string][]trialOut, spans map[spanID]span) {
		putReceiveLatency(res, spans, "server.receive_p50_us", "server.receive_p99_us")
		nopoll, _, _ := receiveLatency(spans, "nopoll/")
		res.putTrials("server.receive_p50_us_nopoll", nopoll)
		traceOverhead(res, per)
	}
	// The warm-up runs the pacer alone: it grows the heap to the size of a
	// trial's server state, which is what a first trial would otherwise pay
	// for, without the seconds the tailer waits out the rebuild throttle.
	if out := f.trial(readmixVariant{name: "warm-up"}, nil, -1); out.err != nil {
		return nil, fmt.Errorf("warm-up: %w", out.err)
	}
	return fx, nil
}

// trial runs the open loop once. With pollers off only the pacer runs: the
// rung that shows what the readers cost the ingest path.
func (f *readmixFixture) trial(v readmixVariant, tr *tracer, trial int) (out trialOut) {
	if !v.traced {
		tr = nil
	}
	s := f.sched
	out.records = s.records()
	frames := int64(len(f.frameDue))
	out.attempted = frames
	prefix := ""
	if v.name != "main" {
		prefix = v.name + "/"
	}

	// Wired the way `vsensor run -http` wires it: one Obs on the server and
	// the link, the report providers over the server's snapshot cache.
	srv := server.NewSharded(server.DefaultShards)
	o := obs.New()
	srv.SetObs(o)
	// transport.NewLink(srv, plan) is NewLinkOver with the server as medium.
	var medium *tracingMedium
	var sink transport.Medium = srv
	if tr != nil {
		medium = &tracingMedium{inner: srv, ln: tr.lane(1), prefix: prefix, trial: trial}
		sink = medium
	}
	link := transport.NewLinkOver(sink, transport.FaultPlan{})
	link.SetObs(o)
	conns := make([]*transport.Conn, s.Ranks)
	emitters := make([]emitter, s.Ranks)
	for r := range conns {
		conns[r] = link.NewConn(r, transport.Config{})
		emitters[r] = conns[r]
	}
	var client *pollClient
	if v.pollers {
		wrap := reportAdapter(srv)
		o.SetReport(
			func() *obs.ReportSnapshot { return wrap(srv.Snapshot()) },
			func(after uint64, timeout time.Duration) *obs.ReportSnapshot {
				return wrap(srv.WaitSnapshot(after, timeout))
			},
		)
		web, err := obs.Serve("127.0.0.1:0", o)
		if err != nil {
			out.err = err
			return out
		}
		defer web.Close()
		if client, err = dialPoll(web.Addr()); err != nil {
			out.err = err
			return out
		}
		defer client.conn.Close()
	}

	var mu sync.Mutex // guards errs
	var errs []error
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	pacerFail := func(err error) { // pacer goroutine only
		out.failed++
		fail(err)
	}
	root := tr.lane(0).begin(prefix+"trial", trial, 0)
	pacing := time.Duration(f.ticks) * pacerTick
	var readLat, pollLag, ages []float64
	schedLag := make([]float64, 0, f.ticks)
	var wg sync.WaitGroup

	out.meter.start()
	start := out.meter.t0
	if v.pollers {
		polls := int(pacing / pollInterval)
		readLat = make([]float64, 0, polls)
		pollLag = make([]float64, 0, polls)
		out.attempted += int64(polls)
		wg.Add(1)
		go func() { // the HTTP poller
			defer wg.Done()
			ln := tr.lane(2)
			for k := 0; k < polls; k++ {
				due := time.Duration(k) * pollInterval
				sleepUntil(start, due)
				pollLag = append(pollLag, float64(time.Since(start)-due)/1e6)
				id := ln.begin(prefix+"obs.read", trial, root)
				err := client.poll()
				ln.end(id)
				if err != nil {
					fail(err)
					return
				}
				readLat = append(readLat, float64(time.Since(start)-due)/1e3)
			}
		}()
		ages = make([]float64, 0, frames)
		wg.Add(1)
		go func() { // the tailer
			defer wg.Done()
			ln := tr.lane(3)
			var gen uint64
			for k := 1; len(ages) < len(f.frameDue) && time.Since(start) < pacing+tailerGrace; k++ {
				sleepUntil(start, time.Duration(k)*tailerTick)
				id := ln.begin(prefix+"server.snapshot", trial, root)
				sn := srv.Snapshot()
				ln.end(id)
				if sn.Gen == gen {
					continue
				}
				gen = sn.Gen
				now := time.Since(start)
				covered := sn.Coverage.IngestedRecords / server.DefaultBatchSize
				for int64(len(ages)) < covered {
					ages = append(ages, float64(now-f.frameDue[len(ages)])/1e6)
				}
			}
		}()
	}

	// The pacer: at every tick, send the visits that came due.
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		ln := tr.lane(1)
		next := 0 // visits sent so far
		for k := 1; k <= f.ticks; k++ {
			due := time.Duration(k) * pacerTick
			sleepUntil(start, due)
			schedLag = append(schedLag, float64(time.Since(start)-due)/1e6)
			id := ln.begin(prefix+"transport.onslice", trial, root)
			if medium != nil {
				medium.parent = id
			}
			emitVisits(s, 0, next, f.tickHi[k], emitters, pacerFail)
			next = f.tickHi[k]
			ln.end(id)
		}
		id := ln.begin(prefix+"transport.close", trial, root)
		if medium != nil {
			medium.parent = id
		}
		for _, c := range conns {
			if err := c.Close(); err != nil {
				pacerFail(err)
			}
		}
		ln.end(id)
	}()
	<-pacerDone
	id := tr.lane(0).begin(prefix+"server.report", trial, root)
	t0 := time.Now()
	rep := srv.InterProcessReport(reportThreshold)
	out.set("server.report_ms", float64(time.Since(t0))/1e6)
	tr.lane(0).end(id)
	out.meter.stop()
	// The readers finish outside the timed window: the last frames' ages
	// need one more snapshot, which the rebuild throttle may hold back.
	wg.Wait()
	tr.lane(0).end(root)

	if err := s.checkReport(rep); err != nil {
		fail(err)
	}
	if lag, _ := tail(schedLag, 0.5); lag > float64(maxMedianLag)/1e6 && !f.smoke {
		fail(fmt.Errorf("open loop fell behind: the median tick started %.2f ms late at %d records/s offered", lag, offeredRate))
	}
	var lost int64
	for _, c := range conns {
		lost += c.Stats().LostRecords
	}
	if lost != 0 {
		fail(fmt.Errorf("oracle: transport reports %d lost records", lost))
	}
	if v.pollers {
		if missing := len(f.frameDue) - len(ages); missing > 0 {
			out.failed += int64(missing)
			fail(fmt.Errorf("oracle: %d frames never appeared in a snapshot", missing))
		}
		if missing := cap(readLat) - len(readLat); missing > 0 {
			out.failed += int64(missing)
		}
		setTail := func(name string, samples []float64, want float64) {
			v, _ := tail(samples, want)
			out.set(name, v)
		}
		setTail("verdict_age_p50_ms", ages, 0.5)
		setTail("verdict_age_p95_ms", ages, 0.95)
		setTail("server.verdict_age_p99_ms", ages, 0.99)
		setTail("read_p50_us", readLat, 0.5)
		setTail("read_p95_us", readLat, 0.95)
		setTail("obs.read_p99_us", readLat, 0.99)
		setTail("load.poll_lag_p99_ms", pollLag, 0.99)
		out.set("obs.http_200", float64(client.n200))
		out.set("obs.http_304", float64(client.n304))
		out.set("obs.body_bytes", float64(client.bodyBytes))
		st := srv.SnapshotStats()
		out.set("server.snapshot_builds", float64(st.Builds))
		out.set("server.snapshot_hits", float64(st.Hits))
		out.set("server.snapshot_gen_per_s", float64(st.Gen)/out.wall.Seconds())
	}
	lag, _ := tail(schedLag, 0.99)
	out.set("load.sched_lag_p99_ms", lag)
	out.set("server.epochs_closed", float64(srv.EpochStats().Closed))
	out.set("server.epochs_reopened", float64(o.Counter("server_epoch_reopens_total").Value()))
	out.err = errors.Join(errs...)
	return out
}
