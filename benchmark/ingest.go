package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/netsrv"
	"vsensor/internal/server"
	"vsensor/internal/storage"
	"vsensor/internal/transport"
)

// The closed-loop ingest workloads: two generator goroutines push the
// schedule's records through per-rank emitters into a fresh analysis server
// (in process, or behind a loopback TCP session with a durable tenant),
// close the emitters, and ask for the inter-process report. A generator
// sends its next record only after the previous call returned, so a slower
// program simply receives load more slowly.

const (
	reportThreshold = 0.8
	// syncDelayNs is the modelled device sync latency of the durable
	// tenant's disk: a fast SSD's fsync, the value internal/load uses.
	syncDelayNs = 5_000
	// visitsPerSpan is how many visits (rank x slice, Sensors records each)
	// one transport.onslice span covers when tracing: fine enough to see a
	// stall, coarse enough that the clock reads do not dominate the calls.
	visitsPerSpan = 256
)

// How the records reach the medium.
type emitPath int

const (
	pathLink   emitPath = iota // transport.Conn per rank over a Link (the workload itself)
	pathClient                 // server.Client per rank, no Link
	pathFrames                 // pre-encoded frames straight into Medium.Receive
	pathAsync                  // pre-encoded frames through SendAsync, one Drain at the end
)

// How the tenant journals.
type durMode int

const (
	durNone         durMode = iota
	durGroup                // group commit, default checkpoint cadence (the workload itself)
	durNoCheckpoint         // group commit, automatic checkpoints off
	durPerOp                // one write and one sync per outcome
)

// ingestVariant is one wiring of the same schedule.
type ingestVariant struct {
	name   string
	tcp    bool
	dur    durMode
	path   emitPath
	traced bool // wrap the medium and record spans (pathLink only; the main variant only)
}

// ingestFixture is an ingest workload after set-up.
type ingestFixture struct {
	sched  *schedule
	frames [][][]byte // per lane, pre-encoded in send order; traced runs only
	seed   int64
	trials atomic.Int64 // run IDs must be fresh per trial, across variants
	// wrap, when set, is put between the Link and the medium: the seam the
	// oracle test uses to lose a frame on purpose.
	wrap func(transport.Medium) transport.Medium
}

// tracingMedium is the harness's wrapper at the transport.Medium seam: one
// per generator lane, so the span it records around each Receive can name
// the lane's current onslice span as its parent without any shared state.
type tracingMedium struct {
	inner  transport.Medium
	ln     *lane
	prefix string
	trial  int
	parent spanID
}

func (m *tracingMedium) Receive(encoded []byte) error {
	id := m.ln.begin(m.prefix+"medium.receive", m.trial, m.parent)
	err := m.inner.Receive(encoded)
	m.ln.end(id)
	return err
}

// closer is what a per-rank emitter needs at the end of its lane.
type closer interface{ Close() error }

// clientCloser adapts server.Client, whose final flush is called Flush.
type clientCloser struct{ *server.Client }

func (c clientCloser) Close() error { return c.Flush() }

// emitter is a per-rank record sink the lanes can drive and finish.
type emitter interface {
	detect.Emitter
	closer
}

// emitVisits is a generator's inner loop: visits lo..hi of lane g, one
// OnSlice per record, nothing else — it must not allocate, so that every
// allocation a trial counts belongs to the program.
func emitVisits(s *schedule, g, lo, hi int, emitters []emitter, fail func(error)) {
	for v := lo; v < hi; v++ {
		recs := s.visit(g, v)
		e := emitters[recs[0].Rank]
		for i := range recs {
			if err := e.OnSlice(recs[i]); err != nil {
				fail(err)
			}
		}
	}
}

// encodeFrames cuts the schedule into the frames a Conn at the production
// batch size would send, per lane in send order: a frame whenever a rank's
// buffer reaches the batch size, the remainders in rank-visit order at the
// end (what closing each Conn in turn produces).
func encodeFrames(s *schedule) [][][]byte {
	out := make([][][]byte, s.Lanes)
	for g := range out {
		type flow struct {
			buf      []detect.SliceRecord
			seq, cum uint64
		}
		flows := make(map[int]*flow)
		var order []int
		cut := func(rank int, fl *flow) {
			fl.seq++
			fl.cum += uint64(len(fl.buf))
			h := server.FrameHeader{Rank: rank, Seq: fl.seq, CumRecords: fl.cum}
			out[g] = append(out[g], server.AppendFrame(nil, h, fl.buf))
			fl.buf = fl.buf[:0]
		}
		for v := 0; v < s.visits(g); v++ {
			recs := s.visit(g, v)
			rank := recs[0].Rank
			fl := flows[rank]
			if fl == nil {
				fl = &flow{}
				flows[rank] = fl
				order = append(order, rank)
			}
			for _, r := range recs {
				fl.buf = append(fl.buf, r)
				if len(fl.buf) == server.DefaultBatchSize {
					cut(rank, fl)
				}
			}
		}
		for _, rank := range order {
			if fl := flows[rank]; len(fl.buf) > 0 {
				cut(rank, fl)
			}
		}
	}
	return out
}

// newTenant builds the fresh analysis server of one trial.
func newTenant(dur durMode) (*server.Server, *storage.Disk) {
	srv := server.NewSharded(server.DefaultShards)
	if dur == durNone {
		return srv, nil
	}
	disk := storage.NewDisk(storage.Faults{})
	disk.SetSyncDelayNs(syncDelayNs)
	cfg := server.DurabilityConfig{FlushEvery: server.DefaultFlushEvery, Disk: disk}
	switch dur {
	case durNoCheckpoint:
		cfg.SnapshotEvery = -1
	case durPerOp:
		cfg.FlushEvery = 0
	}
	srv.AttachDurability(cfg)
	return srv, disk
}

// trial runs the schedule once through variant v.
func (f *ingestFixture) trial(v ingestVariant, tr *tracer, trial int) (out trialOut) {
	s := f.sched
	out.records = s.records()
	out.attempted = int64(s.Ranks) * s.framesPerRank()
	if !v.traced {
		tr = nil
	}

	srv, disk := newTenant(v.dur)
	var medium transport.Medium = srv
	var svc *netsrv.Service
	var rs *netsrv.ResilientSession
	if v.tcp {
		var err error
		svc, err = netsrv.Listen("127.0.0.1:0", netsrv.Config{
			NewServer: func(string) *server.Server { return srv },
		})
		if err != nil {
			out.err = err
			return out
		}
		defer svc.Close()
		t0 := time.Now()
		rs, err = netsrv.DialResilient(netsrv.ReconnectConfig{
			Addr:  svc.Addr().String(),
			Hello: netsrv.Hello{RunID: fmt.Sprintf("bench-%d-%d", f.seed, f.trials.Add(1))},
			Retry: netsrv.RetryPolicy{Seed: f.seed},
		})
		if err != nil {
			out.err = err
			return out
		}
		defer rs.Close()
		out.set("netsrv.dial_ms", float64(time.Since(t0))/1e6)
		medium = rs
	}

	// Per-rank emitters, built before the clock starts. Traced, each lane
	// gets its own Link over its own tracing wrapper of the shared medium.
	var emitters []emitter
	var conns []*transport.Conn
	media := make([]*tracingMedium, s.Lanes)
	switch v.path {
	case pathLink:
		emitters = make([]emitter, s.Ranks)
		conns = make([]*transport.Conn, s.Ranks)
		// transport.NewLink(srv, plan) is this same constructor for the
		// in-process server; NewLinkOver takes any medium.
		if f.wrap != nil {
			medium = f.wrap(medium)
		}
		links := make([]*transport.Link, s.Lanes)
		for g := range links {
			switch {
			case tr != nil:
				media[g] = &tracingMedium{inner: medium, ln: tr.lane(g + 1), trial: trial}
				links[g] = transport.NewLinkOver(media[g], transport.FaultPlan{})
			case g == 0:
				links[g] = transport.NewLinkOver(medium, transport.FaultPlan{})
			default:
				links[g] = links[0]
			}
		}
		for r := range emitters {
			conns[r] = links[r%s.Lanes].NewConn(r, transport.Config{})
			emitters[r] = conns[r]
		}
	case pathClient:
		emitters = make([]emitter, s.Ranks)
		for r := range emitters {
			emitters[r] = clientCloser{srv.NewClient(r, 0)}
		}
	}

	var failed atomic.Int64
	var firstErr atomic.Value
	fail := func(err error) {
		failed.Add(1)
		firstErr.CompareAndSwap(nil, err)
	}
	root := tr.lane(0).begin("trial", trial, 0)

	out.meter.start()
	var wg sync.WaitGroup
	for g := 0; g < s.Lanes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ln := tr.lane(g + 1)
			switch v.path {
			case pathFrames:
				for _, frame := range f.frames[g] {
					if err := medium.Receive(frame); err != nil {
						fail(err)
					}
				}
			case pathAsync:
				for _, frame := range f.frames[g] {
					if err := rs.SendAsync(frame); err != nil {
						fail(err)
					}
				}
			default:
				n := s.visits(g)
				for lo := 0; lo < n; lo += visitsPerSpan {
					hi := lo + visitsPerSpan
					if hi > n {
						hi = n
					}
					id := ln.begin("transport.onslice", trial, root)
					if ln != nil {
						media[g].parent = id
					}
					emitVisits(s, g, lo, hi, emitters, fail)
					ln.end(id)
				}
				id := ln.begin("transport.close", trial, root)
				if ln != nil {
					media[g].parent = id
				}
				for r := g; r < s.Ranks; r += s.Lanes {
					if err := emitters[r].Close(); err != nil {
						fail(err)
					}
				}
				ln.end(id)
			}
		}(g)
	}
	wg.Wait()
	if v.path == pathAsync {
		if err := rs.Drain(); err != nil {
			fail(err)
		}
	}
	if v.dur != durNone {
		id := tr.lane(0).begin("server.checkpoint", trial, root)
		t0 := time.Now()
		if err := srv.Checkpoint(); err != nil {
			fail(err)
		}
		out.set("server.checkpoint_final_ms", float64(time.Since(t0))/1e6)
		tr.lane(0).end(id)
	}
	id := tr.lane(0).begin("server.report", trial, root)
	t0 := time.Now()
	rep := srv.InterProcessReport(reportThreshold)
	reportMs := float64(time.Since(t0)) / 1e6
	tr.lane(0).end(id)
	out.meter.stop()
	tr.lane(0).end(root)

	out.set("server.report_ms", reportMs)
	out.set("server.epochs_closed", float64(srv.EpochStats().Closed))
	out.failed = failed.Load()
	if err, _ := firstErr.Load().(error); err != nil {
		out.err = fmt.Errorf("%d delivery errors, first: %w", out.failed, err)
	}
	var lost, frames, bytes, retries int64
	for _, c := range conns {
		st := c.Stats()
		lost += st.LostRecords
		frames += st.FramesSent
		bytes += st.BytesSent
		retries += st.Retries
	}
	if conns != nil {
		out.set("transport.frames", float64(frames))
		out.set("transport.bytes", float64(bytes))
		out.set("transport.retries", float64(retries))
	}
	if lost != 0 && out.err == nil {
		out.err = fmt.Errorf("oracle: transport reports %d lost records", lost)
	}
	if err := s.checkReport(rep); err != nil {
		out.err = errors.Join(out.err, err)
	}
	if svc != nil {
		st := svc.Stats()
		out.set("netsrv.frames_in", float64(st.FramesIn))
		out.set("netsrv.peak_workers", float64(st.PeakWorkers))
		out.set("netsrv.reconnects", float64(rs.Stats().Reconnects))
	}
	if disk != nil {
		ds := srv.DurabilityStats()
		out.set("server.wal_syncs", float64(ds.Syncs))
		out.set("server.wal_group_commits", float64(ds.GroupCommits))
		out.set("server.wal_bytes", float64(ds.WALBytes))
		out.set("server.snapshots", float64(ds.Snapshots))
		st := disk.Stats()
		out.set("storage.appends", float64(st.Appends))
		out.set("storage.append_bytes", float64(st.AppendBytes))
		out.set("storage.syncs", float64(st.Syncs))
		// Computed, not measured: the disk busy-waits syncDelayNs per sync.
		out.set("storage.sync_wait_ms", float64(st.Syncs)*syncDelayNs/1e6)
	}
	return out
}

// setupIngest builds the fixture of a closed-loop ingest workload: the
// schedule from the seed, the frames the pre-encoded rungs need, and the
// warm-up trials.
func setupIngest(opt options, sh shape, warmups int, variants []ingestVariant) (*fixture, error) {
	sched, err := buildSchedule(sh, opt.Seed)
	if err != nil {
		return nil, err
	}
	f := &ingestFixture{sched: sched, seed: opt.Seed}
	if opt.Trace {
		f.frames = encodeFrames(sched)
	}
	fx := &fixture{lanes: sh.Lanes + 1}
	for _, v := range variants {
		fx.variants = append(fx.variants, variant{name: v.name, run: func(tr *tracer, trial int) trialOut {
			return f.trial(v, tr, trial)
		}})
	}
	for i := 0; i < warmups; i++ {
		if out := f.trial(variants[0], nil, -1); out.err != nil {
			return nil, fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return fx, nil
}

// transportSpanMetrics folds the main variant's spans into the busy and
// self time of the layer the generators call into, per trial.
func transportSpanMetrics(res *result, spans map[spanID]span) {
	var busy, medium, self, accounted []float64
	for _, names := range rollup(spans) {
		on, cl, md, root := names["transport.onslice"], names["transport.close"], names["medium.receive"], names["trial"]
		if root.Count == 0 {
			continue
		}
		busy = append(busy, float64(on.Busy+cl.Busy)/1e9)
		medium = append(medium, float64(md.Busy)/1e9)
		self = append(self, float64(on.Self+cl.Self)/1e9)
		accounted = append(accounted, (1-float64(root.Self)/float64(root.Busy))*100)
	}
	res.putTrials("transport.onslice_busy_s", busy)
	res.putTrials("transport.medium_busy_s", medium)
	res.putTrials("transport.self_s", self)
	res.putTrials("host.trace_accounted_pct", accounted)
}

// receiveLatency returns, per trial, the median and the p99 (capped by
// reliableP; p is the percentile actually used) of the medium's Receive as
// the wrapper under the given variant prefix saw it, in microseconds.
func receiveLatency(spans map[spanID]span, prefix string) (p50, p99 []float64, p float64) {
	lat := make(map[int][]float64)
	for _, sp := range spans {
		if sp.Name == prefix+"medium.receive" {
			lat[sp.Trial] = append(lat[sp.Trial], float64(sp.End-sp.Start)/1e3)
		}
	}
	for _, l := range lat {
		a, _ := tail(l, 0.5)
		var b float64
		b, p = tail(l, 0.99)
		p50, p99 = append(p50, a), append(p99, b)
	}
	return p50, p99, p
}

// putReceiveLatency reports the main variant's Receive percentiles under
// the names of the layer behind the medium.
func putReceiveLatency(res *result, spans map[spanID]span, name50, name99 string) {
	p50, p99, p := receiveLatency(spans, "")
	res.putTrials(name50, p50)
	res.putTrials(name99, p99)
	if len(p99) > 0 && p < 0.99 {
		res.Notes = append(res.Notes, fmt.Sprintf("%s reported at p%g: too few samples per trial for ten beyond p99", name99, p*100))
	}
}

func rps(per map[string][]trialOut, name string) float64 {
	return medianOf(per[name], recordsPerSecond)
}

// putRPS reports a ladder rung's records/s under a metric name.
func putRPS(res *result, per map[string][]trialOut, variant, metric string) {
	res.putTrials(metric, column(per[variant], recordsPerSecond))
}

func setupIngestInproc(opt options) (*fixture, error) {
	sh := shape{Ranks: 4096, Slices: 16, Sensors: 8, Lanes: 2, Phase: 1}
	warmups := 3
	if opt.Smoke {
		sh.Ranks, warmups = 64, 1
	}
	fx, err := setupIngest(opt, sh, warmups, []ingestVariant{
		{name: "main", path: pathLink, traced: true},
		{name: "untraced", path: pathLink},
		{name: "preencoded", path: pathFrames},
		{name: "direct-client", path: pathClient},
	})
	if err != nil {
		return nil, err
	}
	fx.derive = func(res *result, per map[string][]trialOut, spans map[spanID]span) {
		transportSpanMetrics(res, spans)
		putReceiveLatency(res, spans, "server.receive_p50_us", "server.receive_p99_us")
		putRPS(res, per, "preencoded", "server.preencoded_rps")
		putRPS(res, per, "direct-client", "server.direct_client_rps")
		if d := rps(per, "direct-client"); d > 0 {
			res.put("transport.link_over_direct_ratio", rps(per, "untraced")/d)
		}
		traceOverhead(res, per)
	}
	return fx, nil
}

func setupIngestTCPDurable(opt options) (*fixture, error) {
	sh := shape{Ranks: 2048, Slices: 16, Sensors: 8, Lanes: 2, Phase: 1}
	warmups := 2
	if opt.Smoke {
		sh.Ranks, warmups = 64, 1
	}
	fx, err := setupIngest(opt, sh, warmups, []ingestVariant{
		{name: "main", tcp: true, dur: durGroup, path: pathLink, traced: true},
		{name: "untraced", tcp: true, dur: durGroup, path: pathLink},
		{name: "pipelined", tcp: true, dur: durGroup, path: pathAsync},
		{name: "nondurable", tcp: true, path: pathLink},
		{name: "wal-inproc", dur: durGroup, path: pathLink},
		{name: "wal-nocheckpoint", tcp: true, dur: durNoCheckpoint, path: pathLink},
		{name: "wal-perop", dur: durPerOp, path: pathLink},
	})
	if err != nil {
		return nil, err
	}
	fx.derive = func(res *result, per map[string][]trialOut, spans map[spanID]span) {
		putReceiveLatency(res, spans, "netsrv.receive_p50_us", "netsrv.receive_p99_us")
		putRPS(res, per, "pipelined", "netsrv.pipelined_rps")
		putRPS(res, per, "nondurable", "netsrv.nondurable_rps")
		putRPS(res, per, "wal-inproc", "server.wal_inproc_rps")
		putRPS(res, per, "wal-nocheckpoint", "server.wal_nocheckpoint_rps")
		putRPS(res, per, "wal-perop", "server.wal_perop_rps")
		if n := rps(per, "wal-nocheckpoint"); n > 0 {
			// The share of a trial's wall time that automatic checkpoints
			// cost: same path, same inputs, checkpoints on vs off.
			res.put("server.checkpoint_share", 1-rps(per, "untraced")/n)
		}
		traceOverhead(res, per)
	}
	return fx, nil
}
