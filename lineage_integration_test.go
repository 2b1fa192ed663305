package vsensor_test

import (
	"sort"
	"testing"

	vsensor "vsensor"
	"vsensor/internal/detect"
	"vsensor/internal/obs"
	"vsensor/internal/server"
	"vsensor/internal/transport"
)

// lossyDurable is the lineage tests' run: the full pipeline over a faulty
// transport into the durable server.
func lossyDurable(lin *obs.LineageConfig) vsensor.Options {
	return vsensor.Options{
		Ranks:   8,
		Cluster: lossyCluster(),
		Faults:  &transport.FaultPlan{Seed: 5, Drop: 0.2, Dup: 0.05, Reorder: 0.1, Corrupt: 0.05},
		// Fine slices so the run spans many epochs and the watermark can
		// pass over early ones.
		Detect:     detect.Config{SliceNs: 50_000},
		Transport:  &transport.Config{BatchSize: 4},
		Durability: &server.DurabilityConfig{},
		Lineage:    lin,
	}
}

// lineageRun executes lossyDurable with lineage sampling enabled, then
// closes all reachable epochs with one final query (epochs close only when
// an analysis query passes the watermark over them, so close/verdict spans
// need it).
func lineageRun(t *testing.T, cfg obs.LineageConfig) *vsensor.Report {
	t.Helper()
	rep, err := vsensor.Run(lossySrc, lossyDurable(&cfg))
	if err != nil {
		t.Fatal(err)
	}
	rep.Server.InterProcessOutliers(0.8)
	return rep
}

// TestLineageEndToEnd is the acceptance path: a seeded faulty run with
// lineage on yields at least one sampled record whose journey crosses six
// or more distinct pipeline stages, and the ingest histogram's exemplar
// resolves back to a journey in the flight recorder.
func TestLineageEndToEnd(t *testing.T) {
	rep := lineageRun(t, obs.LineageConfig{SampleEvery: 4, Seed: 21})
	lin := rep.Lineage()
	if lin == nil {
		t.Fatal("Options.Lineage set but Report.Lineage() is nil")
	}
	if lin.SampledFrames() == 0 {
		t.Fatal("no frames sampled at SampleEvery=4")
	}

	spans, _ := lin.Snapshot(nil, 0)
	stagesByTrace := map[uint64]map[obs.Stage]bool{}
	for _, sp := range spans {
		m := stagesByTrace[sp.Trace]
		if m == nil {
			m = map[obs.Stage]bool{}
			stagesByTrace[sp.Trace] = m
		}
		m[sp.Stage] = true
	}
	best, bestTrace := 0, uint64(0)
	for tr, m := range stagesByTrace {
		if len(m) > best {
			best, bestTrace = len(m), tr
		}
	}
	if best < 6 {
		t.Fatalf("deepest journey crosses %d stages (trace %#x), want >= 6", best, bestTrace)
	}
	for _, want := range []obs.Stage{obs.StageEmit, obs.StageEnqueue, obs.StageAttempt, obs.StageIngest} {
		found := false
		for _, m := range stagesByTrace {
			if m[want] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no journey recorded stage %v", want)
		}
	}

	// The top server_ingest exemplar must point into a recorded journey.
	top, ok := lin.StageHistogram(obs.StageIngest).TopExemplar()
	if !ok || top.Trace == 0 {
		t.Fatal("ingest histogram has no exemplar after a sampled run")
	}
	if _, resolved := stagesByTrace[top.Trace]; !resolved {
		t.Fatalf("top ingest exemplar trace %#x not in the flight recorder", top.Trace)
	}

	// Closing epochs via the final query must have produced verdict spans
	// for at least one sampled journey.
	var sawClose bool
	for _, m := range stagesByTrace {
		if m[obs.StageEpochClose] {
			sawClose = true
			break
		}
	}
	if !sawClose {
		t.Error("no epoch_close span on any journey after the closing query")
	}
}

// sampledTraces returns the sorted distinct trace IDs in the flight
// recorder.
func sampledTraces(lin *obs.Lineage) []uint64 {
	spans, _ := lin.Snapshot(nil, 0)
	seen := map[uint64]bool{}
	for _, sp := range spans {
		seen[sp.Trace] = true
	}
	out := make([]uint64, 0, len(seen))
	for tr := range seen {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLineageDeterministicSampling pins that two identical seeded runs
// sample the identical set of journeys — the property that makes a trace ID
// from one run's report reproducible in a rerun.
func TestLineageDeterministicSampling(t *testing.T) {
	cfg := obs.LineageConfig{SampleEvery: 4, Seed: 21}
	a := sampledTraces(lineageRun(t, cfg).Lineage())
	b := sampledTraces(lineageRun(t, cfg).Lineage())
	if len(a) == 0 {
		t.Fatal("no journeys sampled")
	}
	if len(a) != len(b) {
		t.Fatalf("sampled journey counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampled set diverges at %d: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// TestLineageAutoObs pins that Options.Lineage alone is enough — the facade
// creates the obs bundle when the caller did not attach one.
func TestLineageAutoObs(t *testing.T) {
	rep, err := vsensor.Run(lossySrc, vsensor.Options{
		Ranks:   4,
		Lineage: &obs.LineageConfig{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lin := rep.Lineage()
	if lin == nil {
		t.Fatal("lineage not enabled without an explicit Obs")
	}
	if lin.SampledFrames() == 0 {
		t.Fatal("no frames sampled at SampleEvery=1 on the direct path")
	}
	// Direct (in-process) delivery still records emit and server-side hops
	// even without the transport link.
	spans, _ := lin.Snapshot(nil, 0)
	var sawEmit, sawIngest bool
	for _, sp := range spans {
		sawEmit = sawEmit || sp.Stage == obs.StageEmit
		sawIngest = sawIngest || sp.Stage == obs.StageIngest
	}
	if !sawEmit || !sawIngest {
		t.Fatalf("direct path spans: emit=%v ingest=%v, want both", sawEmit, sawIngest)
	}
}

// TestLineageIsAnObserver pins that tracing every frame perturbs nothing it
// observes: no trace travels on the wire, so the fault dice roll the same
// and the run, the server's log, bytes and coverage, the journal and the
// link's delivery accounting are equal with lineage off and on. The listen
// row connects to a durable tenant behind a service listening on a real
// socket, where the journey still joins up: each side derives the trace from
// the frame header with the sampler it shares.
func TestLineageIsAnObserver(t *testing.T) {
	for _, row := range []struct {
		name   string
		listen bool
	}{{"inproc", false}, {"listen", true}} {
		t.Run(row.name, func(t *testing.T) {
			run := func(lin *obs.LineageConfig) (*server.Server, *vsensor.Report, *obs.Obs) {
				opt := lossyDurable(lin)
				opt.Obs = obs.New()
				var ten *server.Server
				if row.listen {
					ten = server.NewSharded(0)
					ten.AttachDurability(*opt.Durability)
					opt.Durability = nil
					opt.Connect = serveTenant(t, ten, opt.Obs).Addr().String()
				}
				rep, err := vsensor.Run(lossySrc, opt)
				if err != nil {
					t.Fatal(err)
				}
				if ten == nil {
					ten = rep.Server
				}
				return ten, rep, opt.Obs
			}
			offSrv, off, offObs := run(nil)
			onSrv, on, onObs := run(&obs.LineageConfig{SampleEvery: 1})
			if a, b := off.Result.TotalNs, on.Result.TotalNs; a != b {
				t.Errorf("TotalNs %d vs %d", a, b)
			}
			sameRecords(t, sortedRecords(onSrv.Records()), sortedRecords(offSrv.Records()))
			if a, b := offSrv.Progress().Bytes, onSrv.Progress().Bytes; a != b {
				t.Errorf("DataVolume %d vs %d", a, b)
			}
			if a, b := offSrv.Coverage(), onSrv.Coverage(); a != b || a.ChecksumErrors == 0 {
				t.Errorf("coverage (want equal, with checksum rejects):\n off: %+v\n  on: %+v", a, b)
			}
			if a, b := offSrv.DurabilityStats().WALBytes, onSrv.DurabilityStats().WALBytes; a != b {
				t.Errorf("WAL bytes %d vs %d", a, b)
			}
			// Per-rank Conn stats sum into the link's counters.
			for _, name := range []string{
				"transport_frames_total", "transport_acked_total", "transport_retries_total",
				"transport_parked_total", "transport_records_lost_total",
			} {
				if a, b := offObs.Counter(name).Value(), onObs.Counter(name).Value(); a != b {
					t.Errorf("%s %d vs %d", name, a, b)
				}
			}
			stages := map[uint64]map[obs.Stage]bool{}
			spans, _ := on.Lineage().Snapshot(nil, 0)
			for _, sp := range spans {
				if stages[sp.Trace] == nil {
					stages[sp.Trace] = map[obs.Stage]bool{}
				}
				stages[sp.Trace][sp.Stage] = true
			}
			ingested := 0
			for tr, m := range stages {
				if m[obs.StageIngest] {
					ingested++
					if !m[obs.StageEnqueue] {
						t.Fatalf("trace %#x has a server_ingest span but no enqueue span", tr)
					}
				}
			}
			if ingested == 0 {
				t.Fatal("no server_ingest span at SampleEvery=1")
			}
		})
	}
}
