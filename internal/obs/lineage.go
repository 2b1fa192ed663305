package obs

import "fmt"

// Stage identifies one hop of a record's journey through the pipeline, from
// the detector's emit to the analyzer's final verdict.
//
// A StageAttempt's duration is what the sender waited for the attempt: the
// medium's round trip when delivery is synchronous, only the time to be
// accepted into the window (a stall for the oldest ack included) over a
// windowed medium. An accepted attempt that later comes back from the window
// shows as a StageRetry when its rank reclaims it.
type Stage uint8

const (
	StageEmit        Stage = iota // detector closed a slice and handed records to the sink
	StageEnqueue                  // conn buffered the records for the next frame
	StageAttempt                  // one delivery attempt on the lossy link
	StageRetry                    // a failed attempt was retried with backoff (arg = charged backoff ns)
	StageIngest                   // server accepted the frame into a shard (server_ingest)
	StageDedup                    // per-rank sequence dedup verdict (arg: 0 fresh, 1 duplicate)
	StageWALAppend                // frame entry appended to the write-ahead log
	StageWALSync                  // group-commit fsync that persisted the frame
	StageSnapshot                 // checkpoint triggered while this frame was in flight
	StageEpochReopen              // a closed epoch was reopened by this late record
	StageEpochClose               // the record's epoch passed the watermark and closed
	StageVerdict                  // final per-epoch verdict (arg = outlier count)
	numStages
)

var stageNames = [numStages]string{
	"emit", "enqueue", "attempt", "retry", "server_ingest", "dedup",
	"wal_append", "wal_sync", "snapshot", "epoch_reopen", "epoch_close",
	"verdict",
}

// String returns the stage's wire/metric label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// MarshalJSON renders the stage as its label so /debug/flight dumps read
// without a decoder ring.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the label form back, so /debug/flight payloads
// round-trip through the same types that produced them.
func (s *Stage) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("obs: stage must be a JSON string, got %s", data)
	}
	name := string(data[1 : len(data)-1])
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown stage %q", name)
}

// LineageConfig configures the record-lineage tracing layer.
type LineageConfig struct {
	// SampleEvery samples roughly 1/N of frames by a seeded hash of
	// (rank, seq). 0 selects the default of 256; 1 traces every frame.
	SampleEvery uint64
	// Seed perturbs the sampling hash so repeated runs can select different
	// record populations while staying individually deterministic.
	Seed uint64
}

// DefaultSampleEvery is the sampling period used when LineageConfig leaves
// SampleEvery zero: one traced frame per 256.
const DefaultSampleEvery = 256

// Lineage is the record-lineage tracer: a deterministic frame sampler, the
// flight-recorder ring the sampled spans land in, and per-stage latency
// histograms whose outlier buckets carry exemplar trace IDs. A nil *Lineage
// is the "lineage off" value — every method is a nil-receiver no-op, so
// instrumentation sites pay one predicted branch when tracing is disabled.
type Lineage struct {
	every  uint64
	seed   uint64
	ring   *FlightRecorder
	stage  [numStages]*Histogram
	frames *Counter // sampled frames cut
}

// newLineage builds the tracer and registers its metric families on reg
// (which may be nil for a registry-less tracer, e.g. in tests).
func newLineage(cfg LineageConfig, reg *Registry) *Lineage {
	every := cfg.SampleEvery
	if every == 0 {
		every = DefaultSampleEvery
	}
	l := &Lineage{every: every, seed: cfg.Seed, ring: NewFlightRecorder(flightCap)}
	for s := Stage(0); s < numStages; s++ {
		l.stage[s] = reg.Histogram("lineage_stage_ns", "stage", s.String())
	}
	l.frames = reg.Counter("lineage_sampled_frames_total")
	return l
}

// NewLineage builds a standalone tracer with no metrics registry attached
// (histograms still work; they are just not exported). Prefer
// Obs.EnableLineage in real wiring.
func NewLineage(cfg LineageConfig) *Lineage {
	return newLineage(cfg, NewRegistry())
}

// SampleEvery returns the sampling period (0 when lineage is off).
func (l *Lineage) SampleEvery() uint64 {
	if l == nil {
		return 0
	}
	return l.every
}

// mix64 is the SplitMix64 finalizer — a cheap, statistically strong 64-bit
// mixer, so sampling is unbiased in rank and seq.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TraceID decides whether the frame (rank, seq) is sampled. It returns 0
// (the unsampled sentinel) for 1-1/SampleEvery of frames and a nonzero
// deterministic trace ID otherwise. The decision depends only on the seed,
// rank, and sequence number — never on shard count, timing, or goroutine
// interleaving — so the same workload samples the same frames every run.
func (l *Lineage) TraceID(rank int, seq uint64) uint64 {
	if l == nil {
		return 0
	}
	h := mix64(l.seed ^ mix64(uint64(rank)*0x9e3779b97f4a7c15+seq))
	if h%l.every != 0 {
		return 0
	}
	id := mix64(h ^ 0x2545f4914f6cdd1d)
	if id == 0 {
		id = 1
	}
	return id
}

// FrameSampled notes that a sampled frame was cut (the counter behind
// lineage_sampled_frames_total).
func (l *Lineage) FrameSampled() {
	if l == nil {
		return
	}
	l.frames.Inc()
}

// SampledFrames returns the number of sampled frames cut.
func (l *Lineage) SampledFrames() int64 {
	if l == nil {
		return 0
	}
	return l.frames.Value()
}

// Record publishes one stage span for a sampled record: it lands in the
// flight-recorder ring and feeds the stage's latency histogram with the
// trace ID as the exemplar. trace 0 (unsampled) is a no-op, so call sites
// can record unconditionally after the nil check.
func (l *Lineage) Record(trace uint64, stage Stage, rank int, try int, startNs, durNs, arg int64) {
	if l == nil || trace == 0 {
		return
	}
	l.ring.Record(FlightSpan{
		Trace:   trace,
		Rank:    int32(rank),
		Stage:   stage,
		Try:     uint16(try),
		StartNs: startNs,
		DurNs:   durNs,
		Arg:     arg,
	})
	l.stage[stage].ObserveExemplar(float64(durNs), trace)
}

// Ring returns the flight recorder (nil when lineage is off).
func (l *Lineage) Ring() *FlightRecorder {
	if l == nil {
		return nil
	}
	return l.ring
}

// Snapshot copies the stable flight spans after cursor; see
// FlightRecorder.Snapshot.
func (l *Lineage) Snapshot(dst []FlightSpan, cursor uint64) ([]FlightSpan, uint64) {
	if l == nil {
		return dst[:0], cursor
	}
	return l.ring.Snapshot(dst, cursor)
}

// StageHistogram returns the latency histogram for one stage (nil-safe).
func (l *Lineage) StageHistogram(s Stage) *Histogram {
	if l == nil || s >= numStages {
		return nil
	}
	return l.stage[s]
}

// LineageStats is the /status summary of the tracing layer.
type LineageStats struct {
	SampleEvery   uint64 `json:"sample_every"`
	Seed          uint64 `json:"seed"`
	FlightCap     int    `json:"flight_cap"`
	Spans         uint64 `json:"spans"`
	SampledFrames int64  `json:"sampled_frames"`
}

// Stats snapshots the tracer's counters.
func (l *Lineage) Stats() LineageStats {
	if l == nil {
		return LineageStats{}
	}
	return LineageStats{
		SampleEvery:   l.every,
		Seed:          l.seed,
		FlightCap:     l.ring.Cap(),
		Spans:         l.ring.Head(),
		SampledFrames: l.SampledFrames(),
	}
}
