// Package detect implements vSensor's on-line runtime analysis (paper §5):
// time-slice data smoothing, performance normalization against the fastest
// record, history comparison with O(1) state per sensor, dynamic-rule
// grouping (e.g. cache-miss-rate buckets), runtime disabling of too-short
// sensors, and per-process variance detection.
package detect

import (
	"sort"
	"strconv"
	"time"

	"vsensor/internal/ir"
	"vsensor/internal/obs"
	"vsensor/internal/vm"
)

// nowUnixNs is the wall-clock source for lineage spans; only called when a
// record is about to leave in a sampled frame, so the common path never
// reads the clock.
func nowUnixNs() int64 { return time.Now().UnixNano() }

// Sensor is the static metadata the detector needs per instrumented sensor.
type Sensor struct {
	ID           int
	Type         ir.SnippetType
	ProcessFixed bool
	Name         string
}

// Config controls the on-line analysis.
type Config struct {
	// SliceNs is the smoothing time slice (paper §5.1; default 1000µs).
	// Records are aggregated and averaged per slice, filtering the
	// high-frequency OS background noise.
	SliceNs int64

	// VarianceThreshold flags a slice as variance when its normalized
	// performance drops below this (default 0.8).
	VarianceThreshold float64

	// MissRateBuckets enables the dynamic-rule grouping of §5.3/Fig. 13:
	// records are clustered by cache-miss-rate range before comparison.
	// Each value is an upper bound; e.g. {0.1, 0.2, 1.01} buckets records
	// into [0,0.1), [0.1,0.2), [0.2,1.01). Nil disables grouping.
	MissRateBuckets []float64

	// DisableShortNs turns off analysis for sensors whose observed mean
	// duration is below this after a warm-up (paper §5.3: "vSensor will
	// turn off the analysis for v-sensors that are too short at runtime").
	// Zero disables the rule.
	//vs:option a §5.3 detection rule only tests enable; whether it is on by default is a detection-quality question (ROADMAP item 4)
	DisableShortNs int64

	// WarmupRecords is the number of records used to estimate a sensor's
	// duration before the short-sensor rule fires (default 32).
	//vs:option the warm-up of the §5.3 short-sensor rule, which only tests enable (ROADMAP item 4)
	WarmupRecords int

	// Obs attaches detector metrics (detect_records_total,
	// detect_slices_total{rank=...}, detect_variance_events_total,
	// detect_dropped_total). Nil disables them.
	Obs *obs.Obs
}

// Defaults.
const (
	DefaultSliceNs           = 1_000_000 // 1000 µs
	DefaultVarianceThreshold = 0.8
	DefaultWarmup            = 32
)

func (c Config) withDefaults() Config {
	if c.SliceNs <= 0 {
		c.SliceNs = DefaultSliceNs
	}
	if c.VarianceThreshold == 0 {
		c.VarianceThreshold = DefaultVarianceThreshold
	}
	if c.WarmupRecords == 0 {
		c.WarmupRecords = DefaultWarmup
	}
	return c
}

// SliceRecord is one smoothed data point: the average execution time of one
// sensor (within one dynamic-rule group) during one time slice on one rank.
// This is the unit shipped to the analysis server.
type SliceRecord struct {
	Sensor   int
	Group    int
	Rank     int
	SliceNs  int64 // slice start, virtual ns
	Count    int32
	AvgNs    float64
	AvgInstr float64
}

// Emitter consumes completed slice records (e.g. the analysis-server
// client). Calls arrive on the rank's own goroutine. A non-nil error means
// the record could not be delivered; the detector counts it
// (detect_emit_errors_total) and keeps analyzing — delivery failures must
// degrade coverage, not crash the rank.
type Emitter interface {
	OnSlice(SliceRecord) error
}

// TraceSource is implemented by emitters that participate in record-lineage
// tracing (e.g. transport.Conn, server.Client): NextTrace reports the
// lineage trace ID of the frame the next emitted record will travel in,
// or 0 when that frame is unsampled or lineage is off. The detector uses it
// to stamp an "emit" span at the moment a smoothed record leaves the rank.
type TraceSource interface {
	NextTrace() uint64
}

// VarianceEvent is a locally detected performance variance: a slice whose
// normalized performance fell below the threshold.
type VarianceEvent struct {
	Sensor  int
	Group   int
	Type    ir.SnippetType
	SliceNs int64
	Perf    float64 // normalized performance (1.0 = best observed)
}

// Detector is the per-rank on-line analyzer. It implements vm.Sink.
// Not safe for concurrent use: each rank owns one Detector.
type Detector struct {
	rank    int
	cfg     Config
	sensors map[int]*Sensor

	state map[groupKey]*groupState

	// short-sensor bookkeeping
	obs      map[int]*shortObs
	disabled map[int]bool

	emitter  Emitter
	traceSrc TraceSource  // emitter's lineage view, nil when not participating
	lin      *obs.Lineage // record-lineage tracer (nil = lineage off)
	events   []VarianceEvent

	analyses int64 // number of slice analyses triggered (overhead metric)
	dropped  int64 // records skipped due to disabled sensors

	emitErrs    int64 // slice records the emitter failed to deliver
	lastEmitErr error

	// Per-rank counter handles (nil-safe no-ops when Config.Obs is nil).
	// The slices/records counters carry a rank label so concurrent ranks
	// increment distinct atomics instead of contending on one cache line.
	obsRecords  *obs.Counter
	obsSlices   *obs.Counter
	obsEvents   *obs.Counter
	obsDropped  *obs.Counter
	obsEmitErrs *obs.Counter
}

type groupKey struct {
	sensor int
	group  int
}

type groupState struct {
	sliceStart int64
	count      int32
	sumNs      float64
	sumInstr   float64

	// bestAvg is the fastest slice average seen so far: the "standard
	// time" scalar of §5.3 — the only history kept per sensor/group.
	bestAvg float64
	started bool
}

type shortObs struct {
	n     int
	sumNs int64
}

// New builds a per-rank detector over the given sensors.
func New(rank int, sensors []Sensor, cfg Config, emitter Emitter) *Detector {
	d := &Detector{
		rank:     rank,
		cfg:      cfg.withDefaults(),
		sensors:  make(map[int]*Sensor, len(sensors)),
		state:    make(map[groupKey]*groupState),
		obs:      make(map[int]*shortObs),
		disabled: make(map[int]bool),
		emitter:  emitter,
	}
	for i := range sensors {
		s := sensors[i]
		d.sensors[s.ID] = &s
	}
	if o := d.cfg.Obs; o != nil {
		rankLabel := strconv.Itoa(rank)
		d.obsRecords = o.Counter("detect_records_total", "rank", rankLabel)
		d.obsSlices = o.Counter("detect_slices_total", "rank", rankLabel)
		d.obsEvents = o.Counter("detect_variance_events_total")
		d.obsDropped = o.Counter("detect_dropped_total")
		d.obsEmitErrs = o.Counter("detect_emit_errors_total")
		if d.lin = o.Lineage(); d.lin != nil {
			if ts, ok := emitter.(TraceSource); ok {
				d.traceSrc = ts
			}
		}
	}
	return d
}

// BindClock forwards the rank's virtual clock down the emitter chain (the
// VM calls this once per rank before execution), so an emitter that models
// a real link — internal/transport — can charge retry and backoff delays
// to the rank it serves. Emitters that don't need a clock are unaffected.
func (d *Detector) BindClock(c vm.Clock) {
	if b, ok := d.emitter.(vm.ClockBinder); ok {
		b.BindClock(c)
	}
}

// OnRecord consumes one raw sensor measurement (vm.Sink).
func (d *Detector) OnRecord(r vm.Record) {
	if d.disabled[r.Sensor] {
		d.dropped++
		d.obsDropped.Inc()
		return
	}
	d.obsRecords.Inc()
	dur := r.End - r.Start

	// Short-sensor rule: estimate duration during warm-up, then disable.
	if d.cfg.DisableShortNs > 0 {
		o := d.obs[r.Sensor]
		if o == nil {
			o = &shortObs{}
			d.obs[r.Sensor] = o
		}
		if o.n < d.cfg.WarmupRecords {
			o.n++
			o.sumNs += dur
			if o.n == d.cfg.WarmupRecords && o.sumNs/int64(o.n) < d.cfg.DisableShortNs {
				d.disabled[r.Sensor] = true
				d.closeGroupsOf(r.Sensor)
				return
			}
		}
	}

	key := groupKey{sensor: r.Sensor, group: d.groupOf(r.MissRate)}
	st := d.state[key]
	if st == nil {
		st = &groupState{}
		d.state[key] = st
	}
	sliceStart := r.Start - r.Start%d.cfg.SliceNs
	if st.started && sliceStart != st.sliceStart {
		d.closeSlice(key, st)
	}
	if !st.started || st.count == 0 {
		st.sliceStart = sliceStart
		st.started = true
	}
	st.count++
	st.sumNs += float64(dur)
	st.sumInstr += float64(r.Instr)
}

// groupOf buckets a miss rate per the dynamic rules.
func (d *Detector) groupOf(miss float64) int {
	if len(d.cfg.MissRateBuckets) == 0 {
		return 0
	}
	for i, hi := range d.cfg.MissRateBuckets {
		if miss < hi {
			return i
		}
	}
	return len(d.cfg.MissRateBuckets)
}

// closeSlice finalizes the open slice for a group: emits the smoothed
// record, updates the standard time, and triggers the variance check —
// the analysis runs once per slice, not per record (paper §5.1).
func (d *Detector) closeSlice(key groupKey, st *groupState) {
	if st.count == 0 {
		return
	}
	avg := st.sumNs / float64(st.count)
	rec := SliceRecord{
		Sensor:   key.sensor,
		Group:    key.group,
		Rank:     d.rank,
		SliceNs:  st.sliceStart,
		Count:    st.count,
		AvgNs:    avg,
		AvgInstr: st.sumInstr / float64(st.count),
	}
	d.analyses++
	d.obsSlices.Inc()

	if st.bestAvg == 0 || avg < st.bestAvg {
		st.bestAvg = avg
	}
	perf := st.bestAvg / avg // 1.0 = as fast as the best observed
	if perf < d.cfg.VarianceThreshold {
		typ := ir.Computation
		if s := d.sensors[key.sensor]; s != nil {
			typ = s.Type
		}
		d.events = append(d.events, VarianceEvent{
			Sensor:  key.sensor,
			Group:   key.group,
			Type:    typ,
			SliceNs: st.sliceStart,
			Perf:    perf,
		})
		d.obsEvents.Inc()
	}
	if d.emitter != nil {
		if d.traceSrc != nil {
			// Stamp the emit hop with the trace of the frame this record
			// will leave in — the first span of a sampled record's journey.
			if trace := d.traceSrc.NextTrace(); trace != 0 {
				d.lin.Record(trace, obs.StageEmit, d.rank, 0, nowUnixNs(), 0, int64(rec.Count))
			}
		}
		if err := d.emitter.OnSlice(rec); err != nil {
			d.emitErrs++
			d.lastEmitErr = err
			d.obsEmitErrs.Inc()
		}
	}
	st.count = 0
	st.sumNs = 0
	st.sumInstr = 0
}

// closeGroupsOf flushes and forgets every group of a sensor the
// short-sensor rule just disabled.
func (d *Detector) closeGroupsOf(sensor int) {
	for _, k := range d.openGroups() {
		if k.sensor == sensor {
			d.closeSlice(k, d.state[k])
			delete(d.state, k)
		}
	}
}

// Finish flushes every open slice; call once after the run completes.
func (d *Detector) Finish() {
	for _, k := range d.openGroups() {
		d.closeSlice(k, d.state[k])
	}
}

// openGroups returns the keys of every open group in (sensor, group) order,
// so flushed slices leave in the same order on every run.
func (d *Detector) openGroups() []groupKey {
	keys := make([]groupKey, 0, len(d.state))
	for k := range d.state {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sensor != keys[j].sensor {
			return keys[i].sensor < keys[j].sensor
		}
		return keys[i].group < keys[j].group
	})
	return keys
}

// Events returns the locally detected variance events.
func (d *Detector) Events() []VarianceEvent { return d.events }

// Analyses returns how many slice analyses ran (the per-slice trigger that
// bounds on-line overhead).
func (d *Detector) Analyses() int64 { return d.analyses }

// Dropped returns how many records were skipped for disabled sensors.
func (d *Detector) Dropped() int64 { return d.dropped }

// EmitErrors returns how many slice records the emitter failed to deliver.
func (d *Detector) EmitErrors() int64 { return d.emitErrs }

// LastEmitError returns the most recent emitter delivery error, nil if none.
func (d *Detector) LastEmitError() error { return d.lastEmitErr }

// Disabled reports whether the short-sensor rule turned a sensor off.
func (d *Detector) Disabled(sensor int) bool { return d.disabled[sensor] }
