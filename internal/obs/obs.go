package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Obs bundles a metrics registry and a span tracer, plus the mutable status
// and record providers that the facade wires in when a run starts. A nil
// *Obs is a valid "observability off" value: every accessor returns a
// nil handle whose methods are no-ops, so instrumentation sites never need
// to branch on configuration.
type Obs struct {
	reg    *Registry
	tracer *Tracer
	start  time.Time
	lin    atomic.Pointer[Lineage] // nil until EnableLineage

	mu       sync.Mutex
	statusFn func() any

	// Versioned-snapshot providers (report.go); when reportFn is set it
	// takes precedence over statusFn and enables ETag/304 and long-poll
	// semantics on the HTTP surface.
	reportFn     func() *ReportSnapshot
	reportWaitFn func(afterGen uint64, timeout time.Duration) *ReportSnapshot
}

// New creates an observability bundle with the standard family descriptions
// pre-registered.
func New() *Obs {
	o := &Obs{reg: NewRegistry(), tracer: NewTracer(), start: time.Now()}
	describeStandard(o.reg)
	return o
}

// Registry returns the underlying metrics registry (nil when o is nil).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the underlying span tracer (nil when o is nil).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Counter resolves a counter handle; nil-safe.
func (o *Obs) Counter(name string, labels ...string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name, labels...)
}

// Gauge resolves a gauge handle; nil-safe.
func (o *Obs) Gauge(name string, labels ...string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name, labels...)
}

// CounterFunc registers a function-backed counter, read at scrape time;
// nil-safe.
func (o *Obs) CounterFunc(name string, fn func() int64, labels ...string) {
	o.Registry().CounterFunc(name, fn, labels...)
}

// GaugeFunc registers a function-backed gauge, read at scrape time; nil-safe.
func (o *Obs) GaugeFunc(name string, fn func() int64, labels ...string) {
	o.Registry().GaugeFunc(name, fn, labels...)
}

// Histogram resolves a histogram handle with default buckets; nil-safe.
func (o *Obs) Histogram(name string, labels ...string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name, labels...)
}

// HistogramWith resolves a histogram handle with explicit bounds; nil-safe.
func (o *Obs) HistogramWith(name string, bounds []float64, labels ...string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.HistogramWith(name, bounds, labels...)
}

// Span opens a span on tid; nil-safe (returns a nil *Span whose End is a
// no-op).
func (o *Obs) Span(tid int, name string) *Span {
	if o == nil {
		return nil
	}
	return o.tracer.Start(tid, name)
}

// NameThread names a trace tid; nil-safe.
func (o *Obs) NameThread(tid int, name string) {
	if o == nil {
		return
	}
	o.tracer.NameThread(tid, name)
}

// EnableLineage turns on record-lineage tracing: it builds the sampler,
// flight-recorder ring, and per-stage exemplar histograms, and makes them
// visible to /debug/flight and the Chrome exporter. Idempotent in spirit —
// calling it again replaces the tracer (fresh ring, same registry families).
func (o *Obs) EnableLineage(cfg LineageConfig) *Lineage {
	if o == nil {
		return nil
	}
	l := newLineage(cfg, o.reg)
	o.lin.Store(l)
	return l
}

// Lineage returns the record-lineage tracer, or nil when lineage is off —
// and a nil *Lineage is itself a valid no-op handle.
func (o *Obs) Lineage() *Lineage {
	if o == nil {
		return nil
	}
	return o.lin.Load()
}

// SetStatus installs the function backing the /status endpoint. The facade
// calls this when a run starts so live polls see the current job.
func (o *Obs) SetStatus(fn func() any) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.statusFn = fn
	o.mu.Unlock()
}

func (o *Obs) statusSnapshot() (any, bool) {
	o.mu.Lock()
	fn := o.statusFn
	o.mu.Unlock()
	if fn == nil {
		return nil, false
	}
	return fn(), true
}

// UptimeSeconds returns seconds since New.
func (o *Obs) UptimeSeconds() float64 {
	if o == nil {
		return 0
	}
	return time.Since(o.start).Seconds()
}

// describeStandard registers HELP text for the metric families the pipeline
// exports, so /metrics is self-documenting.
func describeStandard(r *Registry) {
	// Families read from the server's ingest state at scrape time say so in
	// their HELP: Crash wipes that state and Recover rebuilds it, so they do
	// not count live history.
	const state = " Read from the server's state at scrape time: after a crash it follows the recovered state."
	r.Describe("vm_records_total", "Raw sensor records emitted by Tick/Tock probes across ranks.")
	r.Describe("vm_steps_total", "Interpreted mini-C statements executed across ranks.")
	r.Describe("vm_probe_ns_total", "Virtual nanoseconds charged for Tick/Tock probe overhead (the paper's <4% budget).")
	r.Describe("vm_events_total", "Runtime events seen by baseline sinks, by kind (comp/net/io).")
	r.Describe("vm_time_ns_total", "Virtual nanoseconds per category (comp/net/io) summed across ranks.")
	r.Describe("vm_active_ranks", "Rank goroutines currently executing.")
	r.Describe("detect_records_total", "Raw records consumed by per-rank detectors.")
	r.Describe("detect_slices_total", "Smoothed time-slice analyses completed (one per closed slice).")
	r.Describe("detect_variance_events_total", "Per-process variance events flagged below the threshold.")
	r.Describe("detect_dropped_total", "Records skipped because the short-sensor rule disabled their sensor.")
	r.Describe("detect_emit_errors_total", "Slice records the emitter failed to deliver (transport backpressure loss or decode rejects).")
	r.Describe("server_messages_total", "Batch frames ingested by the analysis server (duplicates excluded)."+state)
	r.Describe("server_bytes_total", "Encoded bytes ingested by the analysis server."+state)
	r.Describe("server_records_total", "Slice records ingested by the analysis server."+state)
	r.Describe("server_batch_bytes", "Size distribution of ingested batch frames.")
	r.Describe("server_dup_frames_total", "Retransmitted frames absorbed by per-rank sequence dedup."+state)
	r.Describe("server_checksum_errors_total", "Frames rejected because their CRC did not match (bit corruption)."+state)
	r.Describe("server_rejected_frames_total", "Frames rejected for framing/header errors (not checksum)."+state)
	r.Describe("server_records_expected", "Records the ranks claim to have sent (from frame headers), summed over ranks."+state)
	r.Describe("server_records_ingested", "Records actually decoded into the server log; expected-ingested is the coverage gap."+state)
	r.Describe("server_wal_entries_total", "Entries appended to the analysis server's write-ahead log.")
	r.Describe("server_wal_bytes_total", "Bytes appended to the write-ahead log (framing included).")
	r.Describe("server_wal_syncs_total", "WAL fsyncs issued, one per commit group.")
	r.Describe("wal_group_commits_total", "WAL commit groups flushed: one device write plus one sync each.")
	r.Describe("wal_coalesced_entries_total", "Delivery outcomes absorbed into an open coalesced run instead of journaling their own entry.")
	r.Describe("wal_flush_bytes", "Size distribution of flushed commit groups.")
	r.Describe("wal_sync_wait_ns", "Time each commit group's fsync stalled ingest; outlier buckets carry exemplar trace IDs.")
	r.Describe("server_snapshots_total", "Checkpoints taken: snapshot section appended, WAL segment rotated.")
	r.Describe("server_snapshot_bytes", "Size of the most recent snapshot section: what one checkpoint appended to each slot, not the slot's size.")
	r.Describe("server_checkpoint_bytes_total", "Snapshot-section bytes written by checkpoints, both mirrored slots counted; divided by server_wal_bytes_total it is the write amplification.")
	r.Describe("server_checkpoint_ns", "Time each checkpoint held ingest: WAL group flush, section encode, two slot writes, segment rotation.")
	r.Describe("server_recoveries_total", "Crash recoveries completed (snapshot load + WAL replay).")
	r.Describe("server_wal_truncated_bytes_total", "WAL bytes discarded at recovery as torn or corrupt tails.")
	r.Describe("server_replayed_frames_total", "Frames re-ingested from the WAL during crash recovery.")
	r.Describe("server_heartbeats_total", "Liveness heartbeats ingested from rank connections."+state)
	r.Describe("server_ranks_alive", "Ranks whose liveness lease is current (or who hold no lease)."+state)
	r.Describe("server_ranks_suspect", "Ranks silent past one lease but not yet declared dead."+state)
	r.Describe("server_ranks_dead", "Ranks silent past the dead threshold, excluded from the watermark."+state)
	r.Describe("server_shards", "Ingest shards of the analysis server.")
	r.Describe("server_shard_records", "Records in each ingest shard's sub-log."+state)
	r.Describe("server_shard_frames", "Frames in each ingest shard's sub-log."+state)
	r.Describe("server_epochs_open", "Inter-process epochs still open: not yet sealed behind the cross-rank watermark."+state)
	r.Describe("server_epochs_closed_total", "Epochs sealed behind the cross-rank watermark with their outlier set cached.")
	r.Describe("server_epoch_reopens_total", "Sealed epochs reopened by a late record.")
	r.Describe("server_epoch_lag_ns", "How far the watermark had passed an epoch's slice when the epoch was sealed.")
	r.Describe("server_report_gen", "Current generation of the versioned report snapshot (the /status ETag).")
	r.Describe("server_report_builds_total", "Report snapshot rebuilds (cache misses after a state change).")
	r.Describe("server_report_hits_total", "Report snapshot reads served from the cached render.")
	r.Describe("transport_frames_total", "Fresh frames handed to the lossy link by rank conns.")
	r.Describe("transport_acked_total", "Frame deliveries acknowledged by the link (incl. parked retries).")
	r.Describe("transport_retries_total", "Failed delivery attempts that were retried with backoff.")
	r.Describe("transport_dropped_total", "Delivery attempts lost to the fault plan's drop rate.")
	r.Describe("transport_corrupted_total", "Delivery attempts that arrived bit-corrupted and were rejected by CRC.")
	r.Describe("transport_duplicated_total", "Deliveries duplicated by the fault plan (ack-loss model).")
	r.Describe("transport_reordered_total", "Frames held in flight and delivered after a newer frame.")
	r.Describe("transport_server_down_rejects_total", "Delivery attempts rejected while the server was crashed/stalled.")
	r.Describe("transport_parked_total", "Frames parked in a retransmit buffer after exhausting retries.")
	r.Describe("transport_packed_flushes_total", "Flushes deferred by backpressure packing: earlier frames were still parked, so the records stayed buffered for one later frame.")
	r.Describe("transport_records_lost_total", "Records lost to drop-oldest backpressure or abandoned at close.")
	r.Describe("transport_heartbeats_total", "Liveness heartbeats delivered to the server by rank conns.")
	r.Describe("transport_window_stalls_total", "Sends over a windowed medium that had to wait for the oldest ack: the window was full, or reopening after a redial.")
	r.Describe("transport_returned_frames_total", "Frames a windowed medium accepted and then failed (rejected, tenant down, or unanswered when it gave up), handed back to their rank's retransmit buffer.")
	r.Describe("net_accepted_total", "Connections the service's listener accepted.")
	r.Describe("net_shed_total", "Connections refused with vSE1 busy: MaxWorkers connections were already being served.")
	r.Describe("net_refused_total", "Connections refused for a run or session cap, a bad hello, or shutdown.")
	r.Describe("net_frames_total", "Data envelopes the service delivered to its tenant servers.")
	r.Describe("net_sessions_reaped_total", "Sessions closed by the dead-peer defense: the idle reaper or an ack-write timeout.")
	r.Describe("net_sessions_open", "Sessions currently streaming to the service.")
	r.Describe("net_runs", "Runs (tenants) the service hosts.")
	r.Describe("net_workers", "Connections the service is serving now, one goroutine each.")
	r.Describe("net_reconnects_total", "Connections the resilient session re-established after losing one.")
	r.Describe("net_dial_attempts_total", "Dials the resilient session made, failed backoff probes included.")
	r.Describe("net_dial_backoff_ns", "Time each redial spent in backoff sleeps before it connected.")
	r.Describe("net_inflight_frames", "Envelopes the resilient session has accepted and not yet seen answered; at most the dial window.")
	r.Describe("mpi_collectives_total", "Collective operations completed, by kind.")
	r.Describe("mpi_p2p_messages_total", "Point-to-point messages sent.")
	r.Describe("mpi_p2p_bytes_total", "Point-to-point payload bytes sent.")
	r.Describe("cluster_cost_calls_total", "Cost-model evaluations, by kind (compute/p2p/collective/io).")
	r.Describe("run_ranks", "Rank count of the current (or last) pipeline run.")
	r.Describe("lineage_stage_ns", "Per-stage latency of sampled record lineages; outlier buckets carry exemplar trace IDs.")
	r.Describe("lineage_sampled_frames_total", "Sampled frames cut: frames whose (rank, seq) the lineage sampler picks (roughly 1/SampleEvery of all frames).")
}
