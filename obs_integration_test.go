package vsensor_test

// End-to-end tests of the self-observability layer: a real pipeline run
// with Options.Obs attached must populate the metric families, produce one
// span per pipeline stage and per rank, serve /metrics//status//records
// over HTTP, and — crucially — leave the simulated virtual time untouched.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	vsensor "vsensor"
	"vsensor/internal/netsrv"
	"vsensor/internal/obs"
	"vsensor/internal/server"
	"vsensor/internal/transport"
)

const obsTestSrc = `
func main() {
    float acc = 0.0;
    for (int i = 0; i < 120; i++) {
        for (int k = 0; k < 16; k++) {
            flops(1500);
        }
        acc = mpi_allreduce(acc, 8);
        mpi_barrier();
    }
}`

func runWithObs(t *testing.T) (*vsensor.Report, *obs.Obs) {
	t.Helper()
	o := obs.New()
	rep, err := vsensor.Run(obsTestSrc, vsensor.Options{Ranks: 4, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return rep, o
}

func TestObsDoesNotPerturbVirtualTime(t *testing.T) {
	plain, err := vsensor.Run(obsTestSrc, vsensor.Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, o := runWithObs(t)
	if plain.Result.TotalNs != instrumented.Result.TotalNs {
		t.Errorf("obs changed virtual time: %d vs %d ns",
			plain.Result.TotalNs, instrumented.Result.TotalNs)
	}
	if o.Tracer().Len() == 0 {
		t.Error("no spans recorded")
	}
}

func TestObsMetricFamiliesPopulated(t *testing.T) {
	rep, o := runWithObs(t)
	var sb strings.Builder
	if err := o.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"vm_records_total",
		"vm_steps_total",
		"vm_probe_ns_total",
		"vm_time_ns_total{kind=\"comp\"}",
		"detect_records_total{rank=\"0\"}",
		"detect_slices_total{rank=\"0\"}",
		"server_batch_bytes_count",
		"mpi_collectives_total{kind=\"allreduce\"}",
		"mpi_collectives_total{kind=\"barrier\"}",
		"cluster_cost_calls_total{kind=\"compute\"}",
		"run_ranks 4",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("metrics missing %q", fam)
		}
	}
	// Cross-check counters against the report's own accounting.
	var totalRecords int
	for _, rs := range rep.Result.Ranks {
		totalRecords += rs.Records
	}
	if got := o.Registry().Counter("vm_records_total").Value(); got != int64(totalRecords) {
		t.Errorf("vm_records_total = %d, want %d", got, totalRecords)
	}
}

// scrape serves /metrics from o and returns every sample's value keyed by
// its name and labels as rendered (`server_shard_records{shard="0"}`), and
// every family's TYPE.
func scrape(t *testing.T, o *obs.Obs) (samples map[string]float64, types map[string]string) {
	t.Helper()
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics -> %d", rec.Code)
	}
	samples, types = map[string]float64{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			types[f[2]] = f[3]
		case len(f) == 2 && f[0] != "#":
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("unparseable sample %q", line)
			}
			samples[f[0]] = v
		}
	}
	return samples, types
}

// checkSamples fails for every name in want whose scraped sample is missing
// or differs.
func checkSamples(t *testing.T, samples map[string]float64, want map[string]int64) {
	t.Helper()
	for name, w := range want {
		if got, ok := samples[name]; !ok || got != float64(w) {
			t.Errorf("/metrics %s = %v (present %v), accessor says %d", name, got, ok, w)
		}
	}
}

// TestMetricsReadOwnersStats: every /metrics family whose number the server
// or the service already keeps is read from the accessor /status reads, at
// scrape time. Scraped straight after a leased run connected to a durable
// tenant, with the run, the service and the tenant on one Obs, each equals
// its accessor — server_ranks_alive included, though nothing has run a
// liveness query yet. The family set and TYPEs are pinned too, for that run
// and for a bare netsrv service.
func TestMetricsReadOwnersStats(t *testing.T) {
	o := obs.New()
	srv := server.NewSharded(0)
	srv.AttachDurability(server.DurabilityConfig{})
	svc := serveTenant(t, srv, o)
	if _, err := vsensor.Run(obsTestSrc, vsensor.Options{
		Ranks: 4, Transport: &transport.Config{LeaseNs: 50_000},
		Connect: svc.Addr().String(), Obs: o,
	}); err != nil {
		t.Fatal(err)
	}
	// The service notices the run's hang-up asynchronously; Close waits for
	// every handler, so its numbers hold still.
	svc.Close()
	samples, types := scrape(t, o) // before anything queries the server

	if !reflect.DeepEqual(types, durableTenantFamilies) {
		t.Errorf("/metrics families = %v\nwant %v", types, durableTenantFamilies)
	}
	prog, cov, live, snap := srv.Progress(), srv.Coverage(), srv.LivenessSummary(), srv.SnapshotStats()
	dur, net := srv.DurabilityStats(), svc.Stats()
	if live.Alive != 4 || dur.Syncs == 0 || net.Accepted == 0 {
		t.Fatalf("run left nothing to compare: liveness %+v, syncs %d, accepted %d", live, dur.Syncs, net.Accepted)
	}
	want := map[string]int64{
		"server_messages_total":         prog.Messages,
		"server_bytes_total":            prog.Bytes,
		"server_records_total":          cov.IngestedRecords,
		"server_dup_frames_total":       cov.DupFrames,
		"server_checksum_errors_total":  cov.ChecksumErrors,
		"server_rejected_frames_total":  cov.RejectedFrames,
		"server_records_expected":       cov.ExpectedRecords,
		"server_records_ingested":       cov.IngestedRecords,
		"server_heartbeats_total":       srv.Heartbeats(),
		"server_ranks_alive":            int64(live.Alive),
		"server_ranks_suspect":          int64(live.Suspect),
		"server_ranks_dead":             int64(live.Dead),
		"server_report_gen":             int64(snap.Gen),
		"server_report_builds_total":    snap.Builds,
		"server_report_hits_total":      snap.Hits,
		"server_shards":                 int64(srv.Shards()),
		"server_epochs_open":            srv.EpochStats().Open,
		"server_wal_entries_total":      dur.WALEntries,
		"server_wal_bytes_total":        dur.WALBytes,
		"server_wal_syncs_total":        dur.Syncs,
		"wal_group_commits_total":       dur.GroupCommits,
		"wal_coalesced_entries_total":   dur.CoalescedEntries,
		"server_snapshots_total":        dur.Snapshots,
		"server_checkpoint_bytes_total": dur.CheckpointBytes,
		"server_recoveries_total":       dur.Recoveries,
	}
	for _, sc := range srv.PerShardCoverage() {
		want[fmt.Sprintf("server_shard_records{shard=%q}", strconv.Itoa(sc.Shard))] = sc.Records
		want[fmt.Sprintf("server_shard_frames{shard=%q}", strconv.Itoa(sc.Shard))] = sc.Frames
	}
	for name, v := range netSamples(net) {
		want[name] = v
	}
	checkSamples(t, samples, want)

	// Reads move the report cache: a build, then a hit.
	srv.Snapshot()
	srv.Snapshot()
	samples, _ = scrape(t, o)
	if snap = srv.SnapshotStats(); snap.Hits == 0 {
		t.Fatalf("two reads left no cache hit: %+v", snap)
	}
	checkSamples(t, samples, map[string]int64{
		"server_report_gen":          int64(snap.Gen),
		"server_report_builds_total": snap.Builds,
		"server_report_hits_total":   snap.Hits,
	})

	// A bare service exports the net families alone, read from its Stats.
	so := obs.New()
	svc, err := netsrv.Listen("127.0.0.1:0", netsrv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.SetObs(so)
	if _, err := vsensor.Run(obsTestSrc, vsensor.Options{Ranks: 4, Connect: svc.Addr().String(), RunID: "metrics"}); err != nil {
		t.Fatal(err)
	}
	// The run's client has hung up, but the service's handlers notice that
	// asynchronously; Close waits for every one, so the numbers hold still.
	svc.Close()
	samples, types = scrape(t, so)
	wantTypes := map[string]string{}
	for name := range netSamples(netsrv.Stats{}) {
		wantTypes[name] = durableTenantFamilies[name]
	}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Errorf("service /metrics families = %v\nwant %v", types, wantTypes)
	}
	if st := svc.Stats(); st.FramesIn == 0 {
		t.Errorf("service delivered no frames: %+v", st)
	} else {
		checkSamples(t, samples, netSamples(st))
	}
}

// netSamples is what /metrics must show for a service whose Stats are st.
func netSamples(st netsrv.Stats) map[string]int64 {
	return map[string]int64{
		"net_accepted_total":        st.Accepted,
		"net_shed_total":            st.Shed,
		"net_refused_total":         st.RefusedSessions + st.RefusedRuns + st.RefusedBadHello + st.RefusedShutdown,
		"net_frames_total":          st.FramesIn,
		"net_sessions_reaped_total": st.SessionsReaped,
		"net_sessions_open":         st.SessionsOpen,
		"net_runs":                  st.Runs,
		"net_workers":               st.Workers,
	}
}

// durableTenantFamilies is every family, with its TYPE, that
// TestMetricsReadOwnersStats's run exports: the same set as when the
// derived families were push handles.
var durableTenantFamilies = map[string]string{
	"cluster_cost_calls_total":            "counter",
	"detect_dropped_total":                "counter",
	"detect_emit_errors_total":            "counter",
	"detect_records_total":                "counter",
	"detect_slices_total":                 "counter",
	"detect_variance_events_total":        "counter",
	"mpi_collectives_total":               "counter",
	"mpi_p2p_bytes_total":                 "counter",
	"mpi_p2p_messages_total":              "counter",
	"net_accepted_total":                  "counter",
	"net_dial_attempts_total":             "counter",
	"net_dial_backoff_ns":                 "histogram",
	"net_frames_total":                    "counter",
	"net_inflight_frames":                 "gauge",
	"net_reconnects_total":                "counter",
	"net_refused_total":                   "counter",
	"net_runs":                            "gauge",
	"net_sessions_open":                   "gauge",
	"net_sessions_reaped_total":           "counter",
	"net_shed_total":                      "counter",
	"net_workers":                         "gauge",
	"run_ranks":                           "gauge",
	"server_batch_bytes":                  "histogram",
	"server_bytes_total":                  "counter",
	"server_checkpoint_bytes_total":       "counter",
	"server_checkpoint_ns":                "histogram",
	"server_checksum_errors_total":        "counter",
	"server_dup_frames_total":             "counter",
	"server_epoch_lag_ns":                 "histogram",
	"server_epoch_reopens_total":          "counter",
	"server_epochs_closed_total":          "counter",
	"server_epochs_open":                  "gauge",
	"server_heartbeats_total":             "counter",
	"server_messages_total":               "counter",
	"server_ranks_alive":                  "gauge",
	"server_ranks_dead":                   "gauge",
	"server_ranks_suspect":                "gauge",
	"server_records_expected":             "gauge",
	"server_records_ingested":             "gauge",
	"server_records_total":                "counter",
	"server_recoveries_total":             "counter",
	"server_rejected_frames_total":        "counter",
	"server_replayed_frames_total":        "counter",
	"server_report_builds_total":          "counter",
	"server_report_gen":                   "gauge",
	"server_report_hits_total":            "counter",
	"server_shard_frames":                 "gauge",
	"server_shard_records":                "gauge",
	"server_shards":                       "gauge",
	"server_snapshot_bytes":               "gauge",
	"server_snapshots_total":              "counter",
	"server_wal_bytes_total":              "counter",
	"server_wal_entries_total":            "counter",
	"server_wal_syncs_total":              "counter",
	"server_wal_truncated_bytes_total":    "counter",
	"transport_acked_total":               "counter",
	"transport_corrupted_total":           "counter",
	"transport_dropped_total":             "counter",
	"transport_duplicated_total":          "counter",
	"transport_frames_total":              "counter",
	"transport_heartbeats_total":          "counter",
	"transport_packed_flushes_total":      "counter",
	"transport_parked_total":              "counter",
	"transport_records_lost_total":        "counter",
	"transport_reordered_total":           "counter",
	"transport_retries_total":             "counter",
	"transport_returned_frames_total":     "counter",
	"transport_server_down_rejects_total": "counter",
	"transport_window_stalls_total":       "counter",
	"vm_active_ranks":                     "gauge",
	"vm_probe_ns_total":                   "counter",
	"vm_records_total":                    "counter",
	"vm_steps_total":                      "counter",
	"vm_time_ns_total":                    "counter",
	"wal_coalesced_entries_total":         "counter",
	"wal_flush_bytes":                     "histogram",
	"wal_group_commits_total":             "counter",
	"wal_sync_wait_ns":                    "histogram",
}

// Every metric family a durable group-commit run exports, and every family a
// run over a socket exports, must carry a HELP line on /metrics: an operator
// reading the scrape should not have to open the source to learn what
// wal_sync_wait_ns or net_shed_total measures.
func TestObsWALFamiliesHaveHelp(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opt    vsensor.Options
		listen bool // connect to a loopback service sharing the run's Obs
		want   []string
	}{
		{
			name: "durable",
			opt:  vsensor.Options{Ranks: 4, Durability: &server.DurabilityConfig{FlushEvery: 16}},
			want: []string{
				"server_wal_entries_total", "server_wal_bytes_total", "server_wal_syncs_total",
				"wal_group_commits_total", "wal_coalesced_entries_total", "wal_flush_bytes", "wal_sync_wait_ns",
				"server_checkpoint_bytes_total", "server_checkpoint_ns",
			},
		},
		{
			name:   "windowed",
			opt:    vsensor.Options{Ranks: 4},
			listen: true,
			want:   []string{"transport_window_stalls_total", "transport_returned_frames_total", "net_inflight_frames", "net_shed_total"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			tc.opt.Obs = o
			if tc.listen {
				tc.opt.Connect = serveTenant(t, server.NewSharded(0), o).Addr().String()
			}
			if _, err := vsensor.Run(obsTestSrc, tc.opt); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("/metrics -> %d", rec.Code)
			}
			helped, families := map[string]bool{}, map[string]bool{}
			for _, line := range strings.Split(rec.Body.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 3 || f[0] != "#" {
					continue
				}
				switch f[1] {
				case "HELP":
					helped[f[2]] = true
				case "TYPE":
					families[f[2]] = true
				}
			}
			for _, want := range tc.want {
				if !families[want] {
					t.Errorf("%s run exported no %s family: %v", tc.name, want, families)
				}
			}
			for fam := range families {
				if !helped[fam] {
					t.Errorf("/metrics family %s has no # HELP line", fam)
				}
			}
		})
	}
}

func TestObsPipelineSpans(t *testing.T) {
	_, o := runWithObs(t)
	names := o.Tracer().SpanNames()
	for _, want := range []string{"compile", "identify", "instrument", "execute", "finalize", "rank"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing span %q (have %v)", want, names)
		}
	}
	// 5 stage spans + one per rank.
	if got := o.Tracer().Len(); got != 5+4 {
		t.Errorf("span count = %d, want 9", got)
	}
	var buf bytes.Buffer
	if err := o.Tracer().WriteChromeMerged(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
}

func TestObsLiveEndpointAgainstRun(t *testing.T) {
	rep, o := runWithObs(t)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// /metrics: parseable line-by-line.
	for _, line := range strings.Split(strings.TrimSpace(fetch("/metrics")), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("non-numeric metric value in %q", line)
		}
	}

	// /status: valid JSON including the server's Progress.
	var st struct {
		Running bool `json:"running"`
		Run     struct {
			Ranks    int `json:"ranks"`
			Sensors  int `json:"sensors"`
			Progress struct {
				Records       int   `json:"Records"`
				LatestSliceNs int64 `json:"LatestSliceNs"`
			} `json:"progress"`
			PerRank []struct {
				Rank    int `json:"Rank"`
				Records int `json:"Records"`
			} `json:"per_rank"`
		} `json:"run"`
	}
	if err := json.Unmarshal([]byte(fetch("/status")), &st); err != nil {
		t.Fatalf("/status invalid JSON: %v", err)
	}
	if !st.Running || st.Run.Ranks != 4 {
		t.Errorf("status = %+v", st)
	}
	if st.Run.Progress.Records != len(rep.Server.Records()) {
		t.Errorf("status records = %d, want %d", st.Run.Progress.Records, len(rep.Server.Records()))
	}
	if len(st.Run.PerRank) == 0 {
		t.Error("status missing per-rank progress")
	}

	// /records: incremental cursor returns each record exactly once.
	type recResp struct {
		Cursor  int               `json:"cursor"`
		Records []json.RawMessage `json:"records"`
	}
	var r1 recResp
	if err := json.Unmarshal([]byte(fetch("/records?cursor=0")), &r1); err != nil {
		t.Fatal(err)
	}
	total := len(rep.Server.Records())
	if len(r1.Records) != total || r1.Cursor != total {
		t.Fatalf("first poll: %d records cursor %d, want %d", len(r1.Records), r1.Cursor, total)
	}
	var r2 recResp
	if err := json.Unmarshal([]byte(fetch("/records?cursor="+strconv.Itoa(r1.Cursor))), &r2); err != nil {
		t.Fatal(err)
	}
	if len(r2.Records) != 0 || r2.Cursor != total {
		t.Errorf("re-poll returned %d records (cursor %d): records must be delivered exactly once",
			len(r2.Records), r2.Cursor)
	}
}

// getJSON serves path from h and decodes the JSON object it answers.
func getJSON(t *testing.T, h http.Handler, path string) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s -> %d", path, rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// /status reports the batch the run used, not the raw option: the default
// when Transport leaves it unset, else Transport's. It used to read a
// separate Options.BatchSize and report 0 for both of these runs.
func TestObsStatusReportsEffectiveBatchSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  vsensor.Options
		want float64
	}{
		{"default", vsensor.Options{}, server.DefaultBatchSize},
		{"transport", vsensor.Options{Transport: &transport.Config{BatchSize: 4}}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			tc.opt.Ranks, tc.opt.Obs = 4, o
			if _, err := vsensor.Run(obsTestSrc, tc.opt); err != nil {
				t.Fatal(err)
			}
			run, _ := getJSON(t, o.Handler(), "/status")["run"].(map[string]any)
			if got := run["batch_size"]; got != tc.want {
				t.Errorf("run.batch_size = %v, want %v", got, tc.want)
			}
		})
	}
}

// The server half of a /status "run" body (everything but liveness) that
// the seeded runs of TestStatusShape share.
const shapeServerRun = `"coverage":{"ChecksumErrors":0,"DupFrames":0,"ExpectedFrames":4,"ExpectedRecords":24,"IngestedFrames":4,"IngestedRecords":24,"RejectedFrames":0},` +
	`"epochs":{"Closed":4,"Open":2},"gen":1,` +
	`"per_rank":[{"LatestSliceNs":2000000,"Rank":0,"Records":6},{"LatestSliceNs":2000000,"Rank":1,"Records":6},{"LatestSliceNs":2000000,"Rank":2,"Records":6},{"LatestSliceNs":2000000,"Rank":3,"Records":6}],` +
	`"per_shard":[{"DupFrames":0,"ExpectedRecords":12,"Frames":2,"Ranks":2,"Records":12,"Shard":0},{"DupFrames":0,"ExpectedRecords":12,"Frames":2,"Ranks":2,"Records":12,"Shard":1}],` +
	`"progress":{"Bytes":1088,"LatestSliceNs":2000000,"Messages":4,"Records":24},"ticket":4,"watermark_ns":2000000,` +
	`"server_shards":2,`

// The run's own fields, and the session stats of a networked run.
const (
	shapeStaticRun = `"batch_size":0,"probe_cost_ns":25,"ranks":4,"sensors":2,"uninstrumented":false`
	shapeReconnect = `"reconnect":{"BackoffNs":0,"DialAttempts":1,"InFlight":0,"LSN":4,"Outages":0,"Reconnects":0,"Refusals":0,"Resumed":0},`
	shapeOutliers  = `{"confidence":1,"dead_ranks":[],"degraded":false,"gen":1,"outliers":[],"threshold":0.9,"watermark_ns":2000000}`
)

// TestStatusShape pins the /status "run" body and the /outliers body of one
// seeded run per mode: their exact key sets and every value. The literals
// are what the bodies were when they were hand-built maps, for the same
// runs, with one deliberate difference: batch_size reported the raw option
// (0 in every row) and now reports the effective batch. "$ADDR" stands for
// the run's one ephemeral address. A Connect run has no local server, so no
// server keys, no gen and no outlier report.
func TestStatusShape(t *testing.T) {
	svc, err := netsrv.Listen("127.0.0.1:0", netsrv.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, row := range []struct {
		name          string
		opt           vsensor.Options
		run, outliers string
	}{
		{
			name:     "inproc",
			run:      `{` + shapeServerRun + `"liveness":{"Alive":4,"Dead":0,"FrontierNs":2000000,"Suspect":0},` + shapeStaticRun + `}`,
			outliers: shapeOutliers,
		},
		{
			name: "durable",
			opt:  vsensor.Options{Durability: &server.DurabilityConfig{}, Transport: &transport.Config{LeaseNs: 50_000}},
			run: `{` + shapeServerRun + `"liveness":{"Alive":4,"Dead":0,"FrontierNs":2550586,"Suspect":0},` +
				`"down":false,"durability":{"CheckpointBytes":0,"CoalescedEntries":0,"DiskBytes":1352,"Enabled":true,"FlushBytes":65536,"FlushEvery":1,"Generation":0,"GroupCommits":8,"LSN":8,` +
				`"LastRecovery":{"FramesReplayed":0,"LSN":0,"OutcomesReplayed":0,"RecordsRecovered":0,"SegmentsScanned":0,"SnapshotFallback":false,"SnapshotGen":0,"SnapshotLSN":0,"TruncatedBytes":0,"UsedSnapshot":false,"WALEntriesReplayed":0},` +
				`"Recoveries":0,"SnapshotEvery":256,"Snapshots":0,"StagedBytes":0,"StagedEntries":0,"Syncs":8,"WALBytes":1352,"WALEntries":8},` +
				shapeStaticRun + `}`,
			outliers: shapeOutliers,
		},
		{
			name:     "connect",
			opt:      vsensor.Options{Connect: svc.Addr().String(), RunID: "shape"},
			run:      `{` + shapeReconnect + `"remote":"$ADDR",` + shapeStaticRun + `}`,
			outliers: `{"enabled":false}`,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			o := obs.New()
			opt := row.opt
			opt.Ranks, opt.ServerShards, opt.Seed, opt.Obs = 4, 2, 3, o
			rep, err := vsensor.Run(obsTestSrc, opt)
			if err != nil {
				t.Fatal(err)
			}
			addr := opt.Connect
			decode := func(lit string) map[string]any {
				var m map[string]any
				if err := json.Unmarshal([]byte(strings.ReplaceAll(lit, "$ADDR", addr)), &m); err != nil {
					t.Fatalf("bad literal: %v", err)
				}
				return m
			}
			h := o.Handler()
			st := getJSON(t, h, "/status")
			if _, ok := st["gen"]; ok != (rep.Server != nil) {
				t.Errorf("/status has gen = %v, want %v", ok, rep.Server != nil)
			}
			run, _ := st["run"].(map[string]any)
			wantRun := decode(row.run)
			wantRun["batch_size"] = float64(server.DefaultBatchSize)
			shapeEqual(t, "/status run", run, wantRun)
			shapeEqual(t, "/outliers", getJSON(t, h, "/outliers"), decode(row.outliers))
		})
	}
}

// shapeEqual fails unless got has exactly want's keys, each with want's
// value.
func shapeEqual(t *testing.T, what string, got, want map[string]any) {
	t.Helper()
	keys := func(m map[string]any) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if g, w := keys(got), keys(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s keys = %v, want %v", what, g, w)
	}
	for k, w := range want {
		if !reflect.DeepEqual(got[k], w) {
			t.Errorf("%s %q = %v, want %v", what, k, got[k], w)
		}
	}
}

// TestObsUninstrumentedRun: observability must work (and stay nil-safe)
// on baseline runs that skip instrumentation and the analysis server.
func TestObsUninstrumentedRun(t *testing.T) {
	o := obs.New()
	_, err := vsensor.Run(obsTestSrc, vsensor.Options{Ranks: 2, Uninstrumented: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if o.Registry().Counter("vm_steps_total").Value() == 0 {
		t.Error("vm_steps_total not populated on uninstrumented run")
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"records":[]`) {
		t.Errorf("/records without a server = %d %s", resp.StatusCode, body)
	}
}
