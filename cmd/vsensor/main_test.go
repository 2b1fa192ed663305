package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/ir"
	"vsensor/internal/rundata"
)

// The CLI is tested by re-executing the test binary as the vsensor command:
// TestMain dispatches to main() when VSENSOR_TEST_MAIN=1 is in the
// environment, so every test below exercises the real flag parsing, the
// real fatal() paths, and the real exit codes.

func TestMain(m *testing.M) {
	if os.Getenv("VSENSOR_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes this test binary as `vsensor args...` and returns the
// combined stdout, stderr, and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VSENSOR_TEST_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

func TestFlagParsing(t *testing.T) {
	tiny := filepath.Join("testdata", "tiny.mc")
	tests := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string        // substring that must appear on stderr
		maxWall    time.Duration // when set, the command must exit within it
	}{
		{
			name:       "no arguments",
			args:       nil,
			wantCode:   2,
			wantStderr: "usage: vsensor",
		},
		{
			name:       "unknown command",
			args:       []string{"frobnicate", tiny},
			wantCode:   2,
			wantStderr: "usage: vsensor",
		},
		{
			name:       "missing program argument",
			args:       []string{"run"},
			wantCode:   2,
			wantStderr: "usage: vsensor",
		},
		{
			name:       "bad faults spec",
			args:       []string{"run", "-faults", "drop=banana", tiny},
			wantCode:   1,
			wantStderr: "drop",
		},
		{
			name:       "unknown fault key",
			args:       []string{"run", "-faults", "explode=1", tiny},
			wantCode:   1,
			wantStderr: "explode",
		},
		{
			name:       "negative server shards",
			args:       []string{"run", "-server-shards", "-2", tiny},
			wantCode:   1,
			wantStderr: "server-shards",
		},
		{
			name:       "non-integer server shards",
			args:       []string{"run", "-server-shards", "many", tiny},
			wantCode:   2,
			wantStderr: "invalid value",
		},
		{
			name:       "conflicting badnode and nodes",
			args:       []string{"run", "-nodes", "2", "-badnode", "5", tiny},
			wantCode:   1,
			wantStderr: "conflicting knobs",
		},
		{
			name:       "bad netwindow",
			args:       []string{"run", "-netwindow", "0.5", tiny},
			wantCode:   1,
			wantStderr: "netwindow",
		},
		{
			name:       "missing program file",
			args:       []string{"run", "no-such-file.mc"},
			wantCode:   1,
			wantStderr: "no-such-file.mc",
		},
		{
			name:       "negative batch",
			args:       []string{"run", "-batch", "-4", tiny},
			wantCode:   1,
			wantStderr: "batch size cannot be negative",
		},
		{
			name:       "snapshot-every without wal",
			args:       []string{"run", "-snapshot-every", "64", tiny},
			wantCode:   1,
			wantStderr: "needs -wal",
		},
		{
			name:       "negative lease",
			args:       []string{"run", "-lease", "-1ms", tiny},
			wantCode:   1,
			wantStderr: "lease cannot be negative",
		},
		{
			name:       "negative flush-every",
			args:       []string{"run", "-wal", "-flush-every", "-8", tiny},
			wantCode:   1,
			wantStderr: "commit-group size cannot be negative",
		},
		{
			name:       "flush-every without wal",
			args:       []string{"run", "-flush-every", "16", tiny},
			wantCode:   1,
			wantStderr: "needs -wal",
		},
		{
			// One commit path: -flush-every is the only commit knob left.
			name:       "removed flag sync-every",
			args:       []string{"run", "-wal", "-sync-every", "4", tiny},
			wantCode:   2,
			wantStderr: "flag provided but not defined: -sync-every",
		},
		{
			name:       "removed flag coalesce",
			args:       []string{"run", "-wal", "-coalesce", tiny},
			wantCode:   2,
			wantStderr: "flag provided but not defined: -coalesce",
		},
		{
			name:       "deadrank without deadafter",
			args:       []string{"run", "-faults", "deadrank=2", tiny},
			wantCode:   1,
			wantStderr: "deadafter",
		},
		{
			name:       "run-id without connect",
			args:       []string{"run", "-run-id", "lonely", tiny},
			wantCode:   1,
			wantStderr: "-run-id needs -connect",
		},
		{
			name:       "wal with connect",
			args:       []string{"run", "-connect", "127.0.0.1:1", "-wal", tiny},
			wantCode:   1,
			wantStderr: "a -connect run has none",
		},
		{
			// The verdict lives on the service: nothing local to save or
			// render, so these are refused before the run.
			name:       "save with connect",
			args:       []string{"run", "-connect", "127.0.0.1:1", "-save", "run.json", tiny},
			wantCode:   1,
			wantStderr: "-save needs the in-process server",
		},
		{
			name:       "matrix with connect",
			args:       []string{"run", "-connect", "127.0.0.1:1", "-matrix", tiny},
			wantCode:   1,
			wantStderr: "-matrix needs the in-process server",
		},
		{
			name:       "csv with connect",
			args:       []string{"run", "-connect", "127.0.0.1:1", "-csv", "comp.csv", tiny},
			wantCode:   1,
			wantStderr: "-csv needs the in-process server",
		},
		{
			name:       "png with connect",
			args:       []string{"run", "-connect", "127.0.0.1:1", "-png", "heat", tiny},
			wantCode:   1,
			wantStderr: "-png needs the in-process server",
		},
		{
			// The self-healing session's first dial fails fast on a network
			// error; only an accepted session retries them under the budget.
			name:       "connect to unreachable service",
			args:       []string{"run", "-connect", "127.0.0.1:1", tiny},
			wantCode:   1,
			wantStderr: "refused",
			maxWall:    2 * time.Second,
		},
		{
			// -reconnect is gone: a -connect session always self-heals.
			name:       "reconnect without connect",
			args:       []string{"run", "-reconnect", tiny},
			wantCode:   2,
			wantStderr: "flag provided but not defined: -reconnect",
		},
		{
			name:       "dial-retry budget without connect",
			args:       []string{"run", "-dial-retry-budget", "1s", tiny},
			wantCode:   1,
			wantStderr: "-dial-retry-budget needs -connect",
		},
		{
			name:       "negative dial-retry budget",
			args:       []string{"run", "-connect", "127.0.0.1:1", "-dial-retry-budget", "-1ms", tiny},
			wantCode:   1,
			wantStderr: "budget cannot be negative",
		},
		{
			name:       "serve with negative idle-timeout",
			args:       []string{"serve", "-idle-timeout", "-1s"},
			wantCode:   1,
			wantStderr: "cannot be negative",
		},
		{
			name:       "serve with positional argument",
			args:       []string{"serve", "stray.mc"},
			wantCode:   1,
			wantStderr: "no positional arguments",
		},
		{
			name:       "serve with negative workers",
			args:       []string{"serve", "-max-workers", "-3"},
			wantCode:   1,
			wantStderr: "cannot be negative",
		},
		{
			// 2^32 + 50 used to wrap silently to a 50ms hint.
			name:       "serve with retry-after-ms above uint32",
			args:       []string{"serve", "-retry-after-ms", "4294967346"},
			wantCode:   1,
			wantStderr: "bad -retry-after-ms 4294967346",
		},
		{
			// The first bad flag in a fixed order is named, every time.
			name:       "serve with several negative flags",
			args:       []string{"serve", "-server-shards", "-1", "-max-run-sessions", "-2", "-max-workers", "-3"},
			wantCode:   1,
			wantStderr: "bad -max-workers -3",
		},
		{
			name:       "serve on unparseable address",
			args:       []string{"serve", "-listen", "not-an-address"},
			wantCode:   1,
			wantStderr: "not-an-address",
		},
		{
			name:       "http-hold without http",
			args:       []string{"run", "-http-hold", "5s", tiny},
			wantCode:   1,
			wantStderr: "-http-hold needs -http",
		},
		{
			name:       "negative http-hold",
			args:       []string{"run", "-http", "127.0.0.1:0", "-http-hold", "-1s", tiny},
			wantCode:   1,
			wantStderr: "hold cannot be negative",
		},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			_, stderr, code := runCLI(t, tt.args...)
			if d := time.Since(start); tt.maxWall > 0 && d > tt.maxWall {
				t.Errorf("took %v, want under %v", d, tt.maxWall)
			}
			if code != tt.wantCode {
				t.Errorf("exit code = %d, want %d (stderr: %q)", code, tt.wantCode, stderr)
			}
			if !strings.Contains(stderr, tt.wantStderr) {
				t.Errorf("stderr %q does not contain %q", stderr, tt.wantStderr)
			}
		})
	}
}

// TestRunEndToEnd drives a full faulty run through the CLI and checks the
// operator-facing contract: exit 0, a coverage summary line, and a valid
// Chrome trace file from -trace-json.
func TestRunEndToEnd(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	stdout, stderr, code := runCLI(t,
		"run", "-q", "-ranks", "4", "-server-shards", "4",
		"-faults", "drop=0.1,dup=0.05,seed=3",
		"-trace-json", trace,
		filepath.Join("testdata", "tiny.mc"))
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "execution time:") {
		t.Errorf("stdout missing run summary:\n%s", stdout)
	}
	cov := ""
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "transport: plan") {
			cov = line
			break
		}
	}
	if cov == "" {
		t.Fatalf("stdout missing 'transport: plan' coverage line:\n%s", stdout)
	}
	if !strings.Contains(cov, "coverage") || !strings.Contains(cov, "records") {
		t.Errorf("coverage line malformed: %q", cov)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("reading trace file: %v", err)
	}
	var trc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trc); err != nil {
		t.Fatalf("-trace-json output is not valid trace_event JSON: %v", err)
	}
	if len(trc.TraceEvents) == 0 {
		t.Error("trace file has no spans")
	}
	for i, ev := range trc.TraceEvents {
		if _, ok := ev["name"]; !ok {
			t.Fatalf("trace event %d has no name: %v", i, ev)
		}
	}
}

// A run whose MPI ranks can never all finish exits 1 at once, naming the
// rank, the builtin and its position once, and so does a rank's fault that
// leaves its peers waiting at a barrier.
func TestRunFailsOnStuckRanks(t *testing.T) {
	for _, c := range []struct{ file, want string }{
		{"deadlock-barrier.mc", "vsensor: run failed: rank 0: 3:9: mpi_barrier: deadlock: waits in barrier, which 1 of 4 ranks reached, and no other rank can run\n"},
		{"deadlock-recv.mc", "vsensor: run failed: rank 0: 3:9: mpi_recv: deadlock: waits for a message from rank 1 and no other rank can run\n"},
		{"fault-before-barrier.mc", "vsensor: run failed: rank 0: 3:33: index 5 out of range [0,3)\n"},
	} {
		t.Run(c.file, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "run", "-q", "-ranks", "4", filepath.Join("testdata", c.file))
			if code != 1 || stderr != c.want {
				t.Errorf("exit %d, stderr %q; want exit 1, stderr %q\nstdout: %s", code, stderr, c.want, stdout)
			}
		})
	}
}

// TestRunDurableEndToEnd drives a -wal -lease run with a mid-run server
// crash and a permanently dead rank through the CLI, and checks the
// operator-facing durability contract: exit 0, a durability summary with a
// recorded recovery, a liveness summary with one dead rank, and a DEGRADED
// verdict line naming it.
func TestRunDurableEndToEnd(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"run", "-q", "-ranks", "8", "-server-shards", "2",
		"-slice", "20us", "-batch", "4",
		"-faults", "drop=0.1,seed=11,crashafter=20,crashdown=8,deadrank=5,deadafter=2",
		"-wal", "-snapshot-every", "32", "-lease", "50us",
		filepath.Join("testdata", "tiny.mc"))
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{
		"durability: gen",
		"recoveries",
		"last recovery: snapshot gen",
		"liveness:",
		"1 dead",
		"DEGRADED verdict: dead ranks [5]",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestRunGroupCommitEndToEnd drives a -wal run with a 16-outcome commit
// group through the CLI, including a mid-run crash, and checks that the
// tuned journal still recovers and reports its effective configuration in
// the durability summary.
func TestRunGroupCommitEndToEnd(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"run", "-q", "-ranks", "8", "-server-shards", "2",
		"-slice", "20us", "-batch", "4",
		"-faults", "drop=0.1,seed=11,crashafter=20,crashdown=8",
		"-wal", "-snapshot-every", "32", "-flush-every", "16", "-lease", "50us",
		filepath.Join("testdata", "tiny.mc"))
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{
		"durability: gen",
		"recoveries",
		"group commits",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestServeConnectEndToEnd is the service satellite's operator contract
// over a real TCP round trip: `vsensor serve` announces its bound address,
// a `vsensor run -connect` delivers its records there and reports the
// remote delivery instead of a local server summary, /status serves the
// service's counters and live runs, and an interrupt shuts the service
// down cleanly with a session-count summary.
func TestServeConnectEndToEnd(t *testing.T) {
	srv := exec.Command(os.Args[0], "serve", "-listen", "127.0.0.1:0", "-max-workers", "4", "-http", "127.0.0.1:0")
	srv.Env = append(os.Environ(), "VSENSOR_TEST_MAIN=1")
	stdoutPipe, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderrPipe, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	// The introspection address goes to stderr before the service listens.
	var base string
	esc := bufio.NewScanner(stderrPipe)
	for esc.Scan() {
		if strings.HasPrefix(esc.Text(), "introspection: ") {
			base = strings.TrimSuffix(strings.Fields(esc.Text())[1], "/")
			break
		}
	}
	if base == "" {
		t.Fatalf("introspection line never appeared (scan err %v)", esc.Err())
	}
	go io.Copy(io.Discard, stderrPipe) //nolint:errcheck

	// The service announces its bound address on stdout once listening.
	sc := bufio.NewScanner(stdoutPipe)
	var addr string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "serving: ") {
			addr = strings.TrimPrefix(sc.Text(), "serving: ")
			break
		}
	}
	if addr == "" {
		t.Fatalf("serving line never appeared (scan err %v)", sc.Err())
	}

	// Two runs share the one listener under distinct run IDs.
	for _, rid := range []string{"job-a", "job-b"} {
		stdout, stderr, code := runCLI(t,
			"run", "-q", "-ranks", "4", "-connect", addr, "-run-id", rid,
			filepath.Join("testdata", "tiny.mc"))
		if code != 0 {
			t.Fatalf("run -connect (%s) exit %d\nstdout: %s\nstderr: %s", rid, code, stdout, stderr)
		}
		if !strings.Contains(stdout, "records delivered to "+addr) ||
			!strings.Contains(stdout, `run "`+rid+`"`) {
			t.Errorf("run %s stdout missing remote-delivery summary:\n%s", rid, stdout)
		}
		// One network client: the summary is always the self-healing
		// session's ledger.
		if !strings.Contains(stdout, "durable lsn ") || !strings.Contains(stdout, " reconnects over ") {
			t.Errorf("run %s connect summary missing durable lsn/reconnects:\n%s", rid, stdout)
		}
		if strings.Contains(stdout, "server data:") {
			t.Errorf("run %s printed a local-server summary in connect mode:\n%s", rid, stdout)
		}
		// The run holds no records, so it has no verdict of its own: it
		// names the service instead of printing a clean one.
		if strings.Contains(stdout, "no performance variance detected") ||
			!strings.Contains(stdout, "verdict: on the analysis service at "+addr+` (run "`+rid+`")`) {
			t.Errorf("run %s connect verdict line wrong:\n%s", rid, stdout)
		}
	}

	// /status: run.net is the service's Stats under its 16 keys, run.runs
	// the live run IDs.
	res, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Run struct {
			Net  map[string]any `json:"net"`
			Runs []string       `json:"runs"`
		} `json:"run"`
	}
	err = json.NewDecoder(res.Body).Decode(&status)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/status: %v", err)
	}
	var keys []string
	for k := range status.Run.Net {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "accepted corrupt_envelopes frames_down frames_in frames_rejected "+
		"peak_workers refused_badhello refused_runs refused_sessions refused_shutdown runs sessions "+
		"sessions_open sessions_reaped shed workers"; got != want {
		t.Errorf("/status run.net keys:\n got: %s\nwant: %s", got, want)
	}
	if got := strings.Join(status.Run.Runs, " "); got != "job-a job-b" {
		t.Errorf("/status run.runs = %q, want job-a job-b", got)
	}

	// Clean shutdown on signal: exit 0 and a drain summary counting both runs.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var shutdown string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "shutdown: ") {
			shutdown = sc.Text()
			break
		}
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("serve did not exit cleanly on interrupt: %v (shutdown line %q)", err, shutdown)
	}
	if !strings.Contains(shutdown, "2 sessions over 2 runs") {
		t.Errorf("shutdown summary = %q, want 2 sessions over 2 runs", shutdown)
	}
}

// TestAnalyzeEndToEnd covers the analyze command's identification table.
func TestAnalyzeEndToEnd(t *testing.T) {
	stdout, stderr, code := runCLI(t, "analyze", filepath.Join("testdata", "tiny.mc"))
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"snippets:", "v-sensors:", "instrumented:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("analyze output missing %q:\n%s", want, stdout)
		}
	}
}

// TestReportNeedsRecords: `report` renders the verdict of a file `run -save`
// wrote, and gives none for a file that holds sensors but no records, where
// "no performance variance" would be a verdict drawn from no data.
func TestReportNeedsRecords(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "run.dat")
	if stdout, stderr, code := runCLI(t, "run", "-q", "-ranks", "4", "-save", saved, filepath.Join("testdata", "tiny.mc")); code != 0 {
		t.Fatalf("run -save: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	empty := filepath.Join(dir, "empty.dat")
	f, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := rundata.Save(f, &rundata.RunData{Ranks: 4, Sensors: []detect.Sensor{{ID: 0, Type: ir.Computation, Name: "main:L0"}}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		verdict    bool
	}{
		{"saved-run", saved, true},
		{"sensors-without-records", empty, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "report", tc.path)
			if code != 0 {
				t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
			}
			if got := strings.Contains(stdout, "no verdict"); got == tc.verdict {
				t.Errorf("report prints \"no verdict\" = %v, want %v:\n%s", got, !tc.verdict, stdout)
			}
			if !tc.verdict && strings.Contains(stdout, "no performance variance") {
				t.Errorf("a file without records rendered a clean verdict:\n%s", stdout)
			}
		})
	}
}

// TestLineageFlagValidation pins the lineage flag-gating errors.
func TestLineageFlagValidation(t *testing.T) {
	tiny := filepath.Join("testdata", "tiny.mc")
	tests := []struct {
		name       string
		args       []string
		wantStderr string
	}{
		{
			name:       "lineage-every without lineage",
			args:       []string{"run", "-lineage-every", "16", tiny},
			wantStderr: "-lineage-every needs -lineage",
		},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			_, stderr, code := runCLI(t, tt.args...)
			if code != 1 {
				t.Errorf("exit code = %d, want 1 (stderr: %q)", code, stderr)
			}
			if !strings.Contains(stderr, tt.wantStderr) {
				t.Errorf("stderr %q does not contain %q", stderr, tt.wantStderr)
			}
		})
	}
}

// TestLineageEndToEndCLI drives a faulty -lineage run through the CLI,
// checks the lineage summary line, then feeds the emitted Chrome trace to
// `vsensor trace` and checks at least one journey renders with its hops.
func TestLineageEndToEndCLI(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	stdout, stderr, code := runCLI(t,
		"run", "-q", "-ranks", "8", "-batch", "4", "-slice", "50us",
		"-faults", "drop=0.2,dup=0.05,seed=7",
		"-wal", "-lineage", "-lineage-every", "4",
		"-trace-json", trace,
		filepath.Join("testdata", "tiny.mc"))
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	lineageLine := ""
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "lineage: sampled") {
			lineageLine = line
			break
		}
	}
	if lineageLine == "" {
		t.Fatalf("stdout missing 'lineage: sampled' summary:\n%s", stdout)
	}
	if strings.Contains(lineageLine, "sampled 0 frames") {
		t.Fatalf("lineage run sampled nothing: %q", lineageLine)
	}
	if !strings.Contains(lineageLine, "(1 in 4, seed 0)") {
		t.Errorf("lineage line does not echo the sampling config: %q", lineageLine)
	}

	// The trace subcommand must reconstruct journeys from the emitted file.
	stdout, stderr, code = runCLI(t, "trace", trace)
	if code != 0 {
		t.Fatalf("trace exit code = %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "sampled record journey(s)") {
		t.Fatalf("trace output missing journey count:\n%s", stdout)
	}
	if !strings.Contains(stdout, "server_ingest") || !strings.Contains(stdout, "enqueue") {
		t.Errorf("trace output missing expected hop stages:\n%s", stdout)
	}

	// Filtering by a trace ID that appears in the output keeps exactly that
	// journey; filtering by a bogus ID reports none.
	var id string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "trace ") {
			id = strings.Fields(line)[1]
			break
		}
	}
	if id == "" {
		t.Fatalf("no 'trace <id>' header in output:\n%s", stdout)
	}
	stdout, _, code = runCLI(t, "trace", "-trace-id", id, trace)
	if code != 0 || !strings.Contains(stdout, "1 sampled record journey(s)") {
		t.Errorf("trace -trace-id %s: code %d output:\n%s", id, code, stdout)
	}
	stdout, _, code = runCLI(t, "trace", "-trace-id", "ffffffffffffffff", trace)
	if code != 0 || !strings.Contains(stdout, "no lineage spans") {
		t.Errorf("bogus -trace-id: code %d output:\n%s", code, stdout)
	}
}

// TestTraceCommandErrors pins the trace subcommand's failure modes.
func TestTraceCommandErrors(t *testing.T) {
	if _, stderr, code := runCLI(t, "trace", "no-such-trace.json"); code != 1 ||
		!strings.Contains(stderr, "no-such-trace.json") {
		t.Errorf("missing file: code %d stderr %q", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := runCLI(t, "trace", bad); code != 1 ||
		!strings.Contains(stderr, "not a Chrome trace_event file") {
		t.Errorf("bad file: code %d stderr %q", code, stderr)
	}
}

// TestHTTPConditionalEndToEnd runs the CLI with -http and -http-hold, polls
// the live endpoint over a real socket, and pins the operator contract: the
// first /status costs a body with a strong ETag, revalidating with that tag
// costs a 304 with no body, /outliers speaks the same protocol, and the
// run's coverage summary reports the report-cache hit rate.
func TestHTTPConditionalEndToEnd(t *testing.T) {
	cmd := exec.Command(os.Args[0],
		"run", "-q", "-ranks", "8", "-batch", "4", "-slice", "50us",
		"-http", "127.0.0.1:0", "-http-hold", "30s",
		filepath.Join("testdata", "tiny.mc"))
	cmd.Env = append(os.Environ(), "VSENSOR_TEST_MAIN=1")
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdoutPipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The run's summary ends with the report cache line, printed once the
	// run has finished and before the hold: the one sign that the snapshot
	// is final. stdout is read to EOF so the child never blocks on it.
	cacheLine := make(chan string, 1)
	stdoutDone := make(chan struct{})
	go func() {
		defer close(stdoutDone)
		defer close(cacheLine)
		sc := bufio.NewScanner(stdoutPipe)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "report cache: gen ") {
				cacheLine <- line
			}
		}
	}()
	defer func() {
		cmd.Process.Kill()
		<-stdoutDone
		cmd.Wait()
	}()

	// The CLI announces the bound address on stderr once the listener is up.
	var base string
	sc := bufio.NewScanner(stderrPipe)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "introspection: ") {
			base = strings.TrimSuffix(strings.Fields(line)[1], "/")
			break
		}
	}
	if base == "" {
		t.Fatalf("introspection line never appeared (scan err %v)", sc.Err())
	}
	// Drain the rest of stderr so the child never blocks on a full pipe.
	go io.Copy(io.Discard, stderrPipe) //nolint:errcheck

	get := func(path, inm string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		// The endpoint holds for 30s after the run; retry briefly around
		// subprocess scheduling.
		var resp *http.Response
		for i := 0; i < 50; i++ {
			resp, err = http.DefaultClient.Do(req)
			if err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("ETag")
	}

	// The summary reports the cache's effectiveness.
	var summary string
	select {
	case summary = <-cacheLine:
	case <-time.After(60 * time.Second):
		t.Fatal("no 'report cache' summary line on stdout within 60s")
	}
	if summary == "" {
		t.Fatal("stdout closed without a 'report cache' summary line")
	}
	if !strings.Contains(summary, "hit rate") || !strings.Contains(summary, "rebuilds") {
		t.Fatalf("cache summary incomplete: %q", summary)
	}

	// The run is over, so the generation /status serves now is the last.
	code, body, tag := get("/status", "")
	if code != http.StatusOK || tag == "" {
		t.Fatalf("/status = %d, ETag %q", code, tag)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st["running"] != true {
		t.Fatalf("/status body = %v", st)
	}

	// The second poll with If-None-Match is the satellite's core assertion:
	// an unchanged generation costs a 304, not a body.
	code, body, etag := get("/status", tag)
	if code != http.StatusNotModified || body != "" {
		t.Fatalf("revalidation = %d %q, want 304 with empty body", code, body)
	}
	if etag != tag {
		t.Fatalf("304 ETag = %q, want %q", etag, tag)
	}

	// /outliers speaks the same protocol from the same generation.
	code, body, otag := get("/outliers", "")
	if code != http.StatusOK || otag != tag {
		t.Fatalf("/outliers = %d ETag %q (status tag %q)", code, otag, tag)
	}
	if !strings.Contains(body, `"outliers"`) {
		t.Fatalf("/outliers body missing report:\n%s", body)
	}
	if code, body, _ := get("/outliers", tag); code != http.StatusNotModified || body != "" {
		t.Fatalf("/outliers revalidation = %d %q", code, body)
	}

	// /records serves the full window with base and a resumable cursor.
	code, body, _ = get("/records", "")
	if code != http.StatusOK {
		t.Fatalf("/records = %d", code)
	}
	var rb struct {
		Cursor  int              `json:"cursor"`
		Base    int              `json:"base"`
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &rb); err != nil {
		t.Fatalf("/records not JSON: %v", err)
	}
	if len(rb.Records) == 0 || rb.Cursor != rb.Base+len(rb.Records) {
		t.Fatalf("/records window = cursor %d base %d len %d", rb.Cursor, rb.Base, len(rb.Records))
	}
}
