package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	o := New()
	o.Counter("reqs_total", "rank", "3").Add(9)
	o.Histogram("server_batch_bytes").Observe(128)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, `reqs_total{rank="3"} 9`) {
		t.Errorf("metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "server_batch_bytes_count 1") {
		t.Errorf("metrics missing histogram:\n%s", body)
	}
	// Line-by-line parseability.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("unparseable line %q", line)
		}
	}
}

func TestStatusEndpoint(t *testing.T) {
	o := New()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// Before a run is wired in: running=false.
	code, body := get(t, srv, "/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if st["running"] != false {
		t.Errorf("running = %v before SetStatus", st["running"])
	}

	o.SetStatus(func() any {
		return map[string]any{"ranks": 8, "records": 42}
	})
	_, body = get(t, srv, "/status")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if st["running"] != true {
		t.Error("running should be true after SetStatus")
	}
	run, ok := st["run"].(map[string]any)
	if !ok || run["ranks"] != float64(8) || run["records"] != float64(42) {
		t.Errorf("run snapshot = %v", st["run"])
	}
}

func TestRecordsEndpointCursorSemantics(t *testing.T) {
	o := New()
	// Backing store: an append-only log published as report snapshots.
	h := &reportHarness{}
	h.wire(o)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	type resp struct {
		Cursor  int   `json:"cursor"`
		Records []int `json:"records"`
	}
	poll := func(cursor int) resp {
		t.Helper()
		code, body := get(t, srv, "/records?cursor="+itoa(cursor))
		if code != http.StatusOK {
			t.Fatalf("status = %d: %s", code, body)
		}
		var r resp
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, body)
		}
		return r
	}

	store := []int{1, 2, 3}
	h.advance(1, store, 0)
	r1 := poll(0)
	if len(r1.Records) != 3 || r1.Cursor != 3 {
		t.Fatalf("first poll = %+v", r1)
	}
	// Re-polling at the new cursor yields nothing: exactly-once.
	r2 := poll(r1.Cursor)
	if len(r2.Records) != 0 || r2.Cursor != 3 {
		t.Fatalf("empty delta = %+v", r2)
	}
	store = append(store, 4, 5)
	h.advance(2, store, 0)
	r3 := poll(r2.Cursor)
	if len(r3.Records) != 2 || r3.Records[0] != 4 || r3.Cursor != 5 {
		t.Fatalf("delta = %+v", r3)
	}
	// Union of all polls covers each record exactly once.
	seen := append(append([]int{}, r1.Records...), r3.Records...)
	if len(seen) != len(store) {
		t.Fatalf("records seen %v vs store %v", seen, store)
	}

	// Bad cursor → 400.
	code, _ := get(t, srv, "/records?cursor=bogus")
	if code != http.StatusBadRequest {
		t.Errorf("bad cursor status = %d", code)
	}
	// No report provider → empty but valid, with the base, and the cursor
	// is validated the same way.
	o2 := New()
	srv2 := httptest.NewServer(o2.Handler())
	defer srv2.Close()
	code, body := get(t, srv2, "/records")
	if code != http.StatusOK || !strings.Contains(body, `"records":[]`) || !strings.Contains(body, `"base":0`) {
		t.Errorf("unwired records = %d %s", code, body)
	}
	if code, body := get(t, srv2, "/records?cursor=-1"); code != http.StatusBadRequest {
		t.Errorf("unwired records at cursor -1 = %d %s, want 400", code, body)
	}
}

func TestServeRealListener(t *testing.T) {
	o := New()
	o.Counter("up").Inc()
	h, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	resp, err := http.Get("http://" + h.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up 1") {
		t.Errorf("metrics over real listener:\n%s", body)
	}
	if err := h.Close(); err != nil {
		t.Error(err)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	o := New()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	code, body := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	code, _ = get(t, srv, "/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path = %d", code)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestFlightEndpoint(t *testing.T) {
	o := New()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// Lineage off: the endpoint reports disabled rather than 404ing, so
	// dashboards can probe for the feature.
	code, body := get(t, srv, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &off); err != nil || off.Enabled {
		t.Fatalf("lineage-off body %q (err %v)", body, err)
	}

	lin := o.EnableLineage(LineageConfig{SampleEvery: 1})
	lin.Record(0xabc, StageIngest, 3, 0, 100, 50, 8)
	lin.Record(0xabc, StageWALAppend, 3, 0, 160, 10, 40)
	lin.Record(0xdef, StageIngest, 5, 2, 200, 75, 1)

	code, body = get(t, srv, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var on struct {
		Enabled   bool                  `json:"enabled"`
		Cursor    uint64                `json:"cursor"`
		Spans     []FlightSpan          `json:"spans"`
		Stats     LineageStats          `json:"stats"`
		Exemplars map[string][]Exemplar `json:"exemplars"`
	}
	if err := json.Unmarshal([]byte(body), &on); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if !on.Enabled || len(on.Spans) != 3 || on.Cursor != 3 {
		t.Fatalf("enabled=%v spans=%d cursor=%d, want true/3/3", on.Enabled, len(on.Spans), on.Cursor)
	}
	if on.Spans[0].Trace != 0xabc || on.Spans[0].Stage != StageIngest || on.Spans[0].DurNs != 50 {
		t.Fatalf("span 0 = %+v", on.Spans[0])
	}
	if on.Stats.FlightCap != flightCap || on.Stats.Spans != 3 {
		t.Fatalf("stats = %+v", on.Stats)
	}
	// The ingest histogram's exemplar resolves to a recorded trace.
	exs := on.Exemplars[`stage="server_ingest"`]
	if len(exs) == 0 || (exs[len(exs)-1].Trace != 0xabc && exs[len(exs)-1].Trace != 0xdef) {
		t.Fatalf("server_ingest exemplars = %+v", exs)
	}

	// Cursor resume: no spans after the returned cursor.
	code, body = get(t, srv, "/debug/flight?cursor="+itoa(int(on.Cursor)))
	if code != http.StatusOK {
		t.Fatalf("resume status = %d", code)
	}
	var resumed struct {
		Spans []FlightSpan `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &resumed); err != nil || len(resumed.Spans) != 0 {
		t.Fatalf("resume returned %d spans (err %v)", len(resumed.Spans), err)
	}

	if code, _ := get(t, srv, "/debug/flight?cursor=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad cursor status = %d", code)
	}
}
