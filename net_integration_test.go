package vsensor_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	vsensor "vsensor"
	"vsensor/internal/detect"
	"vsensor/internal/netsrv"
	"vsensor/internal/obs"
	"vsensor/internal/server"
)

const netTestSrc = `
func main() {
    for (int i = 0; i < 20; i++) {
        for (int k = 0; k < 8; k++) {
            flops(4000);
        }
        mpi_allreduce(64, 1.0);
    }
}`

func sortedRecords(recs []detect.SliceRecord) []detect.SliceRecord {
	out := append([]detect.SliceRecord(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Sensor != b.Sensor {
			return a.Sensor < b.Sensor
		}
		return a.SliceNs < b.SliceNs
	})
	return out
}

// sameRecords fails unless the two record logs are bit-identical, entry by
// entry. Networked logs arrive in socket order; pass them through
// sortedRecords first.
func sameRecords(t *testing.T, got, want []detect.SliceRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

// serveTenant starts a loopback analysis service whose every tenant is
// srv, a server the test holds, and closes it when the test ends. With o
// set, the service registers its counters there, and srv is attached to o
// when the service first admits it: after the run has enabled lineage on o,
// so the server's hops join the run's traces.
func serveTenant(t *testing.T, srv *server.Server, o *obs.Obs) *netsrv.Service {
	t.Helper()
	svc, err := netsrv.Listen("127.0.0.1:0", netsrv.Config{NewServer: func(string) *server.Server {
		srv.SetObs(o)
		return srv
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	if o != nil {
		svc.SetObs(o)
	}
	return svc
}

// A networked run is the same pipeline with the record path squeezed
// through the real wire protocol on loopback TCP to a listening service
// that holds the tenant server: that server must see the identical record
// set, coverage and data volume the plain in-process run produces, and the
// frames must really have crossed the socket.
func TestListenModeMatchesInProcess(t *testing.T) {
	direct, err := vsensor.Run(netTestSrc, vsensor.Options{Ranks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ten := server.NewSharded(0)
	svc := serveTenant(t, ten, nil)
	networked, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Connect: svc.Addr().String(), RunID: "listen-mode",
	})
	if err != nil {
		t.Fatal(err)
	}
	if networked.Resilient == nil || networked.Link == nil {
		t.Fatalf("networked run missing net plumbing: resilient=%v link=%v",
			networked.Resilient, networked.Link)
	}
	if svc.Tenant("listen-mode") != ten {
		t.Fatalf("service tenant is not the held server (runs: %v)", svc.RunIDs())
	}
	sameRecords(t, sortedRecords(ten.Records()), sortedRecords(direct.Server.Records()))
	if g, w := ten.Coverage(), direct.Coverage(); g.IngestedRecords != w.IngestedRecords || !g.Complete() {
		t.Fatalf("coverage differs: got %+v want %+v", g, w)
	}
	if g, w := ten.Progress().Bytes, direct.DataVolume(); g != w {
		t.Fatalf("data volume %d, want %d", g, w)
	}
	if st := svc.Stats(); st.FramesIn == 0 || st.Sessions != 1 {
		t.Fatalf("no frames actually crossed the socket: %+v", st)
	}
}

// Connect mode ships the records to an external service: the run itself
// has no server, and the remote tenant ends up with the same record set an
// in-process run produces.
func TestConnectModeDeliversToRemoteService(t *testing.T) {
	direct, err := vsensor.Run(netTestSrc, vsensor.Options{Ranks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := netsrv.Listen("127.0.0.1:0", netsrv.Config{Shards: server.DefaultShards})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rep, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Connect: svc.Addr().String(), RunID: "remote-run",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server != nil {
		t.Fatal("Connect run should have no local server")
	}
	if rep.Resilient == nil || rep.Link == nil {
		t.Fatal("Connect run missing resilient session/link")
	}
	if st := rep.Resilient.Stats(); st.DialAttempts != 1 || st.Reconnects != 0 || st.Outages != 0 {
		t.Fatalf("healthy-wire resilient stats off: %+v", st)
	}
	if rep.DataVolume() != 0 || rep.Snapshot() != nil {
		t.Fatal("local read surface should be empty in Connect mode")
	}
	ten := svc.Tenant("remote-run")
	if ten == nil {
		t.Fatalf("remote tenant missing (runs: %v)", svc.RunIDs())
	}
	sameRecords(t, sortedRecords(ten.Records()), sortedRecords(direct.Server.Records()))
	if !ten.Coverage().Complete() {
		t.Fatalf("remote coverage incomplete: %+v", ten.Coverage())
	}
}

// Options.Reconnect tunes the self-healing session every networked run
// uses. On a healthy loopback wire the session must be invisible —
// identical records and coverage, zero reconnects or outages — while the
// resume bookkeeping shows up in Report.Resilient and the /status
// reconnect block.
func TestReconnectModeMatchesInProcess(t *testing.T) {
	direct, err := vsensor.Run(netTestSrc, vsensor.Options{Ranks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	ten := server.NewSharded(0)
	svc := serveTenant(t, ten, nil)
	networked, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Connect: svc.Addr().String(), RunID: "resilient-mode", Obs: o,
		Reconnect: &netsrv.ReconnectConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if networked.Resilient == nil || networked.Link == nil {
		t.Fatalf("Reconnect run plumbing wrong: resilient=%v link=%v", networked.Resilient, networked.Link)
	}
	sameRecords(t, sortedRecords(ten.Records()), sortedRecords(direct.Server.Records()))
	if !ten.Coverage().Complete() {
		t.Fatalf("resilient coverage incomplete: %+v", ten.Coverage())
	}
	st := networked.Resilient.Stats()
	if st.DialAttempts < 1 || st.Reconnects != 0 || st.Outages != 0 {
		t.Fatalf("healthy-wire resilient stats off: %+v", st)
	}

	ts := httptest.NewServer(o.Handler())
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	var status struct {
		Run struct {
			Reconnect *netsrv.ResilientStats `json:"reconnect"`
		} `json:"run"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if status.Run.Reconnect == nil || status.Run.Reconnect.DialAttempts < 1 {
		t.Fatalf("/status missing reconnect stats:\n%s", body)
	}
}

// Connect mode with Reconnect: the external tenant sees the same record
// set, and the run's summary surface is the resilient session.
func TestReconnectConnectModeDelivers(t *testing.T) {
	direct, err := vsensor.Run(netTestSrc, vsensor.Options{Ranks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := netsrv.Listen("127.0.0.1:0", netsrv.Config{Shards: server.DefaultShards})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rep, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Connect: svc.Addr().String(), RunID: "resilient-remote",
		Reconnect: &netsrv.ReconnectConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server != nil {
		t.Fatal("Connect+Reconnect run should have no local server")
	}
	if rep.Resilient == nil || rep.Link == nil {
		t.Fatal("Connect+Reconnect run missing resilient session/link")
	}
	ten := svc.Tenant("resilient-remote")
	if ten == nil {
		t.Fatalf("remote tenant missing (runs: %v)", svc.RunIDs())
	}
	sameRecords(t, sortedRecords(ten.Records()), sortedRecords(direct.Server.Records()))
	if !ten.Coverage().Complete() {
		t.Fatalf("remote coverage incomplete: %+v", ten.Coverage())
	}
}

// With Obs attached, a Connect run's /status must surface the network
// layer in place of a server snapshot: the service's address and the
// session's reconnect ledger. The service's accept/session counters land
// in the /metrics of the Obs it was given.
func TestConnectModeStatusExposesNet(t *testing.T) {
	o, so := obs.New(), obs.New()
	svc := serveTenant(t, server.NewSharded(0), so)
	if _, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Connect: svc.Addr().String(), RunID: "status-run", Obs: o,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(o.Handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	var st struct {
		Run struct {
			Remote    string                 `json:"remote"`
			Reconnect *netsrv.ResilientStats `json:"reconnect"`
		} `json:"run"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st.Run.Remote != svc.Addr().String() {
		t.Errorf("/status remote = %q, want %q", st.Run.Remote, svc.Addr())
	}
	if st.Run.Reconnect == nil || st.Run.Reconnect.DialAttempts != 1 || st.Run.Reconnect.LSN == 0 {
		t.Errorf("/status reconnect = %+v, want one dial and a durable position", st.Run.Reconnect)
	}

	rec := httptest.NewRecorder()
	so.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "net_accepted_total 1") {
		t.Errorf("service /metrics missing net_accepted_total:\n%s", rec.Body)
	}
}

// The Connect option-combination errors must surface before any
// execution happens.
func TestNetworkedOptionValidation(t *testing.T) {
	if _, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 2, Connect: "127.0.0.1:1", Durability: &server.DurabilityConfig{},
	}); err == nil || !strings.Contains(err.Error(), "Durability") {
		t.Errorf("Connect+Durability error = %v", err)
	}
	if _, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 2, Reconnect: &netsrv.ReconnectConfig{},
	}); err == nil || !strings.Contains(err.Error(), "Reconnect") {
		t.Errorf("Reconnect without network error = %v", err)
	}
	// A refused/unreachable first dial is an error, not a hang: the
	// self-healing session only retries network errors once the service
	// has accepted it.
	start := time.Now()
	if _, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 2, Connect: "127.0.0.1:1",
	}); err == nil {
		t.Error("unreachable Connect address did not error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("unreachable Connect address took %v to fail, want fail-fast", d)
	}
}
