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

// Listen mode is the same pipeline with the record path squeezed through
// the real wire protocol on loopback TCP: the run must see the identical
// record set, coverage, and data volume as the plain in-process run.
func TestListenModeMatchesInProcess(t *testing.T) {
	direct, err := vsensor.Run(netTestSrc, vsensor.Options{Ranks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	networked, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Listen: "127.0.0.1:0", RunID: "listen-mode",
	})
	if err != nil {
		t.Fatal(err)
	}
	if networked.Service == nil || networked.Resilient == nil || networked.Link == nil {
		t.Fatalf("Listen run missing net plumbing: service=%v resilient=%v link=%v",
			networked.Service, networked.Resilient, networked.Link)
	}
	if networked.Service.Tenant("listen-mode") != networked.Server {
		t.Fatal("service tenant is not the run's server")
	}
	sameRecords(t, sortedRecords(networked.Server.Records()), sortedRecords(direct.Server.Records()))
	if g, w := networked.Coverage(), direct.Coverage(); g.IngestedRecords != w.IngestedRecords || !g.Complete() {
		t.Fatalf("coverage differs: got %+v want %+v", g, w)
	}
	if g, w := networked.DataVolume(), direct.DataVolume(); g != w {
		t.Fatalf("data volume %d, want %d", g, w)
	}
	if st := networked.Service.Stats(); st.FramesIn == 0 || st.Sessions != 1 {
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
// resume bookkeeping shows up in Report.Resilient and the /status net
// block.
func TestReconnectModeMatchesInProcess(t *testing.T) {
	direct, err := vsensor.Run(netTestSrc, vsensor.Options{Ranks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	networked, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Listen: "127.0.0.1:0", RunID: "resilient-mode", Obs: o,
		Reconnect: &netsrv.ReconnectConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if networked.Resilient == nil || networked.Link == nil {
		t.Fatalf("Reconnect run plumbing wrong: resilient=%v link=%v", networked.Resilient, networked.Link)
	}
	sameRecords(t, sortedRecords(networked.Server.Records()), sortedRecords(direct.Server.Records()))
	if !networked.Coverage().Complete() {
		t.Fatalf("resilient coverage incomplete: %+v", networked.Coverage())
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

// With Obs attached, a Listen run's /status must surface the network
// layer next to the server snapshot: the bound address and the
// accept/shed/session counters, plus the service counters in /metrics.
func TestListenModeStatusExposesNet(t *testing.T) {
	o := obs.New()
	rep, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 4, Seed: 7, Listen: "127.0.0.1:0", RunID: "status-run", Obs: o,
	})
	if err != nil {
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
			Listen string         `json:"listen"`
			Net    map[string]any `json:"net"`
		} `json:"run"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st.Run.Listen != rep.Service.Addr().String() {
		t.Errorf("/status listen = %q, want %q", st.Run.Listen, rep.Service.Addr())
	}
	if acc, ok := st.Run.Net["accepted"].(float64); !ok || acc < 1 {
		t.Errorf("/status net.accepted = %v, want >= 1 (net: %v)", st.Run.Net["accepted"], st.Run.Net)
	}

	res, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(metrics), "net_accepted_total 1") {
		t.Errorf("/metrics missing net_accepted_total:\n%s", metrics)
	}
}

// The Listen/Connect option-combination errors must surface before any
// execution happens.
func TestNetworkedOptionValidation(t *testing.T) {
	if _, err := vsensor.Run(netTestSrc, vsensor.Options{
		Ranks: 2, Listen: "127.0.0.1:0", Connect: "127.0.0.1:1",
	}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("Listen+Connect error = %v", err)
	}
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
