package validate

import (
	"sync"
	"testing"

	"vsensor/internal/analysis"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
	"vsensor/internal/vm"
)

func buildIns(t *testing.T, src string) *instrument.Instrumented {
	t.Helper()
	prog, err := ir.Build(minic.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return instrument.Apply(analysis.Analyze(prog), instrument.Config{})
}

const validSrc = `
func main() {
    for (int n = 0; n < 10; n++) {
        for (int k = 0; k < 5; k++) {
            flops(100);
        }
        mpi_allreduce(64, 1.0);
    }
}`

func TestRecordsCleanValidation(t *testing.T) {
	ins := buildIns(t, validSrc)
	var compID = -1
	for _, s := range ins.Sensors {
		if s.Type == ir.Computation {
			compID = s.ID
		}
	}
	if compID < 0 {
		t.Fatal("no computation sensor")
	}
	var recs []vm.Record
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 10; i++ {
			recs = append(recs, vm.Record{Sensor: compID, Rank: rank, Instr: 500})
		}
	}
	res := Records(ins, recs, 1.02)
	if res.Pm != 1 || res.WorkloadMaxError() != 0 {
		t.Errorf("Pm = %v", res.Pm)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations = %+v", res.Violations)
	}
	if len(res.PerSensor) != 2 {
		t.Errorf("per-sensor entries = %d", len(res.PerSensor))
	}
}

func TestRecordsDetectsJitterAndViolation(t *testing.T) {
	ins := buildIns(t, validSrc)
	compID := -1
	for _, s := range ins.Sensors {
		if s.Type == ir.Computation {
			compID = s.ID
		}
	}
	recs := []vm.Record{
		{Sensor: compID, Rank: 0, Instr: 1000},
		{Sensor: compID, Rank: 0, Instr: 1005}, // 0.5% jitter: fine
		{Sensor: compID, Rank: 0, Instr: 1015}, // 1.5%: inside the 2% band
		{Sensor: compID, Rank: 1, Instr: 1000},
		{Sensor: compID, Rank: 1, Instr: 1500}, // 50%: a violation
	}
	res := Records(ins, recs, 1.02)
	if res.Pm < 1.49 || res.Pm > 1.51 {
		t.Errorf("Pm = %v", res.Pm)
	}
	if len(res.Violations) != 1 || res.Violations[0].Rank != 1 {
		t.Errorf("violations = %+v", res.Violations)
	}
}

func TestRecordsIgnoresNetworkSensors(t *testing.T) {
	ins := buildIns(t, validSrc)
	netID := -1
	for _, s := range ins.Sensors {
		if s.Type == ir.Network {
			netID = s.ID
		}
	}
	recs := []vm.Record{
		{Sensor: netID, Rank: 0, Instr: 2},
		{Sensor: netID, Rank: 0, Instr: 3}, // tiny counts: excluded
	}
	res := Records(ins, recs, 1.02)
	if res.Pm != 1 || len(res.PerSensor) != 0 {
		t.Errorf("network sensor leaked into PMU validation: %+v", res)
	}
}

func TestNetSizes(t *testing.T) {
	fixed, v := NetSizes([]vm.Event{
		{Rank: 0, Kind: vm.EvNet, Op: "mpi_send", Bytes: 4096},
		{Rank: 0, Kind: vm.EvNet, Op: "mpi_send", Bytes: 4096},
		{Rank: 0, Kind: vm.EvIO, Op: "io_write", Bytes: 1}, // ignored
		{Rank: 1, Kind: vm.EvNet, Op: "mpi_send", Bytes: 8192},
	})
	if !fixed || len(v) != 0 {
		t.Errorf("fixed=%v v=%v", fixed, v)
	}
	fixed, v = NetSizes([]vm.Event{
		{Rank: 0, Kind: vm.EvNet, Op: "mpi_send", Bytes: 4096},
		{Rank: 0, Kind: vm.EvNet, Op: "mpi_send", Bytes: 5000},
	})
	if fixed || len(v) != 1 {
		t.Errorf("varying sizes not flagged: fixed=%v v=%v", fixed, v)
	}
}

// End-to-end: a real run through the VM validates clean with jitter inside
// tolerance.
func TestEndToEndValidation(t *testing.T) {
	ins := buildIns(t, validSrc)
	type collector struct {
		mu   sync.Mutex
		recs []vm.Record
	}
	col := &collector{}
	m := vm.NewInstrumented(ins, vm.Config{
		Ranks:        2,
		PMUJitterPct: 0.005,
		SinkFactory: func(int) vm.Sink {
			return sinkFunc(func(r vm.Record) {
				col.mu.Lock()
				col.recs = append(col.recs, r)
				col.mu.Unlock()
			})
		},
	})
	if err := m.Run().Err(); err != nil {
		t.Fatal(err)
	}
	res := Records(ins, col.recs, 1.02)
	if len(res.Violations) != 0 {
		t.Errorf("violations on a clean run: %+v", res.Violations)
	}
	if res.Pm <= 1.0 {
		t.Errorf("jitter should produce Pm > 1: %v", res.Pm)
	}
	// 2x jitter plus integer-rounding slack on few-hundred-instruction
	// counts.
	if res.WorkloadMaxError() > 0.013 {
		t.Errorf("workload error %v exceeds 2x jitter + rounding", res.WorkloadMaxError())
	}
}

type sinkFunc func(vm.Record)

func (f sinkFunc) OnRecord(r vm.Record) { f(r) }
