// Command quickstart runs the vSensor pipeline end-to-end on a tiny
// program: identify fixed-workload snippets, instrument them, execute on a
// simulated 8-rank cluster, and print the identification results, the
// instrumented source, and the run summary.
package main

import (
	"fmt"
	"log"
	"time"

	vsensor "vsensor"
	"vsensor/internal/analysis"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
)

const src = `
global int STEPS = 40;

func kernel(int n) {
    for (int i = 0; i < n; i++) {
        flops(2000);
        mem(500);
    }
}

func exchange(int rank, int size) {
    int peer = rank + 1;
    if (rank % 2 == 1) {
        peer = rank - 1;
    }
    if (peer >= size) {
        peer = rank;
    }
    mpi_sendrecv(peer, 4096, 1.0);
}

func main() {
    int rank = mpi_comm_rank();
    int size = mpi_comm_size();
    for (int step = 0; step < STEPS; step++) {
        kernel(32);
        exchange(rank, size);
        mpi_allreduce(16, 1.0);
    }
}
`

func main() {
	// Step 1-2: compile and identify v-sensors (paper §3).
	res, err := vsensor.Analyze(src, analysis.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snippets: %d   v-sensors: %d   global v-sensors: %d\n",
		len(res.Snippets), len(res.Sensors), len(res.GlobalSensors))
	for _, s := range res.GlobalSensors {
		fmt.Printf("  global sensor %-4s in %-10s type=%-4s processFixed=%v deps=%s\n",
			s.ID(), s.Func.Name, s.Type, s.ProcessFixed, s.Deps)
	}

	// Step 3-4: map to source and instrument (paper §4).
	instrumented, err := vsensor.InstrumentSource(src, analysis.Config{}, instrument.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- instrumented source ---")
	fmt.Println(instrumented)

	// Step 5-8: run, analyze on-line, report (paper §5).
	rep, err := vsensor.Run(src, vsensor.Options{Ranks: 8, CollectRecords: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- run summary ---\n")
	fmt.Printf("virtual execution time: %.3f ms\n", rep.TotalSeconds()*1e3)
	fmt.Printf("instrumented sensors:   %s\n", rep.Instrumented.TypeSummary())
	fmt.Printf("records collected:      %d\n", len(rep.Records))
	fmt.Printf("data sent to server:    %d bytes in %d messages\n",
		rep.DataVolume(), rep.Server.Progress().Messages)
	d := rep.Distribution()
	fmt.Printf("sense coverage:         %.1f%%\n", d.Coverage()*100)
	fmt.Printf("sense frequency:        %.1f kHz\n", d.FrequencyHz()/1e3)
	fmt.Printf("variance events:        %d (clean cluster)\n", len(rep.Events()))

	if m := rep.Matrices(500 * time.Microsecond)[ir.Computation]; m != nil {
		fmt.Println("\n--- computation performance matrix ---")
		fmt.Print(m.ASCII(16, 64))
	}
}
