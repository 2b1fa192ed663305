// Command iostorm demonstrates the third sensor component: IO. The
// checkpointing BT-IO mini app writes fixed-size snapshots every iteration;
// midway through the run the shared filesystem degrades (another job's IO
// storm). The IO performance matrix shows the window while computation and
// network stay clean, attributing the variance to the right component. The
// situation is the registry's scenario "iostorm-btio" (`vsensor scenario
// -matrix iostorm-btio` runs the same thing).
package main

import (
	"fmt"
	"log"
	"time"

	vsensor "vsensor"
	"vsensor/internal/ir"
)

func main() {
	rep, clean, err := vsensor.RunScenario("iostorm-btio", vsensor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean run: %.3f ms\n", clean.TotalSeconds()*1e3)
	fmt.Printf("with IO storm: %.3f ms\n\n", rep.TotalSeconds()*1e3)

	if m := rep.Matrices(2 * time.Millisecond)[ir.IO]; m != nil {
		fmt.Println("IO performance matrix:")
		fmt.Print(m.ASCII(16, 72))
	}
	fmt.Println()
	fmt.Print(rep.ReportText(2*time.Millisecond, 8))
}
