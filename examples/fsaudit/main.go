// fsaudit: run HawkSet against MadFS, the PM filesystem with *relaxed*
// crash-consistency guarantees, and inspect the crash image.
//
// MadFS defers block-table durability to an explicit fsync, so its
// persistency-induced races are benign by design — but HawkSet still
// reports them, demonstrating §5.1's point: the tool is application-
// agnostic and flags the races; deciding they are tolerated requires the
// application's contract, which no application-agnostic tool can know.
//
//	go run ./examples/fsaudit
package main

import (
	"fmt"
	"log"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"

	_ "hawkset/internal/apps/madfs"
)

func main() {
	e, err := apps.Lookup("MadFS")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== MadFS audit: 2000 zipfian 4 KiB writes, 8 threads ===")
	// The device's side-band counters report the crash image's dirty lines
	// without keeping the runtime around.
	metrics := obs.NewRegistry()
	res, err := apps.Detect(e, e.Workload(2000, 7), apps.RunConfig{Seed: 7, Metrics: metrics}, hawkset.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	bd := apps.Breakdown(e, res)
	fmt.Printf("%d reports: %d malign, %d benign, %d FP\n",
		len(res.Reports), bd[apps.Malign], bd[apps.Benign], bd[apps.FalsePositive])
	for _, r := range res.Reports {
		fmt.Printf("  [%s] %s\n", e.Classify(r), r)
	}
	fmt.Println()
	fmt.Println("every report is benign: readers may observe unpersisted block-table")
	fmt.Println("entries, but MadFS only promises durability after fsync — using it in")
	fmt.Println("a crash-consistent application without fsync would make these malign,")
	fmt.Println("which is exactly what HawkSet lets such an application's developer see.")

	// Crash-image inspection: the log is durable, the block table is not.
	fmt.Println()
	fmt.Printf("dirty cache lines at shutdown (never fsynced): %d\n", metrics.Gauge("pmem.dirty_lines").Value())
}
