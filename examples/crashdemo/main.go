// crashdemo: from race report to demonstrated data loss.
//
// The example runs the buggy Fast-Fair under a workload, shows HawkSet's
// race reports, then inspects the crash image: the unpersisted root-pointer
// swap (bug #2) orphans the entire post-growth tree, and torn splits
// (bug #1) leave dangling or duplicated child pointers. The Fixed variant's
// image validates clean — the repair suggested by the race reports is
// exactly persisting the flagged stores.
//
//	go run ./examples/crashdemo
package main

import (
	"fmt"
	"log"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"

	_ "hawkset/internal/apps/fastfair"
)

func main() {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		log.Fatal(err)
	}
	const ops, seed = 4000, 42

	fmt.Println("=== step 1: HawkSet reports the races (no crash needed) ===")
	res, err := apps.Detect(e, e.Workload(ops, seed), apps.RunConfig{Seed: seed}, hawkset.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Reports {
		if e.Classify(r) == apps.Malign {
			fmt.Printf("  [MR] %s\n", r)
		}
	}

	fmt.Println("\n=== step 2: the crash image proves the loss ===")
	violations, err := apps.RunAndValidate(e, ops, seed, apps.RunConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range violations {
		if i >= 8 {
			fmt.Printf("  ... and %d more violations\n", len(violations)-i)
			break
		}
		fmt.Printf("  %s\n", v)
	}

	fmt.Println("\n=== step 3: persisting the flagged stores fixes it ===")
	fixed, err := apps.RunAndValidate(e, ops, seed, apps.RunConfig{Seed: seed, Fixed: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fixed variant violations: %d\n", len(fixed))
}
