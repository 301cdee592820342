// kvstore-audit: audit two PM key-value stores (the Fast-Fair B+-tree and
// the TurboHash hash table) under a realistic YCSB workload, the way a
// developer would integrate HawkSet into their test cycle (§5.3 argues small
// testing times enable exactly this).
//
// The example runs each store's buggy and fixed variants, prints the
// classified reports, and shows how the TurboHash bug only appears once the
// workload is large enough to fill buckets past their first cache line
// (§5.1: "this bug manifested only in the largest workload we tested").
//
//	go run ./examples/kvstore-audit
package main

import (
	"fmt"
	"log"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"

	_ "hawkset/internal/apps/fastfair"
	_ "hawkset/internal/apps/turbohash"
)

func main() {
	audit("Fast-Fair", 4000)
	fmt.Println()
	audit("TurboHash", 20000)
	fmt.Println()
	coverageDemo()
}

func audit(name string, ops int) {
	e, err := apps.Lookup(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== auditing %s (%d ops, 8 threads) ===\n", name, ops)
	for _, fixed := range []bool{false, true} {
		res, err := apps.Detect(e, e.Workload(ops, 42), apps.RunConfig{Seed: 42, Fixed: fixed}, hawkset.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		variant := "buggy"
		if fixed {
			variant = "fixed"
		}
		bd := apps.Breakdown(e, res)
		fmt.Printf("%s variant: %d reports (%d malign, %d benign, %d FP)\n",
			variant, len(res.Reports), bd[apps.Malign], bd[apps.Benign], bd[apps.FalsePositive])
		if !fixed {
			for _, id := range apps.FoundBugs(e, res) {
				for _, b := range e.Bugs {
					if b.ID == id {
						fmt.Printf("  bug #%d: %s\n", id, b.Description)
						break
					}
				}
			}
			for _, r := range res.Reports {
				if e.Classify(r) == apps.Malign {
					fmt.Printf("    %s\n", r)
				}
			}
		}
	}
}

// coverageDemo shows the workload-coverage dependence of bug #3.
func coverageDemo() {
	e, err := apps.Lookup("TurboHash")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== TurboHash bug #3 needs coverage (buckets must fill) ===")
	for _, ops := range []int{1000, 5000, 20000} {
		res, err := apps.Detect(e, e.Workload(ops, 42), apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		found := "not found"
		for _, id := range apps.FoundBugs(e, res) {
			if id == 3 {
				found = "FOUND"
			}
		}
		fmt.Printf("  %6d ops: bug #3 %s\n", ops, found)
	}
}
