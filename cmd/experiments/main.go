// Command experiments regenerates the paper's evaluation tables and figures
// (HawkSet, EuroSys 2025, §5) from the reproduction.
//
// Usage:
//
//	experiments -table2            # the 20 detected races
//	experiments -table3 -seeds 60  # PMRace comparison (240 seeds = paper scale)
//	experiments -fig6              # time/memory vs workload size
//	experiments -table4            # IRH effectiveness
//	experiments -all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hawkset/internal/apps"
	"hawkset/internal/baseline/durinn"
	"hawkset/internal/crashinject"
	"hawkset/internal/expmt"
	"hawkset/internal/obscli"
	"hawkset/internal/ycsb"

	_ "hawkset/internal/apps/apex"
	_ "hawkset/internal/apps/fastfair"
	_ "hawkset/internal/apps/madfs"
	_ "hawkset/internal/apps/memcachedpm"
	_ "hawkset/internal/apps/part"
	_ "hawkset/internal/apps/pclht"
	_ "hawkset/internal/apps/pmasstree"
	_ "hawkset/internal/apps/turbohash"
	_ "hawkset/internal/apps/wipe"
)

func main() {
	var (
		t2       = flag.Bool("table2", false, "run the bug-detection experiment (Table 2)")
		t3       = flag.Bool("table3", false, "run the PMRace comparison (Table 3)")
		t4       = flag.Bool("table4", false, "run the IRH classification (Table 4)")
		dur      = flag.Bool("durinn", false, "run the Durinn-style operation-level baseline (qualitative, §6.3)")
		auto     = flag.Bool("automation", false, "print the §5.5 automation/agnosticism table")
		f6       = flag.Bool("fig6", false, "run the scalability sweep (Figure 6)")
		crash    = flag.Bool("crash", false, "run the crash-point fault-injection sweep (app x strategy)")
		crOps    = flag.Int("crash-ops", 0, "workload size for the crash sweep (0 = per-app Table 2 sizes)")
		opt      = flag.Bool("opt", false, "run the flush/fence redundancy analysis and gated elimination (pmopt)")
		optOps   = flag.Int("opt-ops", 0, "workload size for the optimization sweep (0 = per-app Table 2 sizes)")
		optApps  = flag.String("opt-apps", "", "comma-separated app names for the optimization sweep (empty = all)")
		tfmt     = flag.Bool("tracefmt", false, "compare trace format versions (size, encode/decode throughput)")
		tfmtOps  = flag.Int("tracefmt-ops", 100000, "workload size for the trace-format comparison")
		all      = flag.Bool("all", false, "run everything")
		seeds    = flag.Int("seeds", 240, "seed-corpus size for Table 3 (paper: 240)")
		sizes    = flag.String("sizes", "1000,10000,100000", "workload sizes for Figure 6")
		seed     = flag.Int64("seed", 42, "base seed")
		progress = flag.Bool("progress", false, "print periodic crash-campaign progress lines to stderr")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.StartPprof(); err != nil {
		check(err)
	}
	metrics := obsFlags.Registry()
	expmt.Metrics = metrics
	if !*t2 && !*t3 && !*t4 && !*f6 && !*dur && !*auto && !*crash && !*opt && !*tfmt && !*all {
		flag.Usage()
		os.Exit(2)
	}

	if *t2 || *all {
		fmt.Println("== Table 2: persistency-induced races detected ==")
		rows, err := expmt.Table2(*seed)
		check(err)
		fmt.Println(expmt.FormatTable2(rows))
		found := 0
		for _, r := range rows {
			if r.Found {
				found++
			}
		}
		fmt.Printf("detected %d/%d paper bugs (7 new: #2,#3,#16-#20)\n\n", found, len(rows))
	}

	if *f6 || *all {
		fmt.Println("== Figure 6: testing time and peak memory vs workload size ==")
		var ns []int
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			check(err)
			ns = append(ns, n)
		}
		pts, err := expmt.Fig6(ns, *seed)
		check(err)
		fmt.Println(expmt.FormatFig6(pts))
	}

	if *t4 || *all {
		fmt.Println("== Table 4: Initialization Removal Heuristic ==")
		rows, err := expmt.Table4(*seed)
		check(err)
		fmt.Println(expmt.FormatTable4(rows))
	}

	if *crash || *all {
		fmt.Println("== Crash-point fault injection: points tested/failed per strategy ==")
		cfg := expmt.DefaultCrashTableConfig()
		cfg.Seed = *seed
		cfg.Ops = *crOps
		cfg.Metrics = metrics
		if *progress {
			cfg.OnProgress = func(p crashinject.Progress) {
				if p.Done {
					return // the table row reports the final numbers
				}
				fmt.Fprintf(os.Stderr, "experiments: %s %s campaign %d/%d points (%.1f pts/s)\n",
					p.Target, p.Strategy, p.Tested, p.Selected, p.PointsPerSec)
			}
		}
		rows, err := expmt.CrashTable(cfg)
		check(err)
		fmt.Println(expmt.FormatCrashTable(rows))
	}

	if *opt || *all {
		fmt.Println("== Flush/fence redundancy: candidates and gated elimination (pmopt) ==")
		cfg := expmt.DefaultOptTableConfig()
		cfg.Seed = *seed
		cfg.Ops = *optOps
		if *optApps != "" {
			for _, n := range strings.Split(*optApps, ",") {
				cfg.Apps = append(cfg.Apps, strings.TrimSpace(n))
			}
		}
		rows, err := expmt.OptTable(cfg)
		check(err)
		fmt.Println(expmt.FormatOptTable(rows))
	}

	if *tfmt || *all {
		fmt.Println("== Trace format: size and codec throughput per version ==")
		rows, err := expmt.TraceFmt([]string{"Fast-Fair", "Memcached-pmem"}, *tfmtOps, *seed)
		check(err)
		fmt.Println(expmt.FormatTraceFmt(rows))
	}

	if *auto || *all {
		fmt.Println("== §5.5 automation and application-agnosticism ==")
		fmt.Println(expmt.FormatAutomation(expmt.Automation()))
	}

	if *dur {
		fmt.Println("== Durinn-style operation-level baseline (§6.3) ==")
		for _, name := range []string{"P-Masstree", "Fast-Fair"} {
			e, err := apps.Lookup(name)
			check(err)
			spec := ycsb.DefaultSpec(400)
			spec.LoadCount = 150
			spec.KeySpace = 1 << 12
			w := ycsb.Generate(spec, *seed)
			res, err := durinn.Detect(e, w, durinn.DefaultConfig(*seed))
			check(err)
			fmt.Printf("%-12s pairs=%d executions=%d findings=%d elapsed=%s\n",
				name, res.PairsTried, res.Executions, len(res.Findings), res.Elapsed.Round(10e6))
			for i, f := range res.Findings {
				if i >= 5 {
					fmt.Printf("  ... and %d more\n", len(res.Findings)-i)
					break
				}
				fmt.Printf("  %v/%v key=%d bp=%d  store %s / load %s\n",
					f.Writer, f.Reader, f.Key, f.Breakpoint, f.StoreFrame, f.LoadFrame)
			}
		}
		fmt.Println("note: cost = pairs x breakpoints executions, each replaying the load")
		fmt.Println("phase; the same workloads take HawkSet one execution (Table 3).")
		fmt.Println()
	}

	if *t3 || *all {
		fmt.Printf("== Table 3: comparison with the observation-based baseline (%d seeds) ==\n", *seeds)
		cfg := expmt.DefaultTable3Config()
		cfg.Seeds = *seeds
		res, err := expmt.Table3(cfg)
		check(err)
		fmt.Println(expmt.FormatTable3(res))
	}

	check(obsFlags.Dump(metrics))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
