// Command hawkset runs a registered PM application under the instrumented
// runtime, applies HawkSet's PM-Aware Lockset Analysis to the recorded
// trace, and prints the persistency-induced race reports.
//
// Usage:
//
//	hawkset -app Fast-Fair -ops 10000 -seed 42
//	hawkset -app Memcached-pmem -ops 100000 -no-irh -stats
//	hawkset -app WIPE -trace-out wipe.hwkt        # capture a trace
//	hawkset -trace-in wipe.hwkt                   # re-analyze it later
//	hawkset -list                                 # show the application suite
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/obscli"
	"hawkset/internal/report"
	"hawkset/internal/trace"
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
		appName  = flag.String("app", "Fast-Fair", "application to test (see -list)")
		ops      = flag.Int("ops", 10000, "main-phase operations (8 threads)")
		seed     = flag.Int64("seed", 42, "workload and schedule seed")
		fixed    = flag.Bool("fixed", false, "run the defect-free variant")
		noIRH    = flag.Bool("no-irh", false, "disable the Initialization Removal Heuristic")
		noEff    = flag.Bool("no-effective-lockset", false, "ablation: traditional per-access locksets")
		noTS     = flag.Bool("no-timestamps", false, "ablation: untimestamped locksets")
		noHB     = flag.Bool("no-hb", false, "ablation: disable the happens-before filter")
		ss       = flag.Bool("store-store", false, "experimental: also report write-write pairs (classic Eraser behavior; §3.1.1 explains why HawkSet does not)")
		anaEADR  = flag.Bool("analysis-eadr", false, "analyze under eADR semantics (the §2.1 ablation: the race class is empty)")
		eadr     = flag.Bool("eadr", false, "run the device with a persistent cache (eADR)")
		stats    = flag.Bool("stats", false, "print analysis statistics")
		jsonOut  = flag.String("json", "", "write a machine-readable JSON report to this file (\"-\" for stdout)")
		list     = flag.Bool("list", false, "list registered applications and exit")
		wlIn     = flag.String("workload", "", "run this workload file instead of generating one")
		wlOut    = flag.String("workload-out", "", "save the generated workload to this file (reproducible corpus artifact)")
		traceOut = flag.String("trace-out", "", "write the captured trace to this file (format v2 by default)")
		traceIn  = flag.String("trace-in", "", "skip execution; analyze this trace file (v1 or v2, auto-detected)")
		traceFmt = flag.Int("trace-format", 2, "trace format version for -trace-out (1 or 2)")
		traceZip = flag.Bool("trace-compress", false, "flate-compress v2 trace blocks for -trace-out")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.StartPprof(); err != nil {
		fatal(err)
	}
	metrics := obsFlags.Registry()

	if *list {
		fmt.Println("Registered applications (Table 1):")
		for _, e := range apps.All() {
			fmt.Printf("  %-15s %d seeded bug(s)\n", e.Name, len(e.Bugs))
		}
		return
	}

	cfg := hawkset.DefaultConfig()
	cfg.IRH = !*noIRH
	cfg.EffectiveLockset = !*noEff
	cfg.Timestamps = !*noTS
	cfg.HBFilter = !*noHB
	cfg.StoreStore = *ss
	cfg.EADR = *anaEADR
	cfg.Metrics = metrics

	var entry *apps.Entry
	var res *hawkset.Result
	if *traceIn != "" {
		// A stored trace carries no application identity, so classification
		// is available only when -app is given explicitly; the report is then
		// labeled exactly as the in-process run would label it.
		if flagWasSet("app") {
			var err error
			entry, err = apps.Lookup(*appName)
			if err != nil {
				fatal(err)
			}
		}
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		dec, err := trace.NewDecoder(f)
		if err != nil {
			fatal(err)
		}
		// Stream decode → analysis: events flow straight into the stage-①/②
		// pipeline; the trace is never materialized as a []Event.
		st := hawkset.NewStream(dec.Sites(), cfg)
		nevents := 0
		maxTID := int32(-1)
		for {
			e, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(err)
			}
			nevents++
			if e.TID > maxTID {
				maxTID = e.TID
			}
			if (e.Kind == trace.KThreadCreate || e.Kind == trace.KThreadJoin) && e.Kid > maxTID {
				maxTID = e.Kid
			}
			if err := st.Feed(e); err != nil {
				fatal(err)
			}
		}
		f.Close()
		fmt.Printf("loaded trace (format v%d): %d events, %d threads\n", dec.Version(), nevents, maxTID+1)
		if res, err = st.Finish(); err != nil {
			fatal(err)
		}
		fmt.Printf("analysis: %v, %d store records, %d load records, %d pairs checked\n",
			time.Since(start).Round(time.Millisecond),
			res.Stats.StoreRecords, res.Stats.LoadRecords, res.Stats.PairsChecked)
	} else {
		var tr *trace.Trace
		var err error
		entry, err = apps.Lookup(*appName)
		if err != nil {
			fatal(err)
		}
		n := *ops
		if entry.MaxOps > 0 && n > entry.MaxOps {
			fmt.Printf("note: %s is capped at %d operations (§5)\n", entry.Name, entry.MaxOps)
			n = entry.MaxOps
		}
		var w *ycsb.Workload
		if *wlIn != "" {
			f, err := os.Open(*wlIn)
			if err != nil {
				fatal(err)
			}
			w, err = ycsb.Load(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("loaded workload %s: %d load ops, %d main ops, %d threads\n",
				w.Name, len(w.Load), w.TotalOps(), len(w.Threads))
		} else {
			w = ycsb.Generate(entry.Spec(n), *seed)
		}
		if *wlOut != "" {
			f, err := os.Create(*wlOut)
			if err != nil {
				fatal(err)
			}
			if err := ycsb.Save(f, w); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("workload written to %s\n", *wlOut)
		}
		start := time.Now()
		rt, err := apps.Run(entry, w, apps.RunConfig{Seed: *seed, Fixed: *fixed, EADR: *eadr, Metrics: metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("executed %s: %d ops, %d trace events in %v\n",
			entry.Name, w.TotalOps(), rt.Trace.Len(), time.Since(start).Round(time.Millisecond))
		tr = rt.Trace
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			opts := trace.Options{Version: *traceFmt, Compress: *traceZip}
			if err := trace.EncodeWith(f, tr, opts); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written to %s (format v%d)\n", *traceOut, *traceFmt)
		}

		start = time.Now()
		res = hawkset.Analyze(tr, cfg)
		fmt.Printf("analysis: %v, %d store records, %d load records, %d pairs checked\n",
			time.Since(start).Round(time.Millisecond),
			res.Stats.StoreRecords, res.Stats.LoadRecords, res.Stats.PairsChecked)
	}

	if *jsonOut != "" {
		var classify report.Classifier
		workload := fmt.Sprintf("ycsb ops=%d seed=%d", *ops, *seed)
		appName := ""
		if entry != nil {
			appName = entry.Name
			classify = func(r hawkset.Report) string { return entry.Classify(r).String() }
		}
		doc := report.New(res, appName, workload, classify)
		if *jsonOut == "-" {
			if err := doc.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatal(err)
			}
			if err := doc.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("JSON report written to %s\n", *jsonOut)
		}
	}

	fmt.Printf("\n%d persistency-induced race report(s):\n", len(res.Reports))
	for i, r := range res.Reports {
		class := ""
		if entry != nil {
			class = " [" + entry.Classify(r).String() + "]"
		}
		fmt.Printf("%3d. %s%s\n", i+1, r, class)
	}
	if entry != nil {
		if found := apps.FoundBugs(entry, res); len(found) > 0 {
			fmt.Printf("\nmatched paper bugs (Table 2): %v\n", found)
		}
	}
	if *stats {
		s := res.Stats
		fmt.Printf("\nstatistics:\n")
		fmt.Printf("  events              %d\n", s.Events)
		fmt.Printf("  PM accesses         %d\n", s.PMAccesses)
		fmt.Printf("  dynamic stores      %d (deduped to %d records)\n", s.DynamicStores, s.StoreRecords)
		fmt.Printf("  dynamic loads       %d (deduped to %d records)\n", s.DynamicLoads, s.LoadRecords)
		fmt.Printf("  IRH dropped         %d stores, %d loads\n", s.IRHDroppedStores, s.IRHDroppedLoads)
		fmt.Printf("  unpersisted at end  %d\n", s.UnpersistedAtEnd)
		fmt.Printf("  locksets interned   %d\n", s.LocksetsInterned)
		fmt.Printf("  vclocks interned    %d\n", s.VClocksInterned)
		fmt.Printf("  pairs checked       %d (HB-filtered %d, lock-protected %d)\n",
			s.PairsChecked, s.PairsHBFiltered, s.PairsLockFiltered)
	}
	if err := obsFlags.Dump(metrics); err != nil {
		fatal(err)
	}
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hawkset:", err)
	os.Exit(1)
}
