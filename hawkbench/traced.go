package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/pmrt"
	"hawkset/internal/report"
	"hawkset/internal/trace"
	"hawkset/internal/ycsb"
)

// traced is the per-layer run. Each iteration runs the CLI once untraced,
// for the run_s that trace_overhead_s is taken against, then does the same
// work in-process with a span around each layer call. Medians over the
// iterations are reported; exact counts must repeat in every iteration.
func (b *bench) traced(d time.Duration) (*result, error) {
	if err := b.setup(); err != nil {
		return nil, err
	}
	var (
		iters    []map[string]float64
		runS     []float64
		profiles []string
		failed   int
	)
	for deadline := time.Now().Add(d); len(iters)+failed == 0 || time.Now().Before(deadline); {
		s, err := b.measureCLI()
		if err == nil {
			prof := filepath.Join(b.dir, fmt.Sprintf("exec-%d.pprof", len(profiles)))
			var v map[string]float64
			if v, err = b.layers(prof); err == nil {
				profiles = append(profiles, prof)
				err = sameCounts(v, iters)
			}
			if err == nil {
				iters = append(iters, v)
				runS = append(runS, s.wall.Seconds())
			}
		}
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "hawkbench: traced iteration failed:", err)
		}
	}
	vals := map[string]float64{}
	for _, m := range append(perLayer, metric{name: "traced_s"}) {
		xs := make([]float64, len(iters))
		for i, v := range iters {
			xs[i] = v[m.name]
		}
		vals[m.name] = median(xs)
	}
	vals["ycsb.generate_s"] = median(seconds(b.setupGen))
	vals["trace_overhead_s"] = vals["traced_s"] - median(runS)
	if len(iters) > 0 {
		shares, err := execShares(profiles)
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			vals["exec.share."+k] = v
		}
	}
	attempted := len(iters) + failed
	fmt.Fprintf(os.Stderr, "%s seed=%d traced: %d iterations, error_rate %.4f ratio, untraced run_s %.6f s, traced on-path %.6f s\n",
		b.wl.name, b.seed, attempted, float64(failed)/float64(attempted), median(runS), vals["traced_s"])
	printTable(perLayer, vals)
	return newResult(perLayer, vals, attempted, failed), nil
}

// sameCounts requires v's exact counts to equal those of the first
// iteration.
func sameCounts(v map[string]float64, iters []map[string]float64) error {
	if len(iters) == 0 {
		return nil
	}
	for _, k := range exact {
		if v[k] != iters[0][k] {
			return fmt.Errorf("%s = %v, first iteration had %v", k, v[k], iters[0][k])
		}
	}
	return nil
}

// span is one timed layer call with the heap allocation and GC cycles it
// caused.
type span struct {
	d       time.Duration
	allocMB float64
	gcs     uint32
}

func timed(f func() error) (span, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return span{d: d, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), gcs: m1.NumGC - m0.NumGC}, err
}

// layers does one traced iteration and returns its per-layer values, plus
// "traced_s": the wall time of the spans on the CLI's path, measured with
// one clock around them. On detect workloads that path is ycsb.Load →
// apps.Run → Stream.Feed loop → Stream.Finish → report; on reanalyze it is
// decode+Feed → Finish → report. Everything else — encode, the NoTrace
// ablation, the profiled execution and the decode-only pass — runs after it.
// cpuProfile receives the CPU profile of one extra apps.Run.
func (b *bench) layers(cpuProfile string) (map[string]float64, error) {
	v := map[string]float64{}
	reg := obs.NewRegistry()
	cfg := hawkset.DefaultConfig()
	cfg.Metrics = reg

	var w *ycsb.Workload
	var tr *trace.Trace
	var st *hawkset.Stream
	var err error
	runtime.GC()
	start := time.Now()
	if b.wl.reanalyze {
		feed, err := timed(func() (err error) { st, err = feedFile(b.tracePath, cfg); return err })
		if err != nil {
			return nil, err
		}
		v["replay.s"], v["replay.alloc_mb"] = feed.d.Seconds(), feed.allocMB // less decode-only, below
	} else {
		load, err := timed(func() (err error) { w, err = loadWorkload(b.workloadPath); return err })
		if err != nil {
			return nil, err
		}
		v["ycsb.load_s"] = load.d.Seconds()
		if tr, err = b.exec(w, v); err != nil {
			return nil, err
		}
		feed, err := timed(func() error {
			st = hawkset.NewStream(tr.Sites, cfg)
			for _, e := range tr.Events {
				if err := st.Feed(e); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		v["replay.s"], v["replay.alloc_mb"] = feed.d.Seconds(), feed.allocMB
	}
	var res *hawkset.Result
	fin, err := timed(func() (err error) { res, err = st.Finish(); return err })
	if err != nil {
		return nil, err
	}
	v["analyze.s"] = fin.d.Seconds()
	var rep []byte
	rs, err := timed(func() (err error) { rep, err = b.writeReport(res); return err })
	if err != nil {
		return nil, err
	}
	v["report.s"] = rs.d.Seconds()
	v["traced_s"] = time.Since(start).Seconds()

	if err := b.checkReport(rep); err != nil {
		return nil, fmt.Errorf("in-process report: %w", err)
	}
	if got := fmt.Sprint(apps.FoundBugs(b.entry, res)); got != b.wantBugs {
		return nil, fmt.Errorf("in-process matched bugs %s, want %s", got, b.wantBugs)
	}
	v["report.bytes"] = float64(len(rep))
	s := res.Stats
	v["replay.store_records"] = float64(s.StoreRecords)
	v["replay.load_records"] = float64(s.LoadRecords)
	v["replay.dedup_ratio"] = float64(s.StoreRecords+s.LoadRecords) / float64(s.DynamicStores+s.DynamicLoads)
	v["analyze.pairs_checked"] = float64(s.PairsChecked)
	v["analyze.pairs_hb_filtered"] = float64(s.PairsHBFiltered)
	v["analyze.pairs_lock_filtered"] = float64(s.PairsLockFiltered)
	v["analyze.reports"] = float64(len(res.Reports))
	v["analyze.report_ratio"] = float64(len(res.Reports)) / float64(s.PairsChecked)
	shardStats(reg.Snapshot(), v)
	res, st = nil, nil

	// Off the CLI's path from here on.
	if b.wl.reanalyze {
		if w, err = loadWorkload(b.workloadPath); err != nil {
			return nil, err
		}
		runtime.GC()
		if tr, err = b.exec(w, v); err != nil {
			return nil, err
		}
	}
	encoded := filepath.Join(b.dir, "traced.hwkt")
	if err := encodeFile(encoded, tr, v); err != nil {
		return nil, err
	}
	if b.wl.reanalyze {
		// The in-process trace must be the trace the CLI captured.
		sum := b.traceSum
		if err := sameFile(encoded, &sum); err != nil {
			return nil, err
		}
	}
	// Drop the trace so the ablation and profiled runs start from the heap
	// the measured execution started from.
	tr = nil
	if err := b.ablate(w, v); err != nil {
		return nil, err
	}
	if err := b.profile(w, cpuProfile, v); err != nil {
		return nil, err
	}
	runtime.GC()
	dec, err := timed(func() error { return decodeFile(encoded, int(v["exec.events"])) })
	if err != nil {
		return nil, err
	}
	v["trace.decode_s"] = dec.d.Seconds()
	v["trace.decode_ns_per_event"] = float64(dec.d.Nanoseconds()) / v["exec.events"]
	if b.wl.reanalyze {
		v["replay.s"] -= dec.d.Seconds()
		v["replay.alloc_mb"] -= dec.allocMB
	}
	v["replay.ns_per_event"] = v["replay.s"] * 1e9 / v["exec.events"]
	return v, nil
}

// exec runs the workload the way the CLI does and records the execution
// layer's span and work counts.
func (b *bench) exec(w *ycsb.Workload, v map[string]float64) (*trace.Trace, error) {
	var rt *pmrt.Runtime
	sp, err := timed(func() (err error) { rt, err = apps.Run(b.entry, w, apps.RunConfig{Seed: b.seed}); return err })
	if err != nil {
		return nil, fmt.Errorf("apps.Run: %w", err)
	}
	v["exec.s"] = sp.d.Seconds()
	v["exec.alloc_mb"] = sp.allocMB
	v["exec.gc_cycles"] = float64(sp.gcs)
	v["exec.events"] = float64(rt.Trace.Len())
	v["exec.ns_per_event"] = float64(sp.d.Nanoseconds()) / v["exec.events"]
	v["sched.steps"] = float64(rt.Sched.Steps())
	v["sites.frames"] = float64(rt.Trace.Sites.Len())
	return rt.Trace, nil
}

// ablate runs the workload with trace retention off; the difference to
// exec.s is what retaining the trace costs.
func (b *bench) ablate(w *ycsb.Workload, v map[string]float64) error {
	runtime.GC()
	sp, err := timed(func() error {
		_, err := apps.Run(b.entry, w, apps.RunConfig{Seed: b.seed, NoTrace: true})
		return err
	})
	if err != nil {
		return fmt.Errorf("apps.Run with NoTrace: %w", err)
	}
	v["exec.retain_s"] = v["exec.s"] - sp.d.Seconds()
	return nil
}

// profile runs the workload once more under the CPU profiler, with the
// device and runtime counters on.
func (b *bench) profile(w *ycsb.Workload, path string, v map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	reg := obs.NewRegistry()
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	_, err = apps.Run(b.entry, w, apps.RunConfig{Seed: b.seed, Metrics: reg})
	pprof.StopCPUProfile()
	if err != nil {
		return fmt.Errorf("profiled apps.Run: %w", err)
	}
	v["pmem.stores"] = float64(reg.Counter("pmem.stores").Value())
	v["pmem.flushes"] = float64(reg.Counter("pmem.flushes").Value())
	v["pmem.fences"] = float64(reg.Counter("pmem.fences").Value())
	return f.Close()
}

func loadWorkload(path string) (*ycsb.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ycsb.Load(f)
}

// feedFile streams a trace file into a new Stream, as `hawkset -trace-in`
// does.
func feedFile(path string, cfg hawkset.Config) (*hawkset.Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		return nil, err
	}
	st := hawkset.NewStream(dec.Sites(), cfg)
	for {
		e, err := dec.Next()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, err
		}
		if err := st.Feed(e); err != nil {
			return nil, err
		}
	}
}

// decodeFile decodes a trace file without analysing it and checks the
// event count.
func decodeFile(path string, want int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		return err
	}
	n := 0
	for {
		_, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n++
	}
	if n != want {
		return fmt.Errorf("decoded %d events, executed %d", n, want)
	}
	return nil
}

// encodeFile writes the trace in the default format, as -trace-out does.
func encodeFile(path string, tr *trace.Trace, v map[string]float64) error {
	sp, err := timed(func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.EncodeWith(f, tr, trace.Options{}); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	v["trace.encode_s"] = sp.d.Seconds()
	v["trace.bytes"] = float64(fi.Size())
	v["trace.bytes_per_event"] = float64(fi.Size()) / float64(tr.Len())
	return nil
}

// writeReport writes the JSON report the CLI's -json flag writes and returns
// its bytes.
func (b *bench) writeReport(res *hawkset.Result) ([]byte, error) {
	label := fmt.Sprintf("ycsb ops=%d seed=%d", b.wl.ops, b.seed)
	classify := func(r hawkset.Report) string { return b.entry.Classify(r).String() }
	doc := report.New(res, b.entry.Name, label, classify)
	path := filepath.Join(b.dir, "traced.json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := doc.WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// shardStats reads stage ③'s per-shard times from the obs registry. A
// stage ③ that records no shard spans runs as one shard.
func shardStats(snap *obs.Snapshot, v map[string]float64) {
	v["analyze.shard_max_s"], v["analyze.shard_imbalance"] = v["analyze.s"], 1
	for _, d := range snap.Durations {
		if d.Name == "hawkset.stage.analyze_shard" && d.Count > 0 && d.TotalNS > 0 {
			v["analyze.shard_max_s"] = float64(d.MaxNS) / 1e9
			v["analyze.shard_imbalance"] = float64(d.MaxNS) / (float64(d.TotalNS) / float64(d.Count))
		}
	}
	for _, g := range snap.Gauges {
		switch g.Name {
		case "hawkset.replay.open_stores":
			v["replay.open_stores_max"] = float64(g.Max)
		case "hawkset.replay.lines":
			v["replay.lines_max"] = float64(g.Max)
		}
	}
}

// execShares attributes the profiled executions' CPU samples to layers.
// A sample under a GC frame is gc. Otherwise it belongs to the innermost
// hawkset package on its stack when that is sites, sched or pmem, so
// runtime.Caller under sites.(*Table).Here counts as sites. A sample with
// no hawkset frame that runs the goroutine scheduler (runtime.schedule,
// park_m, mcall) is sched: inside apps.Run goroutine switches are sched
// handoffs. Each share is over all samples.
func execShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-sample_index=samples"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{"sites": 0, "sched": 0, "pmem": 0, "gc": 0}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	var count float64
	var stack []string
	flush := func() {
		total += count
		if layer := attribute(stack); layer != "" {
			shares[layer] += count
		}
		count, stack = 0, stack[:0]
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if n, err := strconv.ParseFloat(f[0], 64); err == nil && len(f) >= 2 && len(stack) == 0 {
			count, f = n, f[1:]
		}
		stack = append(stack, f[0])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading go tool pprof output: %w", err)
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("CPU profiles of apps.Run hold no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// attribute names the layer a sample's stack (innermost frame first)
// belongs to, or "" for none of sites, sched, pmem and gc.
func attribute(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, "hawkset/internal/"); ok {
			pkg = pkg[:strings.IndexAny(pkg+".", "./")]
			if slices.Contains([]string{"sites", "sched", "pmem"}, pkg) {
				return pkg
			}
			return ""
		}
	}
	for _, fn := range stack {
		if fn == "runtime.schedule" || fn == "runtime.park_m" || fn == "runtime.mcall" {
			return "sched"
		}
	}
	return ""
}
