// Command hawkbench is the repository benchmark. An untraced run invokes the
// hawkset CLI, built unmodified from cmd/hawkset, once per sample in a closed
// loop (one run at a time, from one process) and reports end-to-end metrics.
// A traced run calls each layer's public functions in-process on the same
// inputs, times every call, and reports per-layer metrics.
//
// Run it from the repository root through run.sh:
//
//	sh hawkbench/run.sh --workload detect-fastfair --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when any
// run failed or any output check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed whose report digests are pinned in workloads.
const defaultSeed = 42

// workload is one benchmark input. The program receives only what set-up
// generates from the seed: a YCSB workload file, and for reanalyze a trace
// the CLI captured from it.
type workload struct {
	name string
	app  string
	ops  int
	// reanalyze runs `hawkset -trace-in` on a trace captured during set-up
	// instead of executing the workload.
	reanalyze bool
	// digest is the sha256 of the JSON report at defaultSeed.
	digest string
}

// Op counts keep one detect run near a second, so a 30 s run collects 20 or
// more samples. README.md records why each workload was chosen.
var workloads = []workload{
	{name: "detect-fastfair", app: "Fast-Fair", ops: 5000,
		digest: "c8742fe8ed819f2848418d48670ba53f35396b92acc3145abdfdd0d2e6cecff1"},
	{name: "detect-memcached", app: "Memcached-pmem", ops: 30000,
		digest: "45cfa24255bccd8dc8edfd4b7176e9c533793d40fa0a7e13204439748248cf5d"},
	{name: "reanalyze-fastfair", app: "Fast-Fair", ops: 5000, reanalyze: true,
		digest: "c8742fe8ed819f2848418d48670ba53f35396b92acc3145abdfdd0d2e6cecff1"},
}

type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metric{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (-trace 1).
var perLayer = []metric{
	{"ycsb.generate_s", "s"},
	{"ycsb.load_s", "s"},
	{"exec.s", "s"},
	{"exec.ns_per_event", "ns/event"},
	{"exec.alloc_mb", "MB"},
	{"exec.gc_cycles", "count"},
	{"exec.events", "count"},
	{"sched.steps", "count"},
	{"sites.frames", "count"},
	{"pmem.stores", "count"},
	{"pmem.flushes", "count"},
	{"pmem.fences", "count"},
	{"exec.retain_s", "s"},
	{"exec.share.sites", "ratio"},
	{"exec.share.sched", "ratio"},
	{"exec.share.pmem", "ratio"},
	{"exec.share.gc", "ratio"},
	{"trace.encode_s", "s"},
	{"trace.bytes", "bytes"},
	{"trace.bytes_per_event", "bytes/event"},
	{"trace.decode_s", "s"},
	{"trace.decode_ns_per_event", "ns/event"},
	{"replay.s", "s"},
	{"replay.ns_per_event", "ns/event"},
	{"replay.alloc_mb", "MB"},
	{"replay.store_records", "count"},
	{"replay.load_records", "count"},
	{"replay.dedup_ratio", "ratio"},
	{"replay.open_stores_max", "count"},
	{"replay.lines_max", "count"},
	{"analyze.s", "s"},
	{"analyze.shard_max_s", "s"},
	{"analyze.shard_imbalance", "ratio"},
	{"analyze.pairs_checked", "count"},
	{"analyze.pairs_hb_filtered", "count"},
	{"analyze.pairs_lock_filtered", "count"},
	{"analyze.reports", "count"},
	{"analyze.report_ratio", "ratio"},
	{"report.s", "s"},
	{"report.bytes", "bytes"},
	{"trace_overhead_s", "s"},
}

// exact are the per-layer metrics that count work; they must repeat exactly
// across iterations and runs with the same seed.
var exact = []string{
	"exec.events", "sched.steps", "sites.frames",
	"pmem.stores", "pmem.flushes", "pmem.fences",
	"trace.bytes", "trace.bytes_per_event",
	"replay.store_records", "replay.load_records", "replay.dedup_ratio",
	"replay.open_stores_max", "replay.lines_max",
	"analyze.pairs_checked", "analyze.pairs_hb_filtered", "analyze.pairs_lock_filtered",
	"analyze.reports", "analyze.report_ratio", "report.bytes",
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: detect-fastfair, detect-memcached or reanalyze-fastfair")
	seed := flag.Int64("seed", defaultSeed, "workload and schedule seed")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traced := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	flag.Parse()

	wl, err := lookupWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, not %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hawkbench:", err)
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hawkbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hawkbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run builds the CLI in the checkout (the working directory), measures one
// workload for d, and prints provenance and a human-readable summary before
// returning the result line.
func run(wl workload, seed int64, d time.Duration, traced bool) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := newBench(wl, seed, dir)
	if err != nil {
		return nil, err
	}
	if err := b.build(root, filepath.Join(out, "hawkset")); err != nil {
		return nil, err
	}
	prov, err := json.Marshal(provenance(root, wl, seed, traced))
	if err != nil {
		return nil, err
	}
	fmt.Printf("provenance %s\n", prov)
	if traced {
		return b.traced(d)
	}
	return b.untraced(d)
}

// provenance records what a result was measured on. Timings are only
// comparable between results with equal provenance apart from the seed.
func provenance(root string, wl workload, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":      wl.name,
		"app":           wl.app,
		"ops":           wl.ops,
		"seed":          seed,
		"traced":        traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": sourceDigest(root),
	}
}
