package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the schema test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSchema checks that BENCHMARK.json names exactly the workloads and
// metrics hawkbench prints, with the same units, and that every end-to-end
// metric has a regression bound.
func TestSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, hawkbench runs %v", names, want)
	}

	declared := map[string]string{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = m.Unit
		if m.Unit == "" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v; want a unit and a bound in (0, 0.25]", m.Name, m.Unit, m.Bound)
		}
	}
	checkPrinted(t, "end_to_end", newResult(endToEnd, nil, 1, 0), declared)

	declared = map[string]string{}
	for _, m := range bf.PerLayer {
		declared[m.Name] = m.Unit
	}
	checkPrinted(t, "per_layer", newResult(perLayer, nil, 1, 0), declared)
}

// checkPrinted requires the metrics of a printed result to be exactly the
// declared ones, with the declared units and valid names.
func checkPrinted(t *testing.T, section string, r *result, declared map[string]string) {
	t.Helper()
	for name, v := range r.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric %q: name outside [A-Za-z0-9_.-]", name)
		}
		unit, ok := declared[name]
		if !ok {
			t.Errorf("metric %s is printed but not in BENCHMARK.json %s", name, section)
		} else if unit != v.Unit {
			t.Errorf("metric %s: printed unit %q, BENCHMARK.json says %q", name, v.Unit, unit)
		}
	}
	for name := range declared {
		if _, ok := r.Metrics[name]; !ok {
			t.Errorf("BENCHMARK.json %s names %s, which hawkbench does not print", section, name)
		}
	}
}

// TestDeterminism runs the traced pipeline twice on one seed, on both the
// detect and the reanalyze path, and requires identical exact counts; a
// second seed must still match the full registered bug set, which layers
// checks itself.
func TestDeterminism(t *testing.T) {
	const ops = 1000
	counts := func(seed int64) []map[string]float64 {
		dir := t.TempDir()
		b, err := newBench(workload{name: "detect", app: "Fast-Fair", ops: ops}, seed, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.generate(); err != nil {
			t.Fatal(err)
		}
		var out []map[string]float64
		for i := 0; i < 2; i++ {
			v, err := b.layers(filepath.Join(dir, "cpu.pprof"))
			if err != nil {
				t.Fatalf("seed %d detect iteration %d: %v", seed, i, err)
			}
			out = append(out, v)
		}
		// Re-analyse the trace the detect path encoded.
		r, err := newBench(workload{name: "reanalyze", app: "Fast-Fair", ops: ops, reanalyze: true}, seed, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(dir, "traced.hwkt"), r.tracePath); err != nil {
			t.Fatal(err)
		}
		if err := sameFile(r.tracePath, &r.traceSum); err != nil {
			t.Fatal(err)
		}
		r.ref = b.ref
		v, err := r.layers(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			t.Fatalf("seed %d reanalyze: %v", seed, err)
		}
		return append(out, v)
	}

	runs := counts(7)
	for i, v := range runs[1:] {
		if err := sameCounts(v, runs[:1]); err != nil {
			t.Errorf("run %d: %v", i+1, err)
		}
	}
	known := map[string]bool{"traced_s": true}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for name := range runs[0] {
		if !known[name] {
			t.Errorf("layers reports %s, which is not a per-layer metric", name)
		}
	}
	for _, name := range exact {
		if _, ok := runs[0][name]; !ok {
			t.Errorf("layers does not report exact count %s", name)
		}
	}
	counts(8)
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.callers", "runtime.Caller", "hawkset/internal/sites.(*Table).Here", "hawkset/internal/pmrt.(*Ctx).Load8"}, "sites"},
		{[]string{"runtime.chansend1", "hawkset/internal/sched.(*Thread).Yield", "hawkset/internal/pmrt.(*Ctx).pre"}, "sched"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "hawkset/internal/pmem.(*Device).Store", "hawkset/internal/pmrt.(*Ctx).Store8"}, "pmem"},
		{[]string{"runtime.growslice", "hawkset/internal/trace.(*Trace).Append", "hawkset/internal/sites.(*Table).Here"}, ""},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
