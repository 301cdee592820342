package apps_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/report"
	"hawkset/internal/sites"
)

var updateGolden = flag.Bool("update", false, "rewrite the site-table golden of the current compile mode")

// Golden run parameters: small enough to keep the suite fast, large enough
// that every app reaches its multi-threaded phase.
const (
	goldenOps  = 300
	goldenSeed = 42
)

// TestSiteTableGolden pins, for every registered app, the sha256 of the JSON
// report and the ordered call-site table of one seeded, streaming run
// (apps.Detect), and requires the retained-trace path to give the same
// report. Site IDs are
// assigned in first-seen order, so the table catches any change to which
// frame call-site capture resolves, to the interning order, or to the
// dedup rule. Frames render as sites.ModuleRel(file):line:func, so the
// golden holds no absolute paths.
//
// Sites are interned per return PC, and an application helper that the
// compiler inlines into two callers has two return PCs for one source line
// (P-CLHT's loadRoot). So the tables legitimately depend on the compile
// mode, and each mode has its own golden: sitetables.golden for the default
// build, sitetables.noinline.golden for -gcflags=all=-l, which ci.sh also
// runs.
func TestSiteTableGolden(t *testing.T) {
	entries := append([]*apps.Entry(nil), apps.All()...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	var got bytes.Buffer
	for _, e := range entries {
		w := e.Workload(goldenOps, goldenSeed)
		workload := fmt.Sprintf("ycsb ops=%d seed=%d", w.TotalOps(), goldenSeed)
		res, err := apps.Detect(e, w, apps.RunConfig{Seed: goldenSeed}, hawkset.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		js := reportJSON(t, e, res, workload)
		// The retained-trace path, which -verify, crash injection and trace
		// capture still use, must give the same report.
		rt, err := apps.Run(e, w, apps.RunConfig{Seed: goldenSeed})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if off := reportJSON(t, e, hawkset.Analyze(rt.Trace, hawkset.DefaultConfig()), workload); !bytes.Equal(off, js) {
			t.Errorf("%s: apps.Run+hawkset.Analyze report differs from apps.Detect's", e.Name)
		}
		fmt.Fprintf(&got, "== %s report sha256 %x\n", e.Name, sha256.Sum256(js))
		for id, f := range res.Sites.Frames() {
			if id == 0 {
				continue
			}
			fmt.Fprintf(&got, "%d %s:%d:%s\n", id, sites.ModuleRel(f.File), f.Line, f.Func)
		}
	}

	path := filepath.Join("testdata", "sitetables.golden")
	if !inliningEnabled() {
		path = filepath.Join("testdata", "sitetables.noinline.golden")
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -run TestSiteTableGolden -update, with and without -gcflags=all=-l)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("site tables diverge from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// reportJSON renders res as the classified JSON report document.
func reportJSON(t *testing.T, e *apps.Entry, res *hawkset.Result, workload string) []byte {
	t.Helper()
	classify := func(r hawkset.Report) string { return e.Classify(r).String() }
	var js bytes.Buffer
	if err := report.New(res, e.Name, workload, classify).WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return js.Bytes()
}

// inliningEnabled reports whether this test binary was built with inlining:
// CallersFrames reports an inlined frame with a nil Func.
func inliningEnabled() bool {
	var pc [1]uintptr
	inlinableLeaf(pc[:])
	fr, _ := runtime.CallersFrames(pc[:]).Next()
	return fr.Func == nil
}

// inlinableLeaf stores its own return PC in pc; it is small enough that the
// compiler always inlines it unless inlining is disabled.
func inlinableLeaf(pc []uintptr) { runtime.Callers(1, pc) }
