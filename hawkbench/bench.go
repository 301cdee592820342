package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/ycsb"

	_ "hawkset/internal/apps/fastfair"
	_ "hawkset/internal/apps/memcachedpm"
)

// A run repeats its set-up at least setupReps times and for at least
// setupTime; setup_s is the median. Cheap set-ups thus get enough
// repetitions for a steady median.
const (
	setupReps = 5
	setupTime = time.Second
)

// bench holds one run's inputs, its scratch directory and the reference
// outputs every sample is checked against.
type bench struct {
	wl    workload
	entry *apps.Entry
	seed  int64
	dir   string
	cli   string // hawkset binary, set by build

	workloadPath, tracePath, reportPath string

	// wantBugs is the entry's full registered bug set as the CLI prints it.
	wantBugs string
	// ref is the reference JSON report: the capture run's for reanalyze,
	// otherwise the first sample's.
	ref []byte
	// Digests of the generated workload and captured trace, which must not
	// change between set-up repetitions.
	workloadSum, traceSum string
	// setupGen and setupTotal are the generation time and the whole set-up
	// time of each set-up repetition.
	setupGen, setupTotal []time.Duration
}

func newBench(wl workload, seed int64, dir string) (*bench, error) {
	e, err := apps.Lookup(wl.app)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, bug := range e.Bugs {
		ids = append(ids, bug.ID)
	}
	slices.Sort(ids)
	return &bench{
		wl: wl, entry: e, seed: seed, dir: dir,
		workloadPath: filepath.Join(dir, "workload.ycsb"),
		tracePath:    filepath.Join(dir, "capture.hwkt"),
		reportPath:   filepath.Join(dir, "report.json"),
		wantBugs:     fmt.Sprint(ids),
	}, nil
}

// build compiles the CLI from the checkout's cmd/hawkset into out.
func (b *bench) build(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/hawkset")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/hawkset: %v\n%s", err, msg)
	}
	b.cli = out
	return nil
}

// setup generates the workload from the seed and, for reanalyze, captures
// its trace with the CLI. Every repetition must produce the same files.
func (b *bench) setup() error {
	for i, begin := 0, time.Now(); i < setupReps || time.Since(begin) < setupTime; i++ {
		start := time.Now()
		if err := b.generate(); err != nil {
			return err
		}
		b.setupGen = append(b.setupGen, time.Since(start))
		if b.wl.reanalyze {
			if err := b.capture(); err != nil {
				return err
			}
		}
		b.setupTotal = append(b.setupTotal, time.Since(start))
		if err := sameFile(b.workloadPath, &b.workloadSum); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		if b.wl.reanalyze {
			if err := sameFile(b.tracePath, &b.traceSum); err != nil {
				return fmt.Errorf("set-up %d: %w", i, err)
			}
		}
	}
	return nil
}

// generate writes the seed's workload with ycsb.Generate and ycsb.Save.
func (b *bench) generate() error {
	w := ycsb.Generate(b.entry.Spec(b.wl.ops), b.seed)
	f, err := os.Create(b.workloadPath)
	if err != nil {
		return err
	}
	if err := ycsb.Save(f, w); err != nil {
		f.Close()
		return fmt.Errorf("saving workload: %w", err)
	}
	return f.Close()
}

// capture runs the CLI on the workload with -trace-out, the way a user
// records a trace for later re-analysis, and checks its report.
func (b *bench) capture() error {
	_, out, err := b.hawkset("-workload", b.workloadPath, "-trace-out", b.tracePath)
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	if err := b.check(out); err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	return nil
}

// sample is one CLI run.
type sample struct {
	wall, cpu time.Duration
	rssMB     float64
}

// measureCLI runs the workload's command once and checks its outputs.
func (b *bench) measureCLI() (sample, error) {
	in := []string{"-workload", b.workloadPath}
	if b.wl.reanalyze {
		in = []string{"-trace-in", b.tracePath}
	}
	s, out, err := b.hawkset(in...)
	if err != nil {
		return s, err
	}
	return s, b.check(out)
}

// hawkset runs the CLI with the workload's app, ops and seed plus args,
// writing the JSON report to reportPath. With -trace-in the report's
// workload label comes from -ops and -seed, not from the trace, so they are
// passed on every run.
func (b *bench) hawkset(args ...string) (sample, []byte, error) {
	if err := os.Remove(b.reportPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return sample{}, nil, err
	}
	args = append([]string{"-app", b.wl.app, "-ops", strconv.Itoa(b.wl.ops),
		"-seed", strconv.FormatInt(b.seed, 10), "-json", b.reportPath}, args...)
	cmd := exec.Command(b.cli, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return sample{}, nil, fmt.Errorf("hawkset %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	st := cmd.ProcessState
	s := sample{wall: wall, cpu: st.UserTime() + st.SystemTime()}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return s, stdout.Bytes(), nil
}

var bugsLine = regexp.MustCompile(`matched paper bugs \(Table 2\): (\[[0-9 ]*\])`)

// check verifies one CLI run: the matched-bugs line lists the entry's full
// registered bug set, and the report equals the reference — pinned by digest
// at defaultSeed, byte-identical to the first report otherwise.
func (b *bench) check(stdout []byte) error {
	got := "none"
	if m := bugsLine.FindSubmatch(stdout); m != nil {
		got = string(m[1])
	}
	if got != b.wantBugs {
		return fmt.Errorf("matched paper bugs %s, want %s", got, b.wantBugs)
	}
	rep, err := os.ReadFile(b.reportPath)
	if err != nil {
		return err
	}
	return b.checkReport(rep)
}

func (b *bench) checkReport(rep []byte) error {
	if b.ref == nil {
		if sum := sha256hex(rep); b.seed == defaultSeed && sum != b.wl.digest {
			return fmt.Errorf("report sha256 %s, want pinned %s", sum, b.wl.digest)
		}
		b.ref = rep
		return nil
	}
	if !bytes.Equal(rep, b.ref) {
		return errors.New("report differs from the reference report")
	}
	return nil
}

// untraced is the end-to-end run: set-up, then CLI runs back to back until
// d has passed.
func (b *bench) untraced(d time.Duration) (*result, error) {
	if err := b.setup(); err != nil {
		return nil, err
	}
	var runs []sample
	failed := 0
	for deadline := time.Now().Add(d); len(runs)+failed == 0 || time.Now().Before(deadline); {
		s, err := b.measureCLI()
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "hawkbench: run failed:", err)
			continue
		}
		runs = append(runs, s)
	}
	wall := make([]float64, len(runs))
	cpu := make([]float64, len(runs))
	rss := make([]float64, len(runs))
	for i, s := range runs {
		wall[i], cpu[i], rss[i] = s.wall.Seconds(), s.cpu.Seconds(), s.rssMB
	}
	vals := map[string]float64{
		"run_s":       median(wall),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
		"setup_s":     median(seconds(b.setupTotal)),
	}
	attempted := len(runs) + failed
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d runs, error_rate %.4f ratio\n", b.wl.name, b.seed, attempted, float64(failed)/float64(attempted))
	printTable(endToEnd, vals)
	if p, v, ok := tail(wall); ok {
		fmt.Fprintf(os.Stderr, "  run_s p%-22d %16.6f s (n=%d)\n", p, v, len(wall))
	}
	return newResult(endToEnd, vals, attempted, failed), nil
}

// printTable prints every metric with its unit to standard error.
func printTable(ms []metric, vals map[string]float64) {
	for _, m := range ms {
		fmt.Fprintf(os.Stderr, "  %-28s %16.6f %s\n", m.name, vals[m.name], m.unit)
	}
}

func newResult(ms []metric, vals map[string]float64, attempted, failed int) *result {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range ms {
		r.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return r
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile with at least ten samples
// above it, and its value; ok is false when there are too few samples for
// any percentile above the median.
func tail(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n < 21 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return 100 * (n - 10) / n, s[n-11], true
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sameFile records the digest of path in *sum on first use and afterwards
// requires the file to still have it.
func sameFile(path string, sum *string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	got := sha256hex(data)
	if *sum == "" {
		*sum = got
	} else if got != *sum {
		return fmt.Errorf("%s differs from the first set-up's", filepath.Base(path))
	}
	return nil
}

// gitCommit returns the checkout's commit, or "unknown" when the checkout
// is not itself a git repository.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources of the checkout, which identifies the
// measured code where no git commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
