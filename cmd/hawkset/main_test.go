package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temporary directory.
func buildCLI(t *testing.T) (bin, dir string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "hawkset")
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, dir
}

// TestTraceInRejectsExecutionFlags: a -trace-in run executes and captures
// nothing, so a flag that only shapes execution or capture must fail with a
// usage error naming it instead of being silently ignored. The flags
// hawkbench and report labeling rely on stay valid, and the re-analysis
// report equals the report of the in-process run, with and without capture.
func TestTraceInRejectsExecutionFlags(t *testing.T) {
	bin, dir := buildCLI(t)
	run := func(args ...string) (stderr string, code int) {
		t.Helper()
		var errb bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &errb
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return errb.String(), exit.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return errb.String(), 0
	}
	file := func(name string) string { return filepath.Join(dir, name) }
	label := []string{"-app", "Fast-Fair", "-ops", "300", "-seed", "7"}

	if msg, code := run(append(label, "-json", file("stream.json"))...); code != 0 {
		t.Fatalf("in-process run: exit %d: %s", code, msg)
	}
	if msg, code := run(append(label, "-trace-out", file("t.hwkt"), "-json", file("capture.json"))...); code != 0 {
		t.Fatalf("capture: exit %d: %s", code, msg)
	}
	for _, extra := range [][]string{
		{"-trace-out", file("again.hwkt")},
		{"-trace-format", "1"},
		{"-trace-compress"},
		{"-workload", file("w.wl")},
		{"-workload-out", file("w.wl")},
		{"-fixed"},
		{"-eadr"},
	} {
		msg, code := run(append([]string{"-trace-in", file("t.hwkt")}, extra...)...)
		if code != 2 || !strings.Contains(msg, extra[0]+" ") {
			t.Errorf("-trace-in with %s: exit %d, stderr %q; want a usage error (exit 2) naming the flag", extra[0], code, msg)
		}
	}
	if _, err := os.Stat(file("again.hwkt")); err == nil {
		t.Error("a rejected -trace-in run still wrote its -trace-out file")
	}

	args := append([]string{"-trace-in", file("t.hwkt"), "-json", file("reanalyzed.json"), "-no-irh=false"}, label...)
	if msg, code := run(args...); code != 0 {
		t.Fatalf("-trace-in with -app/-ops/-seed/-json: exit %d: %s", code, msg)
	}
	want, err := os.ReadFile(file("stream.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"capture.json", "reanalyzed.json"} {
		got, err := os.ReadFile(file(name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the in-process report", name)
		}
	}
}
