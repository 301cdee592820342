package sites

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestHereCapturesCaller(t *testing.T) {
	tab := NewTable()
	id := tab.Here(0)
	fr := tab.Lookup(id)
	if !strings.HasSuffix(fr.File, "sites_test.go") {
		t.Fatalf("File = %q, want this test file", fr.File)
	}
	if !strings.Contains(fr.Func, "TestHereCapturesCaller") {
		t.Fatalf("Func = %q", fr.Func)
	}
	if !strings.HasPrefix(fr.String(), "sites_test.go:") {
		t.Fatalf("String = %q", fr.String())
	}
}

func TestHereInterned(t *testing.T) {
	tab := NewTable()
	var a, b ID
	for i := 0; i < 2; i++ {
		id := tab.Here(0) // same line both iterations
		if i == 0 {
			a = id
		} else {
			b = id
		}
	}
	if a != b {
		t.Fatalf("same call site interned twice: %d %d", a, b)
	}
}

func helperSite(tab *Table, skip int) ID { return tab.Here(skip) }

func TestHereSkip(t *testing.T) {
	tab := NewTable()
	id := helperSite(tab, 1) // skip the helper: capture this test
	fr := tab.Lookup(id)
	if !strings.Contains(fr.Func, "TestHereSkip") {
		t.Fatalf("Func = %q, want the test (skip=1)", fr.Func)
	}
}

func TestNamedSites(t *testing.T) {
	tab := NewTable()
	a := tab.Named("t1.store")
	b := tab.Named("t1.store")
	c := tab.Named("t2.load")
	if a != b || a == c {
		t.Fatalf("interning wrong: %d %d %d", a, b, c)
	}
	if got := tab.Lookup(a).String(); got != "t1.store" {
		t.Fatalf("named site renders as %q", got)
	}
}

func TestUnknownID(t *testing.T) {
	tab := NewTable()
	if got := tab.Lookup(0).String(); got != "<unknown>" {
		t.Fatalf("zero ID = %q", got)
	}
	if got := tab.Lookup(999).String(); got != "<unknown>" {
		t.Fatalf("out-of-range ID = %q", got)
	}
}

func TestInternPreResolved(t *testing.T) {
	tab := NewTable()
	a := tab.Intern(Frame{File: "x.c", Line: 42, Func: "f"})
	b := tab.Intern(Frame{File: "x.c", Line: 42, Func: "f"})
	if a != b {
		t.Fatal("equal frames interned twice")
	}
	if got := tab.Lookup(a).String(); got != "x.c:42" {
		t.Fatalf("frame renders as %q", got)
	}
}

// TestInternDoesNotAliasNamed: Named("a.go:3:f") and Intern of the frame
// {a.go, 3, f} are different sites. Intern once keyed its dedup on the
// rendered "file:line:func" string in Named's map, so whichever came second
// returned the first one's ID and frame.
func TestInternDoesNotAliasNamed(t *testing.T) {
	fr := Frame{File: "a.go", Line: 3, Func: "f"}
	named := Frame{File: "a.go:3:f", Func: "a.go:3:f"}
	for _, internFirst := range []bool{false, true} {
		tab := NewTable()
		var n, i ID
		if internFirst {
			i = tab.Intern(fr)
			n = tab.Named("a.go:3:f")
		} else {
			n = tab.Named("a.go:3:f")
			i = tab.Intern(fr)
		}
		if n == i {
			t.Fatalf("internFirst=%v: Named and Intern share ID %d", internFirst, n)
		}
		if got := tab.Lookup(i); got != fr {
			t.Fatalf("internFirst=%v: Intern frame = %+v, want %+v", internFirst, got, fr)
		}
		if got := tab.Lookup(n); got != named {
			t.Fatalf("internFirst=%v: Named frame = %+v, want %+v", internFirst, got, named)
		}
	}
}

// callSite captures its caller's site twice: as the raw return PC At takes,
// and through runtime.Caller, the reference resolution.
func callSite(pc []uintptr) (file string, line int, fn string) {
	runtime.Callers(2, pc)
	cpc, file, line, _ := runtime.Caller(1)
	return file, line, runtime.FuncForPC(cpc).Name()
}

func TestAtResolvesLikeCaller(t *testing.T) {
	tab := NewTable()
	var pc [1]uintptr
	file, line, fn := callSite(pc[:])
	id := tab.At(pc[0])
	if got, want := tab.Lookup(id), (Frame{File: file, Line: line, Func: fn}); got != want {
		t.Fatalf("At frame = %+v, want runtime.Caller's %+v", got, want)
	}
	if again := tab.At(pc[0]); again != id {
		t.Fatalf("same raw PC interned twice: %d %d", id, again)
	}
	if tab.At(0) != 0 {
		t.Fatal("raw PC 0 must be the unknown site")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want the reserved frame plus one site", tab.Len())
	}
}

// TestTableConcurrentUse drives every capture path and Lookup from several
// goroutines (run under -race in ci.sh). All goroutines run the same code,
// so each distinct site must be interned exactly once.
func TestTableConcurrentUse(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var pc [1]uintptr
				runtime.Callers(1, pc[:])
				for _, id := range []ID{tab.At(pc[0]), tab.Here(0), tab.HereStack(0, 3), helperSite(tab, 0)} {
					if id == 0 || tab.Lookup(id).File == "" {
						t.Errorf("site %d did not resolve", id)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if tab.Len() != 5 { // the reserved frame plus the four capture sites
		t.Fatalf("Len = %d, want 5: a site was interned twice\n%v", tab.Len(), tab.SortedStrings())
	}
}

func TestFramesAndLen(t *testing.T) {
	tab := NewTable()
	tab.Named("a")
	tab.Named("b")
	if tab.Len() != 3 { // reserved zero + 2
		t.Fatalf("Len = %d", tab.Len())
	}
	fs := tab.Frames()
	if len(fs) != 3 || fs[1].File != "a" {
		t.Fatalf("Frames = %v", fs)
	}
	ss := tab.SortedStrings()
	if len(ss) != 2 || ss[0] != "a" || ss[1] != "b" {
		t.Fatalf("SortedStrings = %v", ss)
	}
}

func TestAppendPreservesPositions(t *testing.T) {
	tab := NewTable()
	a := tab.Append(Frame{File: "x.go", Line: 1, Func: "f"})
	b := tab.Append(Frame{File: "x.go", Line: 1, Func: "f"}) // identical frame
	if a == b {
		t.Fatal("Append deduplicated; IDs must be positional")
	}
	if tab.Lookup(b).Line != 1 {
		t.Fatal("appended frame unreadable")
	}
}

func stackHelper(tab *Table) ID { return tab.HereStack(0, 4) }

func TestHereStackCapturesChain(t *testing.T) {
	tab := NewTable()
	id := stackHelper(tab)
	fr := tab.Lookup(id)
	if !strings.Contains(fr.Func, "stackHelper") || !strings.Contains(fr.Func, "TestHereStackCapturesChain") {
		t.Fatalf("Func chain = %q, want helper<-test", fr.Func)
	}
	if !strings.Contains(fr.Func, "<-") {
		t.Fatalf("chain separator missing: %q", fr.Func)
	}
	if !strings.HasSuffix(fr.File, "sites_test.go") {
		t.Fatalf("leaf file = %q", fr.File)
	}
	// Interned: the same call chain yields the same ID (loop = one line).
	var ids []ID
	for i := 0; i < 2; i++ {
		ids = append(ids, stackHelper(tab))
	}
	if ids[0] != ids[1] {
		t.Fatalf("stack re-interned: %d vs %d", ids[0], ids[1])
	}
}
