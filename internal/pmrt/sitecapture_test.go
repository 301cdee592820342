package pmrt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"strings"
	"testing"

	"hawkset/internal/trace"
)

// TestSiteCaptureEveryMethod pins the boundary-capture contract for every
// exported Ctx method that records a call site: each event the method emits
// carries the exact file:line of the call in this test, found with
// runtime.Caller(0) on the same line. Every method runs twice from the same
// line: the first call fills Runtime.siteCache and the second hits it. A
// method the compiler inlined into its caller would read the caller's
// return PC and fail here. Under Backtraces the leaf file:line is the same
// and the call chain starts in this test.
//
// SpinLock and SpinUnlock are composite: the PM CAS and store they issue
// internally are attributed to their own lines in sync.go, as any caller's
// would be; only their lock events carry the test's line.
func TestSiteCaptureEveryMethod(t *testing.T) {
	pc, file, _, _ := runtime.Caller(0)
	testFn := runtime.FuncForPC(pc).Name()
	for _, deep := range []bool{false, true} {
		r := New(Config{Seed: 1, PoolSize: 1 << 16, Backtraces: deep, InstrumentAllocs: true})
		m, rw := r.NewMutex("m"), r.NewRWMutex("rw")
		err := r.Run(func(c *Ctx) {
			a := c.Alloc(64)
			sl := r.NewSpinLock(c, "sl")
			var th *Thread
			steps := []struct {
				name string
				do   func() int // runs the method, returns the line of its call
			}{
				{"Store", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Store(a, []byte{1, 2}); return }},
				{"Store8", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Store8(a, 1); return }},
				{"Store4", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Store4(a, 1); return }},
				{"Store1", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Store1(a, 1); return }},
				{"NTStore8", func() (l int) { _, _, l, _ = runtime.Caller(0); c.NTStore8(a, 1); return }},
				{"Load", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Load(a, 2); return }},
				{"Load8", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Load8(a); return }},
				{"Load4", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Load4(a); return }},
				{"Load1", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Load1(a); return }},
				{"Flush", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Flush(a); return }},
				{"Fence", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Fence(); return }},
				{"Persist", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Persist(a, 128); return }},
				{"CAS8", func() (l int) { _, _, l, _ = runtime.Caller(0); c.CAS8(a+8, 0, 1); return }},
				{"Lock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Lock(m); return }},
				{"Unlock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Unlock(m); return }},
				{"TryLock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.TryLock(m); return }},
				{"Unlock/2", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Unlock(m); return }},
				{"RLock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.RLock(rw); return }},
				{"RUnlock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.RUnlock(rw); return }},
				{"WLock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.WLock(rw); return }},
				{"WUnlock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.WUnlock(rw); return }},
				{"SpinLock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.SpinLock(sl); return }},
				{"SpinUnlock", func() (l int) { _, _, l, _ = runtime.Caller(0); c.SpinUnlock(sl); return }},
				{"Spawn", func() (l int) { _, _, l, _ = runtime.Caller(0); th = c.Spawn(func(*Ctx) {}); return }},
				{"Join", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Join(th); return }},
				{"Alloc", func() (l int) { _, _, l, _ = runtime.Caller(0); c.Alloc(64); return }},
				{"RecordAlloc", func() (l int) { _, _, l, _ = runtime.Caller(0); c.RecordAlloc(a, 64); return }},
			}
			for pass := 0; pass < 2; pass++ {
				cached := len(r.siteCache)
				for _, s := range steps {
					before := len(r.Trace.Events)
					line := s.do()
					own := 0
					for _, e := range r.Trace.Events[before:] {
						if e.TID != c.TID() {
							continue
						}
						fr := r.Trace.Sites.Lookup(e.Site)
						composite := strings.HasPrefix(s.name, "Spin") && (e.Kind == trace.KLoad || e.Kind == trace.KStore)
						if composite {
							if !strings.HasSuffix(fr.File, "/sync.go") || !strings.Contains(fr.Func, "(*Ctx)."+s.name) {
								t.Errorf("deep=%v %s: internal %v site = %s:%d %s, want sync.go in %s", deep, s.name, e.Kind, fr.File, fr.Line, fr.Func, s.name)
							}
							continue
						}
						own++
						if fr.File != file || fr.Line != line {
							t.Errorf("deep=%v %s: %v site = %s:%d, want %s:%d", deep, s.name, e.Kind, fr.File, fr.Line, file, line)
						}
						if !strings.HasPrefix(fr.Func, testFn) {
							t.Errorf("deep=%v %s: site func = %q, want it to start in %s", deep, s.name, fr.Func, testFn)
						}
						if deep && !strings.Contains(fr.Func, "<-") {
							t.Errorf("deep=%v %s: site func = %q, want a call chain", deep, s.name, fr.Func)
						}
					}
					if own == 0 {
						t.Errorf("deep=%v %s: emitted no event of its own", deep, s.name)
					}
				}
				if deep || runtime.GOARCH != "amd64" {
					continue
				}
				// With frame-pointer capture every raw PC above is the
				// caller's own frame, so pass 0 caches each one and pass 1
				// only hits.
				for raw, id := range r.siteCache {
					if id == alwaysSlow {
						t.Errorf("pass %d: raw PC %#x marked always-slow, want it cached", pass, raw)
					}
				}
				if pass == 1 && len(r.siteCache) != cached {
					t.Errorf("pass 1 grew siteCache from %d to %d entries, want only hits", cached, len(r.siteCache))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// deferredUnlock locks m and leaves through one of two exits, each of which
// runs the deferred Unlock.
func deferredUnlock(c *Ctx, m *Mutex, a uint64, early bool) {
	c.Lock(m)
	defer c.Unlock(m)
	if early {
		return
	}
	c.Store8(a, 1)
}

// TestSiteCaptureThroughWrappers pins the sites of calls that reach a Ctx
// method through a function runtime.Callers elides but the frame pointer
// does not: the deferwrap closure of `defer c.Unlock(m)` and the -fm
// wrapper of a method value. A deferred call's site is the exit that ran
// it (the return statement, or the closing brace when the function falls
// off its end), so one wrapper PC stands for several sites and must never
// be cached. Each call runs twice, so a wrongly cached first site would
// show on the second.
func TestSiteCaptureThroughWrappers(t *testing.T) {
	_, file, _, _ := runtime.Caller(0)
	retLine, braceLine := deferredUnlockExits(t, file)
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	m := r.NewMutex("m")
	type want struct {
		kind trace.Kind
		line int
	}
	var wants []want
	err := r.Run(func(c *Ctx) {
		a := c.Alloc(64)
		f := c.Store8
		viaMethodValue := func() (l int) { _, _, l, _ = runtime.Caller(0); f(a, 1); return }
		for i := 0; i < 2; i++ {
			deferredUnlock(c, m, a, true)
			deferredUnlock(c, m, a, false)
			wants = append(wants, want{trace.KLockRel, retLine}, want{trace.KLockRel, braceLine})
			wants = append(wants, want{trace.KStore, viaMethodValue()})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []want
	for _, e := range r.Trace.Events {
		fr := r.Trace.Sites.Lookup(e.Site)
		unlock := e.Kind == trace.KLockRel
		viaValue := e.Kind == trace.KStore && !strings.Contains(fr.Func, "deferredUnlock")
		if !unlock && !viaValue {
			continue
		}
		if unlock && !strings.HasSuffix(fr.Func, ".deferredUnlock") {
			t.Errorf("unlock site func = %q, want deferredUnlock", fr.Func)
		}
		if fr.File != file {
			t.Errorf("%v site file = %s, want %s", e.Kind, fr.File, file)
		}
		got = append(got, want{e.Kind, fr.Line})
	}
	if len(got) != len(wants) {
		t.Fatalf("got %d unlock/method-value events %v, want %v", len(got), got, wants)
	}
	for i := range got {
		if got[i] != wants[i] {
			t.Errorf("event %d: %v site line %d, want %d", i, got[i].kind, got[i].line, wants[i].line)
		}
	}
}

// deferredUnlockExits returns the lines of deferredUnlock's return
// statement and closing brace.
func deferredUnlockExits(t *testing.T, file string) (ret, brace int) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "deferredUnlock" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.ReturnStmt); ok {
				ret = fset.Position(rs.Pos()).Line
			}
			return true
		})
		brace = fset.Position(fd.Body.Rbrace).Line
	}
	if ret == 0 || brace == 0 {
		t.Fatal("deferredUnlock: return statement or closing brace not found")
	}
	return ret, brace
}

// TestSiteCaptureNoinline checks the other half of the capture contract
// statically: callerPC reads its caller's return PC, which names the
// application call site only if that caller is a Ctx method with a frame of
// its own. Every function in pmrt.go and sync.go that calls callerPC must
// therefore be a Ctx method marked //go:noinline. With inlining disabled
// (-gcflags=all=-l) TestSiteCaptureEveryMethod cannot see a lost
// directive; this test can.
func TestSiteCaptureNoinline(t *testing.T) {
	fset := token.NewFileSet()
	methods := 0
	for _, name := range []string{"pmrt.go", "sync.go"} {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !callsCallerPC(fd.Body) {
				continue
			}
			methods++
			if !isCtxMethod(fd) {
				t.Errorf("%s: %s calls callerPC but is not a Ctx method", name, fd.Name.Name)
			}
			if !hasDirective(fd.Doc, "//go:noinline") {
				t.Errorf("%s: (*Ctx).%s calls callerPC without //go:noinline", name, fd.Name.Name)
			}
		}
	}
	if methods != 26 {
		t.Errorf("found %d functions calling callerPC, want the 26 site-recording Ctx methods", methods)
	}
}

func callsCallerPC(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "callerPC" {
				found = true
			}
		}
		return !found
	})
	return found
}

func isCtxMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Ctx"
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive {
			return true
		}
	}
	return false
}
