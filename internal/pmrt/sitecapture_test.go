package pmrt

import (
	"runtime"
	"strings"
	"testing"

	"hawkset/internal/trace"
)

// TestSiteCaptureEveryMethod pins the boundary-capture contract for every
// exported Ctx method that records a call site: each event the method emits
// carries the exact file:line of the call in this test, found with
// runtime.Caller(0) on the same line. A helper wrapped around a method's
// capture would shift the skip and fail here. Under Backtraces the leaf
// file:line is the same and the call chain starts in this test.
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
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
