// Package sites captures and interns program call sites. It is the
// reproduction's substitute for HawkSet's call/return-instrumentation
// backtraces (§4): every instrumented PM access records the Go source
// location of the application code that issued it, deduplicated behind a
// small integer ID so that traces stay compact and race reports can be
// deduplicated by (store site, load site) pairs with integer comparisons.
package sites

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// ID identifies an interned call site. ID 0 is the unknown site.
type ID int32

// Frame is a resolved call site.
type Frame struct {
	File string
	Line int
	Func string
}

// String renders the frame as file:line, trimming directories, the way the
// paper's bug tables report sites (e.g. "btree.h:560").
func (f Frame) String() string {
	if f.File == "" {
		return "<unknown>"
	}
	file := f.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	if f.Line == 0 { // synthetic named site
		return file
	}
	return fmt.Sprintf("%s:%d", file, f.Line)
}

// ModuleRel trims an absolute source path to its module-relative,
// slash-separated form starting at "internal/" — the spelling the static
// tools (pmlint/pmopt, whose loader reports module-relative paths) use, so
// static findings and dynamic frames join on a common "file:line" key.
// Paths without an internal/ component are returned unchanged.
func ModuleRel(file string) string {
	if i := strings.LastIndex(file, "/internal/"); i >= 0 {
		return file[i+1:]
	}
	return file
}

// Table interns call sites. The zero value is not usable; use NewTable.
// Table is safe for concurrent use (the simulated program is cooperatively
// scheduled, but analyses may resolve frames from other goroutines).
type Table struct {
	mu      sync.Mutex
	byRaw   map[uintptr]ID
	byName  map[string]ID
	byFrame map[Frame]ID
	byStack map[[8]uintptr]ID
	frames  []Frame
}

// NewTable creates an empty table. Index 0 is reserved for the unknown
// frame.
func NewTable() *Table {
	return &Table{
		byRaw:   make(map[uintptr]ID),
		byName:  make(map[string]ID),
		byFrame: make(map[Frame]ID),
		frames:  []Frame{{}},
	}
}

// Here captures the caller's call site, skipping skip additional stack
// frames (skip 0 means the immediate caller of Here). Like runtime.Callers,
// skip counts logical frames, so it is the same whether or not the compiler
// inlined any of them.
func (t *Table) Here(skip int) ID {
	var pc [1]uintptr
	if runtime.Callers(skip+2, pc[:]) == 0 {
		return 0
	}
	return t.At(pc[0])
}

// At interns the call site of raw, a return PC as runtime.Callers records
// it. Hot callers capture raw themselves and hand it over, so a repeated
// site costs one unwind step and one map hit, with no symbolisation.
//
// A miss resolves raw exactly as runtime.Caller does, which is
// runtime.Callers followed by CallersFrames: the frame is the innermost
// logical frame at raw-1, so a call inside an inlined function resolves to
// its own source line. Raw and resolved PCs are one-to-one (CallersFrames
// backs a return PC up by one), so interning per raw PC gives the same IDs,
// frames and first-seen order as interning per resolved PC.
func (t *Table) At(raw uintptr) ID {
	t.mu.Lock()
	id, ok := t.byRaw[raw]
	t.mu.Unlock()
	if ok {
		return id
	}
	fr, _ := runtime.CallersFrames([]uintptr{raw}).Next()
	if fr.PC == 0 {
		return 0
	}
	fname := ""
	if fn := runtime.FuncForPC(fr.PC); fn != nil {
		fname = fn.Name()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byRaw[raw]; ok {
		return id
	}
	id = ID(len(t.frames))
	t.frames = append(t.frames, Frame{File: fr.File, Line: fr.Line, Func: fname})
	t.byRaw[raw] = id
	return id
}

// Named interns a synthetic site by name (used by toy programs and tests
// that want stable, human-readable site labels instead of Go file:line).
func (t *Table) Named(name string) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[name]; ok {
		return id
	}
	id := ID(len(t.frames))
	t.frames = append(t.frames, Frame{File: name, Line: 0, Func: name})
	t.byName[name] = id
	return id
}

// Append adds a frame unconditionally, returning its positional ID. The
// trace decoder uses it to reconstruct a table with identical IDs: two
// distinct PCs may resolve to the same file:line:func (deduplicating them
// would shift every later ID).
func (t *Table) Append(fr Frame) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := ID(len(t.frames))
	t.frames = append(t.frames, fr)
	return id
}

// Intern adds a pre-resolved frame (used by tests and tools), returning the
// existing ID when an equal frame was interned before. Its key space is
// separate from Named's: the synthetic site "a.go:3:f" is not the frame
// {a.go, 3, f}.
func (t *Table) Intern(fr Frame) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byFrame[fr]; ok {
		return id
	}
	id := ID(len(t.frames))
	t.frames = append(t.frames, fr)
	t.byFrame[fr] = id
	return id
}

// Lookup resolves an ID to its frame. Unknown IDs resolve to the zero frame.
func (t *Table) Lookup(id ID) Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.frames) {
		return Frame{}
	}
	return t.frames[id]
}

// Len returns the number of interned frames (including the reserved zero
// frame).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.frames)
}

// Frames returns a copy of all frames indexed by ID (trace encoding).
func (t *Table) Frames() []Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Frame, len(t.frames))
	copy(out, t.frames)
	return out
}

// SortedStrings returns the rendered frames, sorted, for diagnostics.
func (t *Table) SortedStrings() []string {
	frames := t.Frames()
	out := make([]string, 0, len(frames))
	for _, f := range frames[1:] {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}

// HereStack captures the caller's call site together with up to depth-1
// ancestor frames, interned as one unit (see AtStack); skip is as for Here.
// It is the analogue of PIN_Backtrace-style deep backtraces. Deep capture is
// substantially more expensive than Here — the original tool measured up to
// 90% overhead for PIN's built-in backtraces and replaced them with
// call/return instrumentation (§4); the reproduction keeps the cheap
// single-frame mode as the default and offers this one opt-in.
func (t *Table) HereStack(skip, depth int) ID {
	depth = min(max(depth, 1), 8)
	var pcs [8]uintptr
	return t.AtStack(pcs[:runtime.Callers(skip+2, pcs[:depth])])
}

// AtStack interns the call chain raw, return PCs as runtime.Callers
// records them, leaf first; PCs beyond the eighth are ignored. The resolved
// Frame keeps the leaf's file:line while Func carries the chain
// ("leaf<-caller<-..."), so reports show how the racy access was reached.
// Like At, a repeated chain costs one map hit.
func (t *Table) AtStack(raw []uintptr) ID {
	var key [8]uintptr // array copy: the interning key
	n := copy(key[:], raw)
	if n == 0 {
		return 0
	}
	t.mu.Lock()
	if id, ok := t.byStack[key]; ok {
		t.mu.Unlock()
		return id
	}
	t.mu.Unlock()

	frames := runtime.CallersFrames(key[:n])
	var leaf Frame
	var chain []string
	for i := 0; ; i++ {
		fr, more := frames.Next()
		if i == 0 {
			leaf = Frame{File: fr.File, Line: fr.Line, Func: fr.Function}
		}
		if fr.Function != "" {
			chain = append(chain, fr.Function)
		}
		if !more {
			break
		}
	}
	leaf.Func = strings.Join(chain, "<-")

	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byStack[key]; ok {
		return id
	}
	if t.byStack == nil {
		t.byStack = make(map[[8]uintptr]ID)
	}
	id := ID(len(t.frames))
	t.frames = append(t.frames, leaf)
	t.byStack[key] = id
	return id
}
