package ycsb

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Workload file format — a line-oriented text format so seed corpora (the
// Table 3 artifact) can be stored, shared and replayed exactly, the way the
// original artifact ships PMRace's 240 Fast-Fair seeds:
//
//	# comment
//	workload <name>
//	seed <n>
//	load <kind> <key> <value>
//	thread <i>
//	op <kind> <key> <value> [<off> <len>]
//
// Every `op` line after a `thread` line belongs to that thread.

// Save writes the workload in the text format. A bufio.Writer's write error
// sticks, so the final Flush reports any that occurred.
func Save(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("# hawkset workload\nworkload " + sanitize(wl.Name) + "\nseed " + strconv.FormatInt(wl.Seed, 10) + "\n")
	for _, op := range wl.Load {
		writeOp(bw, "load", op)
	}
	for i, ops := range wl.Threads {
		bw.WriteString("thread " + strconv.Itoa(i) + "\n")
		for _, op := range ops {
			writeOp(bw, "op", op)
		}
	}
	return bw.Flush()
}

func sanitize(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(s, " ", "_")
}

// writeOp appends one op line straight into bw's free buffer space, so no
// line goes through fmt.
func writeOp(bw *bufio.Writer, tag string, op Op) {
	b := append(bw.AvailableBuffer(), tag...)
	b = append(b, ' ')
	b = append(b, op.Kind.String()...)
	b = appendField(b, op.Key)
	b = appendField(b, op.Value)
	if op.Kind == OpWrite {
		b = appendField(b, op.Off)
		b = appendField(b, op.Len)
	}
	bw.Write(append(b, '\n'))
}

func appendField(b []byte, v uint64) []byte {
	return strconv.AppendUint(append(b, ' '), v, 10)
}

var kindByName = func() map[string]OpKind {
	m := make(map[string]OpKind, len(opNames))
	for k, n := range opNames {
		m[n] = k
	}
	return m
}()

// Load parses a workload file.
func Load(r io.Reader) (*Workload, error) {
	wl := &Workload{Name: "unnamed"}
	cur := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "workload":
			if len(f) != 2 {
				return nil, fmt.Errorf("ycsb: line %d: workload needs a name", lineno)
			}
			wl.Name = f[1]
		case "seed":
			if len(f) != 2 {
				return nil, fmt.Errorf("ycsb: line %d: seed needs a value", lineno)
			}
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ycsb: line %d: %v", lineno, err)
			}
			wl.Seed = n
		case "thread":
			if len(f) != 2 {
				return nil, fmt.Errorf("ycsb: line %d: thread needs an index", lineno)
			}
			i, err := strconv.Atoi(f[1])
			if err != nil || i < 0 || i > 1<<16 {
				return nil, fmt.Errorf("ycsb: line %d: bad thread index %q", lineno, f[1])
			}
			for len(wl.Threads) <= i {
				wl.Threads = append(wl.Threads, nil)
			}
			cur = i
		case "load", "op":
			op, err := parseOp(f)
			if err != nil {
				return nil, fmt.Errorf("ycsb: line %d: %v", lineno, err)
			}
			if f[0] == "load" {
				wl.Load = append(wl.Load, op)
			} else {
				if cur < 0 {
					return nil, fmt.Errorf("ycsb: line %d: op before any thread line", lineno)
				}
				wl.Threads[cur] = append(wl.Threads[cur], op)
			}
		default:
			return nil, fmt.Errorf("ycsb: line %d: unknown directive %q", lineno, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return wl, nil
}

func parseOp(f []string) (Op, error) {
	if len(f) != 4 && len(f) != 6 {
		return Op{}, fmt.Errorf("op needs 3 or 5 fields, got %d", len(f)-1)
	}
	kind, ok := kindByName[f[1]]
	if !ok {
		return Op{}, fmt.Errorf("unknown op kind %q", f[1])
	}
	key, err := strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return Op{}, err
	}
	val, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return Op{}, err
	}
	op := Op{Kind: kind, Key: key, Value: val}
	if len(f) == 6 {
		if op.Off, err = strconv.ParseUint(f[4], 10, 64); err != nil {
			return Op{}, err
		}
		if op.Len, err = strconv.ParseUint(f[5], 10, 64); err != nil {
			return Op{}, err
		}
	}
	return op, nil
}
