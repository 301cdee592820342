package expmt

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/trace"
)

// TraceFmtRow is one (application, format version) measurement: encoded
// trace size and encode/decode throughput — the capture-once/analyze-many
// IO cost the v2 block codec exists to shrink.
type TraceFmtRow struct {
	App     string
	Format  string // "v1", "v2", "v2-flate"
	Events  int
	Bytes   int
	PerEv   float64 // bytes per event
	Encode  time.Duration
	Decode  time.Duration
	DecMBps float64 // decode throughput over the encoded bytes
}

// TraceFmt measures the trace codecs on real application traces: each app's
// workload is executed once with its trace retained, then encoded and
// decoded in every format.
func TraceFmt(appNames []string, ops int, seed int64) ([]TraceFmtRow, error) {
	formats := []struct {
		name string
		opts trace.Options
	}{
		{"v1", trace.Options{Version: 1}},
		{"v2", trace.Options{Version: 2}},
		{"v2-flate", trace.Options{Version: 2, Compress: true}},
	}
	var rows []TraceFmtRow
	for _, name := range appNames {
		e, err := apps.Lookup(name)
		if err != nil {
			return nil, err
		}
		rt, err := apps.Run(e, e.Workload(ops, seed), apps.RunConfig{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, f := range formats {
			var buf bytes.Buffer
			encStart := time.Now()
			if err := trace.EncodeWith(&buf, rt.Trace, f.opts); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, f.name, err)
			}
			encT := time.Since(encStart)
			decStart := time.Now()
			if err := drain(buf.Bytes()); err != nil {
				return nil, fmt.Errorf("%s/%s decode: %w", name, f.name, err)
			}
			decT := time.Since(decStart)
			mbps := 0.0
			if decT > 0 {
				mbps = float64(buf.Len()) / decT.Seconds() / (1 << 20)
			}
			rows = append(rows, TraceFmtRow{
				App: e.Name, Format: f.name, Events: rt.Trace.Len(),
				Bytes: buf.Len(), PerEv: float64(buf.Len()) / float64(rt.Trace.Len()),
				Encode: encT, Decode: decT, DecMBps: mbps,
			})
		}
	}
	return rows, nil
}

// drain decodes every event of an encoded trace through the streaming
// Decoder without retaining them, the way -trace-in, tracedump and the
// daemon read traces.
func drain(raw []byte) error {
	dec, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	for {
		if _, err := dec.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// FormatTraceFmt renders the codec comparison table.
func FormatTraceFmt(rows []TraceFmtRow) string {
	var b strings.Builder
	b.WriteString("Trace format comparison — size and codec throughput\n")
	fmt.Fprintf(&b, "%-15s %-9s %-9s %-10s %-8s %-10s %-10s %s\n",
		"Application", "Format", "Events", "Size", "B/event", "Encode", "Decode", "Dec-MB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-9s %-9d %-10s %-8.2f %-10s %-10s %.1f\n",
			r.App, r.Format, r.Events, fmtBytes(uint64(r.Bytes)), r.PerEv,
			r.Encode.Round(time.Millisecond), r.Decode.Round(time.Millisecond), r.DecMBps)
	}
	return b.String()
}
