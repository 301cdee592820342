package apps_test

import (
	"bytes"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/trace"
)

// TestDetectTeeMatchesRunTrace checks the capture half of the streaming
// path: the events a tee collects during apps.Detect, with Detect's site
// table, encode to the same bytes as the trace apps.Run retains. This is
// what makes hawkset -trace-out files independent of whether the run
// retained its trace.
func TestDetectTeeMatchesRunTrace(t *testing.T) {
	for _, name := range []string{"Fast-Fair", "Memcached-pmem"} {
		e, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		w := e.Workload(2000, 42)
		var events []trace.Event
		tee := func(ev trace.Event) { events = append(events, ev) }
		res, err := apps.Detect(e, w, apps.RunConfig{Seed: 42, EventSink: tee}, hawkset.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Events != len(events) {
			t.Fatalf("%s: analysis saw %d events, the tee %d", name, res.Stats.Events, len(events))
		}
		rt, err := apps.Run(e, w, apps.RunConfig{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var teed, retained bytes.Buffer
		if err := trace.Encode(&teed, &trace.Trace{Sites: res.Sites, Events: events}); err != nil {
			t.Fatal(err)
		}
		if err := trace.Encode(&retained, rt.Trace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(teed.Bytes(), retained.Bytes()) {
			t.Errorf("%s: teed trace (%d bytes) differs from apps.Run's (%d bytes)", name, teed.Len(), retained.Len())
		}
	}
}
