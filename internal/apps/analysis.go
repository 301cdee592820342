package apps

import (
	"sort"

	"hawkset/internal/hawkset"
	"hawkset/internal/trace"
	"hawkset/internal/ycsb"
)

// Workload generates the entry's workload of opCount main-phase operations
// from seed, capped at MaxOps. It is the one place the cap is applied.
func (e *Entry) Workload(opCount int, seed int64) *ycsb.Workload {
	if e.MaxOps > 0 && opCount > e.MaxOps {
		opCount = e.MaxOps
	}
	return ycsb.Generate(e.Spec(opCount), seed)
}

// Detect executes a workload against the application and analyzes it
// online: every event streams from the runtime into a hawkset.Stream as it
// is emitted, so no trace is retained (the runtime runs with NoTrace). It
// is the one in-process detection path the CLI, the experiments and the
// tests share. When runCfg.EventSink is set it is called with every event
// too, after the stream has consumed it — a tee for callers that also
// capture the trace; res.Sites is the site table those events refer to.
func Detect(e *Entry, w *ycsb.Workload, runCfg RunConfig, cfg hawkset.Config) (*hawkset.Result, error) {
	tee := runCfg.EventSink
	runCfg.NoTrace = true
	rt := NewRuntime(e, runCfg)
	st := hawkset.NewStream(rt.Trace.Sites, cfg)
	feed := func(ev trace.Event) { st.Feed(ev) } //nolint:errcheck // Feed only errors after Finish
	rt.EventSink = feed
	if tee != nil {
		rt.EventSink = func(ev trace.Event) { feed(ev); tee(ev) }
	}
	if err := RunOn(rt, e.Factory(rt, runCfg.Fixed), w); err != nil {
		return nil, err
	}
	return st.Finish()
}

// FoundBugs maps analysis reports back to the application's registered
// Table 2 bugs, returning the sorted IDs of the bugs with at least one
// matching report.
func FoundBugs(e *Entry, res *hawkset.Result) []int {
	found := map[int]bool{}
	for _, r := range res.Reports {
		for _, b := range e.Bugs {
			if b.Matches(r) {
				found[b.ID] = true
			}
		}
	}
	var ids []int // nil when no bug matched, for direct DeepEqual use
	for id := range found {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Breakdown tallies reports per Table 4 class.
func Breakdown(e *Entry, res *hawkset.Result) map[Class]int {
	out := map[Class]int{}
	for _, r := range res.Reports {
		out[e.Classify(r)]++
	}
	return out
}
