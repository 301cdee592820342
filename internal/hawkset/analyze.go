package hawkset

import (
	"sort"

	"hawkset/internal/lockset"
	"hawkset/internal/pmem"
	"hawkset/internal/sites"
	"hawkset/internal/vclock"
)

// analyze is stage ③: the PM-Aware Lockset Analysis of Algorithm 1. Every
// store record is paired with every load record to an overlapping address
// range from a different thread; pairs ordered by inter-thread
// happens-before are pruned; the remaining pairs race iff the store's
// effective lockset and the load's lockset share no lock.
//
// The implementation applies the optimizations of §4: accesses are grouped
// by cache line, records are deduplicated shapes with counts (built during
// replay), lockset-disjointness and vector-clock comparisons are memoized by
// interned ID pairs, and intersections short-circuit on empty or equal
// locksets. One sequential pass visits the cache-line buckets in ascending
// address order, so reports appear in a deterministic first-appearance
// order: every store-load report, then (with StoreStore) every store-store
// report.
func analyze(res *Result, cfg Config) {
	// Buckets come from a block arena (most traces have thousands of
	// single-record lines; one allocation per bucket was measurable), and the
	// map is presized from the record counts.
	buckets := make(map[uint64]*storeLoadBucket, (len(res.Stores)+len(res.Loads))/4+1)
	var bkArena []storeLoadBucket
	get := func(line uint64) *storeLoadBucket {
		if b, ok := buckets[line]; ok {
			return b
		}
		if len(bkArena) == 0 {
			bkArena = make([]storeLoadBucket, 64)
		}
		b := &bkArena[0]
		bkArena = bkArena[1:]
		buckets[line] = b
		return b
	}
	for i := range res.Stores {
		st := &res.Stores[i]
		linesOf(st.Addr, st.Size, func(line uint64) {
			b := get(line)
			b.stores = append(b.stores, st)
		})
	}
	for i := range res.Loads {
		ld := &res.Loads[i]
		linesOf(ld.Addr, ld.Size, func(line uint64) {
			b := get(line)
			b.loads = append(b.loads, ld)
		})
	}

	// Iterate buckets in address order so report example fields (address,
	// thread pair, end kind) are deterministic for a given trace.
	lineKeys := make([]uint64, 0, len(buckets))
	for line := range buckets {
		lineKeys = append(lineKeys, line)
	}
	sort.Slice(lineKeys, func(i, j int) bool { return lineKeys[i] < lineKeys[j] })
	cfg.Metrics.Gauge("hawkset.analyze.buckets").Set(int64(len(lineKeys)))

	p := &pairing{
		res:      res,
		hbFilter: cfg.HBFilter,
		cmp:      newComparer(res.Locksets, res.VClocks, cfg.Epochs && res.EpochSafe, len(res.Stores)+len(res.Loads)),
		index:    make(map[reportKey]int),
	}
	for _, line := range lineKeys {
		p.storeLoad(line, buckets[line])
	}
	if cfg.StoreStore {
		for _, line := range lineKeys {
			p.storeStore(line, buckets[line])
		}
	}
}

// reportKey identifies one deduplicated report. Store-load and store-store
// pairs are distinct reports even when their sites coincide: a call site
// that both loads and stores (e.g. ctx.Store(dst, ctx.Load(src)) on one
// line) must not fold a write-write pair into a store-load report.
type reportKey struct {
	store, load sites.ID
	storeStore  bool
}

// pairing is the state of one stage-③ pass: the comparer's memo tables, the
// index of each report in res.Reports (which holds the reports in
// first-appearance order) and a reusable per-bucket load scratch.
type pairing struct {
	res      *Result
	hbFilter bool
	cmp      *comparer
	index    map[reportKey]int
	// ldScratch caches each load's last byte and spans-lines bit per bucket,
	// computed once instead of once per store×load pair.
	ldScratch []ldMeta
}

// storeLoad pairs the stores of one bucket with its loads (Algorithm 1).
func (p *pairing) storeLoad(line uint64, b *storeLoadBucket) {
	res := p.res
	if cap(p.ldScratch) < len(b.loads) {
		p.ldScratch = make([]ldMeta, len(b.loads))
	}
	lds := p.ldScratch[:len(b.loads)]
	for i, ld := range b.loads {
		lds[i] = ldMeta{last: lastAddrOf(ld.Addr, ld.Size), spans: spansLines(ld.Addr, ld.Size)}
	}
	for _, st := range b.stores {
		stLast := lastAddrOf(st.Addr, st.Size)
		stSpans := spansLines(st.Addr, st.Size)
		for i, ld := range b.loads {
			// A record spanning several lines appears in several buckets.
			// Process the pair only in the first bucket the two records
			// share, which counts it exactly once without a cross-bucket
			// dedup map.
			if (stSpans || lds[i].spans) && firstCommonLine(st.Addr, ld.Addr) != line {
				continue
			}

			res.Stats.PairsChecked++
			if st.TID == ld.TID { // Algorithm 1 line 16
				continue
			}
			// Inclusive-last interval test, equivalent to overlaps() with the
			// hoisted last-byte addresses. (Algorithm 1 line 15)
			if st.Addr > lds[i].last || ld.Addr > stLast {
				continue
			}
			if p.hbFilter && !p.cmp.mayRace(st, ld) { // line 17
				res.Stats.PairsHBFiltered++
				continue
			}
			if !p.cmp.disjoint(st.Eff, ld.LS) { // line 18
				res.Stats.PairsLockFiltered++
				continue
			}
			rep := p.report(reportKey{store: st.Site, load: ld.Site}, st, ld.TID)
			rep.Pairs++
			rep.Weight += st.Count * ld.Count
			if st.EndKind != EndPersist {
				rep.Unpersisted = true
				rep.EndKind = st.EndKind
				// Keep the example fields describing one real pair: a report
				// downgraded to a non-persist end kind must point at the
				// access pair that exhibits it, not at the first (possibly
				// persisted) pair's location.
				rep.Addr = st.Addr
				rep.StoreTID = st.TID
				rep.LoadTID = ld.TID
			}
		}
	}
}

// report returns the report for key, appending a new one whose example
// fields describe the pair (st, other thread otherTID) on first appearance.
// key.load names the second access's site: a load, or the later store of a
// store-store pair.
func (p *pairing) report(key reportKey, st *StoreData, otherTID int32) *Report {
	if i, ok := p.index[key]; ok {
		return &p.res.Reports[i]
	}
	p.index[key] = len(p.res.Reports)
	p.res.Reports = append(p.res.Reports, Report{
		StoreSite:  key.store,
		LoadSite:   key.load,
		StoreFrame: p.res.Sites.Lookup(key.store),
		LoadFrame:  p.res.Sites.Lookup(key.load),
		Addr:       st.Addr,
		StoreTID:   st.TID,
		LoadTID:    otherTID,
		EndKind:    st.EndKind,
		StoreStore: key.storeStore,
	})
	return &p.res.Reports[len(p.res.Reports)-1]
}

// storeStore pairs the store windows of one bucket with each other — the
// write-write checking of classic lockset analysis that HawkSet deliberately
// omits (§3.1.1). Two windows race if they can overlap in time (neither
// window end happens-before the other's start) and their effective locksets
// are disjoint.
func (p *pairing) storeStore(line uint64, b *storeLoadBucket) {
	for i, st := range b.stores {
		for _, st2 := range b.stores[i+1:] {
			if st.TID == st2.TID || !overlaps(st.Addr, st.Size, st2.Addr, st2.Size) {
				continue
			}
			if (spansLines(st.Addr, st.Size) || spansLines(st2.Addr, st2.Size)) &&
				firstCommonLine(st.Addr, st2.Addr) != line {
				continue
			}
			// Write-write racing is judged at the store instructions
			// themselves (the classic HB data-race check): an overwrite ends
			// the earlier window exactly at the later store, so window-overlap
			// reasoning would vacuously order every overwriting pair.
			if p.hbFilter && (p.cmp.leq(st.Start, st2.Start) || p.cmp.leq(st2.Start, st.Start)) {
				continue
			}
			if !p.cmp.disjoint(st.Eff, st2.Eff) {
				continue
			}
			rep := p.report(reportKey{store: st.Site, load: st2.Site, storeStore: true}, st, st2.TID)
			rep.Pairs++
			rep.Weight += st.Count * st2.Count
			if st.EndKind != EndPersist || st2.EndKind != EndPersist {
				rep.Unpersisted = true
			}
		}
	}
}

// storeLoadBucket groups the records of one cache line.
type storeLoadBucket struct {
	stores []*StoreData
	loads  []*LoadData
}

// firstCommonLine returns the lowest cache line covered by both access
// ranges starting at aAddr and bAddr — the one bucket in which a
// multi-line pair is processed.
func firstCommonLine(aAddr, bAddr uint64) uint64 {
	la, lb := pmem.LineOf(aAddr), pmem.LineOf(bAddr)
	if lb > la {
		return lb
	}
	return la
}

func spansLines(addr uint64, size uint32) bool {
	if size == 0 {
		return false
	}
	return pmem.LineOf(addr) != pmem.LineOf(lastAddrOf(addr, size))
}

// ldMeta is a load record's hoisted per-bucket pairing metadata.
type ldMeta struct {
	last  uint64
	spans bool
}

// comparer memoizes interned-ID comparisons for one stage-③ pass: the memo
// maps are written during pairing, while the underlying interning tables are
// read-only by then.
//
// With epochs enabled (Config.Epochs on a replay that kept the ownership
// invariant), leq answers through the (tid, tick) epoch recorded for owned
// clocks — one component read instead of a vector walk or a memo probe.
// disjoint first intersects the precomputed lock signatures (zero proves
// disjointness) and walks small sets directly; only large inconclusive
// pairs reach the memo.
type comparer struct {
	ls       *lockset.Table
	vc       *vclock.Table
	epochs   bool
	disjMemo map[[2]lockset.ID]bool
	leqMemo  map[[2]vclock.ID]bool
}

// newComparer builds a comparer. memoHint, the pass's record count, presizes
// the memo maps (capped: most pairs never reach a memo).
func newComparer(ls *lockset.Table, vc *vclock.Table, epochs bool, memoHint int) *comparer {
	if memoHint > 1<<12 {
		memoHint = 1 << 12
	}
	return &comparer{
		ls:       ls,
		vc:       vc,
		epochs:   epochs,
		disjMemo: make(map[[2]lockset.ID]bool, memoHint),
		leqMemo:  make(map[[2]vclock.ID]bool, memoHint),
	}
}

// disjoint reports whether the two interned locksets share no lock
// identity. Empty sets are disjoint from everything; equal non-empty IDs
// are never disjoint (integer short-circuit, §4).
func (c *comparer) disjoint(a, b lockset.ID) bool {
	if a == 0 || b == 0 {
		return true
	}
	if a == b {
		return false
	}
	if c.ls.Sig(a)&c.ls.Sig(b) == 0 {
		// No shared signature bit ⇒ no shared lock (exact negative).
		return true
	}
	sa, sb := c.ls.Get(a), c.ls.Get(b)
	if len(sa)+len(sb) <= 8 {
		// Small sets: the merge walk is cheaper than two memo probes.
		return lockset.DisjointLocks(sa, sb)
	}
	key := [2]lockset.ID{a, b}
	if v, ok := c.disjMemo[key]; ok {
		return v
	}
	v := lockset.DisjointLocks(sa, sb)
	c.disjMemo[key] = v
	c.disjMemo[[2]lockset.ID{b, a}] = v
	return v
}

func (c *comparer) leq(a, b vclock.ID) bool {
	if a == b {
		return true
	}
	if c.epochs {
		if tid, tick, ok := c.vc.Epoch(a); ok {
			return tick <= c.vc.Get(b).Get(int(tid))
		}
	}
	key := [2]vclock.ID{a, b}
	if v, ok := c.leqMemo[key]; ok {
		return v
	}
	v := vclock.Leq(c.vc.Get(a), c.vc.Get(b))
	c.leqMemo[key] = v
	return v
}

// mayRace applies the inter-thread happens-before filter to a store window
// and a load (§3.1.2). The load can fall inside the store's unpersisted
// window unless it happens-before the store instruction or the window's
// persist happens-before the load. Using the window end clock is what lets
// the analysis catch Fig. 3's Store₃/Persist₃ case; checking the window
// start as well additionally prunes loads that provably precede the store.
func (c *comparer) mayRace(st *StoreData, ld *LoadData) bool {
	if c.leq(ld.VC, st.Start) {
		return false // load happens-before the store: it cannot read it
	}
	if st.End != NoVC && c.leq(st.End, ld.VC) {
		return false // persisted (or overwritten) before the load could run
	}
	return true
}
