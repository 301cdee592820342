package fastfair

import (
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/pmrt"
	"hawkset/internal/ycsb"
)

func entry(t *testing.T) *apps.Entry {
	t.Helper()
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFunctional checks the tree is a correct ordered map under a
// single-threaded workload.
func TestFunctional(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
	tree := New(rt, true).(*Tree)
	err := rt.Run(func(c *pmrt.Ctx) {
		tree.Setup(c)
		ref := map[uint64]uint64{}
		for i := uint64(0); i < 500; i++ {
			k := (i * 2654435761) % 1000
			tree.Insert(c, k, i)
			ref[k] = i
		}
		for k, v := range ref {
			got, ok := tree.Get(c, k)
			if !ok || got != v {
				t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
			}
		}
		if _, ok := tree.Get(c, 99999); ok {
			t.Fatal("Get of absent key succeeded")
		}
		// Delete half the keys.
		i := 0
		for k := range ref {
			if i%2 == 0 {
				tree.Delete(c, k)
				delete(ref, k)
			}
			i++
		}
		for k, v := range ref {
			if got, ok := tree.Get(c, k); !ok || got != v {
				t.Fatalf("after deletes Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFunctional runs the YCSB mix with 8 threads and verifies
// inserted keys are retrievable afterwards.
func TestConcurrentFunctional(t *testing.T) {
	e := entry(t)
	w := ycsb.Generate(ycsb.DefaultSpec(2000), 7)
	rt, err := apps.Run(e, w, apps.RunConfig{Seed: 7, Fixed: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Trace.Len() == 0 {
		t.Fatal("no trace recorded")
	}
}

// TestDetectsBugs: HawkSet finds both Table 2 Fast-Fair bugs on a workload
// big enough to grow the tree.
func TestDetectsBugs(t *testing.T) {
	e := entry(t)
	res, err := apps.Detect(e, e.Workload(2000, 3), apps.RunConfig{Seed: 3}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := apps.FoundBugs(e, res)
	if len(found) != 2 || found[0] != 1 || found[1] != 2 {
		t.Fatalf("FoundBugs = %v, want [1 2]; reports:\n%s", found, dump(res))
	}
}

// TestFixedVariantClean: the fixed tree yields no malign reports.
func TestFixedVariantClean(t *testing.T) {
	e := entry(t)
	res, err := apps.Detect(e, e.Workload(2000, 3), apps.RunConfig{Seed: 3, Fixed: true}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if found := apps.FoundBugs(e, res); len(found) != 0 {
		t.Fatalf("fixed variant still reports bugs %v:\n%s", found, dump(res))
	}
	bd := apps.Breakdown(e, res)
	if bd[apps.Malign] != 0 {
		t.Fatalf("fixed variant has %d malign reports:\n%s", bd[apps.Malign], dump(res))
	}
}

// TestBenignRacesReported: the lock-free reads still yield benign reports
// (§7: lockset analysis fundamentally reports lock-free readers).
func TestBenignRacesReported(t *testing.T) {
	e := entry(t)
	res, err := apps.Detect(e, e.Workload(2000, 3), apps.RunConfig{Seed: 3, Fixed: true}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bd := apps.Breakdown(e, res)
	if bd[apps.Benign] == 0 {
		t.Fatalf("no benign reports from lock-free reads:\n%s", dump(res))
	}
}

// TestNoFalsePositivesWithIRH: with the IRH on, every Fast-Fair report
// classifies as malign or benign (Table 4 row: FP=0 after IRH).
func TestNoFalsePositivesWithIRH(t *testing.T) {
	e := entry(t)
	res, err := apps.Detect(e, e.Workload(2000, 3), apps.RunConfig{Seed: 3}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bd := apps.Breakdown(e, res)
	if bd[apps.FalsePositive] != 0 {
		t.Fatalf("IRH left %d false positives:\n%s", bd[apps.FalsePositive], dump(res))
	}
}

// TestIRHPrunesReports: disabling the IRH yields strictly more reports, all
// of the extras being false positives (Table 4).
func TestIRHPrunesReports(t *testing.T) {
	e := entry(t)
	on, err := apps.Detect(e, e.Workload(2000, 3), apps.RunConfig{Seed: 3}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hawkset.DefaultConfig()
	cfg.IRH = false
	off, err := apps.Detect(e, e.Workload(2000, 3), apps.RunConfig{Seed: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Reports) <= len(on.Reports) {
		t.Fatalf("IRH off: %d reports, on: %d — expected pruning", len(off.Reports), len(on.Reports))
	}
	// The IRH must not prune malign races.
	if f := apps.FoundBugs(e, on); len(f) != 2 {
		t.Fatalf("IRH pruned malign bugs: %v", f)
	}
}

// TestSmallWorkloadMissesRareBug: with a tiny workload that never grows the
// tree past one level, bug #2's branch is never covered — HawkSet needs
// coverage, not luck (§5.6).
func TestSmallWorkloadMissesRareBug(t *testing.T) {
	e := entry(t)
	spec := ycsb.DefaultSpec(4)
	spec.LoadCount = 2
	spec.KeySpace = 4
	w := ycsb.Generate(spec, 1)
	res, err := apps.Detect(e, w, apps.RunConfig{Seed: 1}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range apps.FoundBugs(e, res) {
		if id == 2 {
			t.Fatal("bug #2 reported without tree growth — coverage accounting broken")
		}
	}
}

// TestCrashLosesUnpersistedSplit demonstrates bug #1 end to end: force a
// split, crash, and observe the sibling pointer missing from the post-crash
// image while it was visible before the crash.
func TestCrashLosesUnpersistedSplit(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
	tree := New(rt, false).(*Tree)
	var rootBefore uint64
	err := rt.Run(func(c *pmrt.Ctx) {
		tree.Setup(c)
		for i := uint64(0); i < fanout+1; i++ { // one split + root growth
			tree.Insert(c, i, i)
		}
		rootBefore = c.Load8(tree.meta)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Volatile view saw the new root...
	rootAfterCrash := rt.Pool.ReadPersistent8(tree.meta)
	if rootAfterCrash == rootBefore {
		t.Fatal("buggy growRoot unexpectedly persisted the root pointer")
	}
}

func dump(res *hawkset.Result) string {
	s := ""
	for _, r := range res.Reports {
		s += r.String() + "\n"
	}
	return s
}

// TestScan: range scans return sorted results and witness bug #1's
// unpersisted sibling pointers.
func TestScan(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
	tree := New(rt, true).(*Tree)
	err := rt.Run(func(c *pmrt.Ctx) {
		tree.Setup(c)
		for i := uint64(0); i < 100; i++ {
			tree.Insert(c, i*2, i)
		}
		got := tree.Scan(c, 50, 10)
		if len(got) != 10 {
			t.Fatalf("scan returned %d pairs, want 10", len(got))
		}
		prev := uint64(0)
		for i, kv := range got {
			if kv[0] < 50 {
				t.Fatalf("scan returned key %d below start", kv[0])
			}
			if i > 0 && kv[0] <= prev {
				t.Fatalf("scan out of order: %d after %d", kv[0], prev)
			}
			if kv[1] != kv[0]/2 {
				t.Fatalf("scan value mismatch: key %d value %d", kv[0], kv[1])
			}
			prev = kv[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanWorkloadDetectsBug1: a scan-heavy (YCSB-E style) workload also
// exposes bug #1 — scans traverse the unpersisted sibling pointers.
func TestScanWorkloadDetectsBug1(t *testing.T) {
	e := entry(t)
	spec := ycsb.DefaultSpec(2000)
	spec.Mix = ycsb.ScanMix()
	w := ycsb.Generate(spec, 5)
	res, err := apps.Detect(e, w, apps.RunConfig{Seed: 5}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := apps.FoundBugs(e, res)
	has1 := false
	for _, id := range found {
		if id == 1 {
			has1 = true
		}
	}
	if !has1 {
		t.Fatalf("scan workload missed bug #1; found %v", found)
	}
}

// TestCrashRecovery is the full crash/recovery cycle: run, reboot the
// device (volatile domain lost), attach a fresh tree to the surviving
// image, and read it back. The fixed variant recovers every key —
// Fast-Fair's headline design property ("atomic insertions without the need
// for a recovery process"); the buggy variant has lost data.
func TestCrashRecovery(t *testing.T) {
	for _, fixed := range []bool{true, false} {
		rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
		tree := New(rt, fixed).(*Tree)
		const n = 300
		err := rt.Run(func(c *pmrt.Ctx) {
			tree.Setup(c)
			for i := uint64(0); i < n; i++ {
				tree.Insert(c, i, i+7)
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		// Crash + reboot: cache contents are gone.
		rt.Pool.Reboot()
		rt2 := pmrt.NewWithPool(pmrt.Config{Seed: 2, PoolSize: 64 << 20}, rt.Pool, rt.Heap)
		recovered := Attach(rt2, tree.Meta(), fixed)
		missing := 0
		err = rt2.Run(func(c *pmrt.Ctx) {
			for i := uint64(0); i < n; i++ {
				if v, ok := recovered.Get(c, i); !ok || v != i+7 {
					missing++
				}
			}
			// The recovered tree must accept new writes.
			recovered.Insert(c, 1<<40, 99)
			if v, ok := recovered.Get(c, 1<<40); !ok || v != 99 {
				t.Error("recovered tree rejects new inserts")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if fixed && missing != 0 {
			t.Fatalf("fixed variant lost %d/%d keys across the crash", missing, n)
		}
		if !fixed && missing == 0 {
			t.Fatal("buggy variant lost nothing across the crash — bugs #1/#2 not seeded")
		}
	}
}

// TestDeepTreeSplits drives enough ascending inserts to force internal-node
// splits and repeated root growth (three levels), then verifies every key
// and ordered scans across the whole key range.
func TestDeepTreeSplits(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
	tree := New(rt, true).(*Tree)
	const n = 2000 // >> fanout^2: forces splitInternal and multiple growths
	err := rt.Run(func(c *pmrt.Ctx) {
		tree.Setup(c)
		for i := uint64(0); i < n; i++ {
			tree.Insert(c, i, i^0xabc)
		}
		for i := uint64(0); i < n; i++ {
			if v, ok := tree.Get(c, i); !ok || v != i^0xabc {
				t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
			}
		}
		// A full scan from 0 must return all keys in order.
		got := tree.Scan(c, 0, n)
		if len(got) != n {
			t.Fatalf("full scan returned %d/%d", len(got), n)
		}
		for i, kv := range got {
			if kv[0] != uint64(i) {
				t.Fatalf("scan[%d] = key %d", i, kv[0])
			}
		}
		// Descending inserts over a second range exercise pos-0 shifts.
		for i := uint64(0); i < 200; i++ {
			k := 1<<20 - i
			tree.Insert(c, k, k)
		}
		for i := uint64(0); i < 200; i++ {
			k := 1<<20 - i
			if v, ok := tree.Get(c, k); !ok || v != k {
				t.Fatalf("descending Get(%d) = (%d,%v)", k, v, ok)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The fixed tree's crash image must hold everything.
	if viol := tree.ValidateCrash(rt.Pool); len(viol) != 0 {
		t.Fatalf("fixed deep tree corrupt: %v", viol)
	}
}
