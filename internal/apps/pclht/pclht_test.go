package pclht

import (
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/pmrt"
)

func TestPutGetDelete(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
	tab := New(rt, true).(*Table)
	err := rt.Run(func(c *pmrt.Ctx) {
		tab.Setup(c)
		for i := uint64(0); i < 400; i++ {
			tab.Put(c, i, i+1000)
		}
		for i := uint64(0); i < 400; i++ {
			v, ok := tab.Get(c, i)
			if !ok || v != i+1000 {
				t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
			}
		}
		tab.Put(c, 3, 42)
		if v, _ := tab.Get(c, 3); v != 42 {
			t.Fatal("update failed")
		}
		tab.Delete(c, 3)
		if _, ok := tab.Get(c, 3); ok {
			t.Fatal("deleted key still present")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRehashGrowsTable: enough inserts trigger a rehash and the data
// survives it.
func TestRehashGrowsTable(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
	tab := New(rt, true).(*Table)
	const n = 2000 // > 256 buckets × 3 × 0.75
	err := rt.Run(func(c *pmrt.Ctx) {
		tab.Setup(c)
		before := tab.loadRoot(c).nBuckets
		for i := uint64(0); i < n; i++ {
			tab.Put(c, i, i)
		}
		after := tab.loadRoot(c).nBuckets
		if after <= before {
			t.Fatalf("no rehash: %d -> %d buckets", before, after)
		}
		for i := uint64(0); i < n; i++ {
			if v, ok := tab.Get(c, i); !ok || v != i {
				t.Fatalf("post-rehash Get(%d) = (%d,%v)", i, v, ok)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuggyRehashLosesRootPointer: crash right after a buggy rehash recovers
// to the old, stale table root (bug #4's failure mode).
func TestBuggyRehashLosesRootPointer(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 64 << 20})
	tab := New(rt, false).(*Table)
	var volatileRoot uint64
	err := rt.Run(func(c *pmrt.Ctx) {
		tab.Setup(c)
		for i := uint64(0); i < 2000; i++ {
			tab.Put(c, i, i)
		}
		volatileRoot = c.Load8(tab.meta)
	})
	if err != nil {
		t.Fatal(err)
	}
	persistedRoot := rt.Pool.ReadPersistent8(tab.meta)
	if persistedRoot == volatileRoot {
		t.Fatal("buggy rehash persisted the root pointer — bug #4 not seeded")
	}
}

// TestSpinLockWordReported: the CAS lock words live in PM and are stored
// without flushes, so the lockset analysis reports them — the realistic
// source of P-CLHT's non-zero FP/BR tail in Table 4.
func TestSpinLockWordReported(t *testing.T) {
	e, err := apps.Lookup("P-CLHT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := apps.Detect(e, e.Workload(2000, 5), apps.RunConfig{Seed: 5, Fixed: true}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fixed variant: no malign races, but some reports remain (lock words,
	// lock-free readers).
	if bd := apps.Breakdown(e, res); bd[apps.Malign] != 0 {
		t.Fatalf("fixed P-CLHT has malign reports: %v", bd)
	}
	if len(res.Reports) == 0 {
		t.Fatal("expected residual benign/FP reports from CAS lock words and lock-free gets")
	}
}
