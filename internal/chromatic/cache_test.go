package chromatic

import (
	"fmt"
	"testing"
)

// TestTowerCacheEviction checks the byte budget: distinct signatures
// accrete towers until the budget is exceeded, then the
// least-recently-acquired unpinned entries are evicted and re-acquiring
// them is a miss that rebuilds.
func TestTowerCacheEviction(t *testing.T) {
	base := standardBase(t, 3)
	one := NewTower(base)
	if err := one.ExtendTables(FullChr2Tables); err != nil {
		t.Fatal(err)
	}
	towerBytes := one.ApproxBytes()
	if towerBytes <= 0 {
		t.Fatalf("ApproxBytes = %d, want > 0", towerBytes)
	}

	// Budget for about two extended towers.
	cache := NewTowerCacheWithBudget(2*towerBytes + towerBytes/2)
	acquire := func(sig string) *CachedTower {
		ct := cache.Acquire(sig, base, 1)
		if err := ct.EnsureHeightTables(FullChr2Tables, 1); err != nil {
			t.Fatal(err)
		}
		return ct
	}
	for i := 0; i < 4; i++ {
		acquire(fmt.Sprintf("sig-%d", i)).Release()
	}
	st := cache.Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after 4 towers against a 2-tower budget: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident %d bytes above budget %d with everything released", st.Bytes, st.MaxBytes)
	}
	if cache.Len() >= 4 {
		t.Fatalf("len = %d, want < 4 after eviction", cache.Len())
	}
	// sig-0 was the coldest entry: re-acquiring it must be a miss.
	misses0 := st.Misses
	acquire("sig-0").Release()
	if _, misses := cache.Stats(); misses != misses0+1 {
		t.Fatalf("re-acquire of evicted entry: misses = %d, want %d", misses, misses0+1)
	}
}

// TestTowerCacheLRUOrder checks recency: touching an old entry saves it
// and sacrifices the colder one instead.
func TestTowerCacheLRUOrder(t *testing.T) {
	base := standardBase(t, 3)
	probe := NewTower(base)
	if err := probe.ExtendTables(FullChr2Tables); err != nil {
		t.Fatal(err)
	}
	cache := NewTowerCacheWithBudget(2*probe.ApproxBytes() + probe.ApproxBytes()/2)
	build := func(sig string) {
		ct := cache.Acquire(sig, base, 1)
		if err := ct.EnsureHeightTables(FullChr2Tables, 1); err != nil {
			t.Fatal(err)
		}
		ct.Release()
	}
	build("a")
	build("b")
	cache.Acquire("a", base, 1).Release() // refresh a: b is now coldest
	build("c")                            // evicts b, not a
	hits0, _ := cache.Stats()
	cache.Acquire("a", base, 1).Release()
	if hits, _ := cache.Stats(); hits != hits0+1 {
		t.Fatal("entry 'a' should have survived eviction (it was refreshed)")
	}
	_, misses0 := cache.Stats()
	cache.Acquire("b", base, 1).Release()
	if _, misses := cache.Stats(); misses != misses0+1 {
		t.Fatal("entry 'b' should have been evicted as the coldest")
	}
}

// TestTowerCachePinnedSurvives checks that a pinned (acquired, not yet
// released) tower is never evicted, even when the budget is blown, and
// that an evicted-while-held tower keeps working.
func TestTowerCachePinnedSurvives(t *testing.T) {
	base := standardBase(t, 3)
	cache := NewTowerCacheWithBudget(1) // everything over budget
	pinned := cache.Acquire("pinned", base, 1)
	if err := pinned.EnsureHeightTables(FullChr2Tables, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ct := cache.Acquire(fmt.Sprintf("other-%d", i), base, 1)
		if err := ct.EnsureHeightTables(FullChr2Tables, 1); err != nil {
			t.Fatal(err)
		}
		ct.Release() // immediately evictable: budget is 1 byte
	}
	hits0, _ := cache.Stats()
	again := cache.Acquire("pinned", base, 1)
	if again != pinned {
		t.Fatal("pinned entry was evicted")
	}
	if hits, _ := cache.Stats(); hits != hits0+1 {
		t.Fatal("pinned re-acquire should be a hit")
	}
	again.Release()
	pinned.Release()
	// Now unpinned: the 1-byte budget evicts it.
	if cache.Len() != 0 {
		t.Fatalf("len = %d, want 0 once every pin is released", cache.Len())
	}
	// The held tower object itself must remain usable after eviction.
	if err := pinned.EnsureHeightTables(FullChr2Tables, 2); err != nil {
		t.Fatalf("evicted-but-held tower failed to extend: %v", err)
	}
	if pinned.Tower().Height() != 2 {
		t.Fatalf("height = %d, want 2", pinned.Tower().Height())
	}
	// Double-release of an evicted entry is a no-op, not a panic.
	pinned.Release()
}

// TestTowerCacheUnboundedNeverEvicts pins the legacy behavior: without
// a budget nothing is evicted and Release is optional.
func TestTowerCacheUnboundedNeverEvicts(t *testing.T) {
	base := standardBase(t, 3)
	cache := NewTowerCache()
	for i := 0; i < 5; i++ {
		ct := cache.Acquire(fmt.Sprintf("sig-%d", i), base, 1)
		if err := ct.EnsureHeightTables(FullChr2Tables, 1); err != nil {
			t.Fatal(err)
		}
		// No Release: unbounded caches must not care.
	}
	st := cache.Snapshot()
	if st.Evictions != 0 || st.Towers != 5 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("size accounting missing: %+v", st)
	}
}

// TestSetMaxBytesEvictsImmediately checks installing a budget on a full
// cache trims it without waiting for the next Acquire.
func TestSetMaxBytesEvictsImmediately(t *testing.T) {
	base := standardBase(t, 3)
	cache := NewTowerCache()
	for i := 0; i < 3; i++ {
		ct := cache.Acquire(fmt.Sprintf("sig-%d", i), base, 1)
		if err := ct.EnsureHeightTables(FullChr2Tables, 1); err != nil {
			t.Fatal(err)
		}
		ct.Release()
	}
	if cache.Len() != 3 {
		t.Fatalf("len = %d, want 3", cache.Len())
	}
	cache.SetMaxBytes(1)
	if cache.Len() != 0 {
		t.Fatalf("len = %d after SetMaxBytes(1), want 0", cache.Len())
	}
	st := cache.Snapshot()
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
}
