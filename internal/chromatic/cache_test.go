package chromatic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/procs"
)

// TestTowerCacheEviction checks the byte budget: distinct signatures
// accrete towers until the budget is exceeded, then the
// least-recently-acquired unpinned entries are evicted and re-acquiring
// them is a miss that rebuilds.
func TestTowerCacheEviction(t *testing.T) {
	base := standardBase(t, 3)
	one := newTower(base, 1)
	if err := one.extend(FullChr2Tables); err != nil {
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
	probe := newTower(base, 1)
	if err := probe.extend(FullChr2Tables); err != nil {
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

// TestNilTowerCacheUnshared pins the nil-cache contract: every Acquire
// on a nil *TowerCache hands out a tower of its own that builds the
// same levels a cached tower does, and Release on it does nothing.
func TestNilTowerCacheUnshared(t *testing.T) {
	base := standardBase(t, 3)
	cache := NewTowerCache()
	shared := cache.Acquire("sig", base, 1)
	defer shared.Release()
	if err := shared.EnsureHeightTables(FullChr2Tables, 2); err != nil {
		t.Fatal(err)
	}

	var none *TowerCache
	a := none.Acquire("sig", base, 1)
	b := none.Acquire("sig", base, 2)
	if a == b || a.Tower() == b.Tower() {
		t.Fatal("a nil cache handed out one tower twice")
	}
	for _, ct := range []*CachedTower{a, b} {
		if err := ct.EnsureHeightTables(FullChr2Tables, 2); err != nil {
			t.Fatal(err)
		}
		for level := 1; level <= 2; level++ {
			if got, want := ct.Tower().LevelComplex(level).Hash(), shared.Tower().LevelComplex(level).Hash(); got != want {
				t.Fatalf("level %d hash %s, cached tower %s", level, got, want)
			}
		}
		ct.Release()
		ct.Release()
		if h := ct.Tower().Height(); h != 2 {
			t.Fatalf("height %d after Release, want 2", h)
		}
	}
}

// gatedTables is Chr² whose MembershipTable calls, once armed, block
// until gate is done; the first blocked call signals entered. (This
// package's tests shadow the close builtin.)
type gatedTables struct {
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{} // capacity 1: the one signal
	gate    sync.WaitGroup
}

func (g *gatedTables) MembershipTable(ground procs.Set) *MembershipTable {
	if g.armed.Load() {
		g.once.Do(func() { g.entered <- struct{}{} })
		g.gate.Wait()
	}
	return FullChr2Tables.MembershipTable(ground)
}

// TestEnsureBuiltHeightDuringExtension: while one caller's extension
// to level 2 is blocked inside MembershipTable, a caller that needs
// only the built level 1 of the same tower returns at once instead of
// waiting for the extension.
func TestEnsureBuiltHeightDuringExtension(t *testing.T) {
	cache := NewTowerCache()
	ct := cache.Acquire("gated", standardBase(t, 2), 1)
	defer ct.Release()
	g := &gatedTables{entered: make(chan struct{}, 1)}
	if err := ct.EnsureHeightTables(g, 1); err != nil {
		t.Fatal(err)
	}
	g.gate.Add(1)
	g.armed.Store(true)
	extended := make(chan error, 1)
	go func() { extended <- ct.EnsureHeightTables(g, 2) }()
	<-g.entered
	built := make(chan error, 1)
	go func() { built <- ct.EnsureHeightTables(g, 1) }()
	select {
	case err := <-built:
		if err != nil {
			t.Errorf("EnsureHeightTables(…, 1): %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("EnsureHeightTables(…, 1) still waits behind the level-2 extension after 5 s")
	}
	g.gate.Done()
	if err := <-extended; err != nil {
		t.Fatal(err)
	}
	if h := ct.Tower().Height(); h != 2 {
		t.Fatalf("height %d after the extension, want 2", h)
	}
}
