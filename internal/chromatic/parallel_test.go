package chromatic

import (
	"fmt"
	"testing"

	"repro/internal/sc"
)

func standardBase(t testing.TB, n int) *sc.Complex {
	t.Helper()
	c := sc.NewComplex(n)
	ids := make([]sc.VertexID, n)
	for i := 0; i < n; i++ {
		ids[i] = sc.VertexID(i)
		if err := c.AddVertex(ids[i], i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddSimplex(ids...); err != nil {
		t.Fatal(err)
	}
	return c
}

// restrictedMember is a pure, concurrency-safe membership predicate
// that selects a strict sub-complex of Chr²: runs whose first round has
// at most two blocks.
var restrictedMember Membership = func(r Run2, _ RunKey) bool { return len(r.R1) <= 2 }

// TestApplyAffineParallelDeterminism asserts the parallel engine is
// byte-identical to the serial path: same vertex IDs, labels, carriers
// and simplices for every worker count.
func TestApplyAffineParallelDeterminism(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, member := range []struct {
			name string
			m    Membership
		}{
			{"full", FullChr2Membership},
			{"restricted", restrictedMember},
		} {
			t.Run(fmt.Sprintf("n=%d/%s", n, member.name), func(t *testing.T) {
				base := standardBase(t, n)
				serial, err := ApplyAffineTables(base, TablesOf(member.m), 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 8} {
					parallel, err := ApplyAffineTables(base, TablesOf(member.m), workers)
					if err != nil {
						t.Fatal(err)
					}
					if !serial.Complex.Equal(parallel.Complex) {
						t.Fatalf("workers=%d: complexes differ", workers)
					}
					if serial.Complex.Hash() != parallel.Complex.Hash() {
						t.Fatalf("workers=%d: hashes differ", workers)
					}
					for _, v := range serial.Complex.VertexIDs() {
						if !serial.Carrier(v).Equal(parallel.Carrier(v)) {
							t.Fatalf("workers=%d: carrier of %d differs", workers, v)
						}
					}
				}
			})
		}
	}
}

// TestTowerParallelDeterminism iterates two levels and compares serial
// vs parallel towers, including root carriers.
func TestTowerParallelDeterminism(t *testing.T) {
	base := standardBase(t, 3)
	serial := newTower(base, 1)
	parallel := newTower(base, 8)
	for i := 0; i < 2; i++ {
		if err := serial.extend(TablesOf(restrictedMember)); err != nil {
			t.Fatal(err)
		}
		if err := parallel.extend(TablesOf(restrictedMember)); err != nil {
			t.Fatal(err)
		}
	}
	if !serial.Top().Equal(parallel.Top()) {
		t.Fatal("tower tops differ")
	}
	serialRoots, parallelRoots := serial.RootCarriers(2), parallel.RootCarriers(2)
	for _, v := range serial.Top().VertexIDs() {
		if !serialRoots[v].Equal(parallelRoots[v]) {
			t.Fatalf("root carrier of %d differs", v)
		}
	}
}

// TestTowerCache asserts that acquiring the same (signature, input)
// returns the same tower and that levels are built exactly once.
func TestTowerCache(t *testing.T) {
	cache := NewTowerCache()
	base := standardBase(t, 3)
	ct1 := cache.Acquire("sig-a", base, 0)
	if err := ct1.EnsureHeightTables(FullChr2Tables, 1); err != nil {
		t.Fatal(err)
	}
	ct2 := cache.Acquire("sig-a", base, 0)
	if ct1 != ct2 {
		t.Fatal("same key must return the same cached tower")
	}
	if ct2.Tower().Height() != 1 {
		t.Fatalf("height = %d, want 1 (reused)", ct2.Tower().Height())
	}
	top := ct2.Tower().Top()
	if err := ct2.EnsureHeightTables(FullChr2Tables, 1); err != nil {
		t.Fatal(err)
	}
	if ct2.Tower().Top() != top {
		t.Fatal("EnsureHeight rebuilt an existing level")
	}
	// A different signature over the same input is a distinct entry.
	ct3 := cache.Acquire("sig-b", base, 0)
	if ct3 == ct1 {
		t.Fatal("different signatures must not share towers")
	}
	// An equal-but-distinct input complex hits the same entry.
	ct4 := cache.Acquire("sig-a", standardBase(t, 3), 0)
	if ct4 != ct1 {
		t.Fatal("hash-equal inputs must share the cached tower")
	}
	hits, misses := cache.Stats()
	if misses != 2 || hits != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2/2", hits, misses)
	}
	if cache.Len() != 2 {
		t.Fatalf("len = %d, want 2", cache.Len())
	}
}
