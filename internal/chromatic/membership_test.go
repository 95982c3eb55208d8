package chromatic

import (
	"fmt"
	"testing"

	"repro/internal/procs"
)

// pseudoMember is a pure deterministic predicate selecting an arbitrary
// sub-complex — a hash over the packed run key, so acceptance varies
// with both rounds.
var pseudoMember Membership = func(_ Run2, key RunKey) bool {
	return (key.R1*2654435761+key.R2*40503)%3 == 0
}

// TestMembershipTableMatchesCallback pins the table-vs-callback
// equivalence on every ground set of n ≤ 4: the precomputed bitset
// answers every ranked run exactly like the predicate it was built
// from.
func TestMembershipTableMatchesCallback(t *testing.T) {
	preds := []struct {
		name string
		m    Membership
	}{
		{"full", FullChr2Membership},
		{"restricted", restrictedMember},
		{"pseudo", pseudoMember},
	}
	for _, n := range []int{1, 2, 3, 4} {
		for _, pred := range preds {
			t.Run(fmt.Sprintf("n=%d/%s", n, pred.name), func(t *testing.T) {
				for _, ground := range procs.NonemptySubsets(procs.FullSet(n)) {
					mt := NewMembershipTable(ground, pred.m)
					if mt.NumRuns() != RunCount(ground) {
						t.Fatalf("ground %v: NumRuns = %d, want %d", ground, mt.NumRuns(), RunCount(ground))
					}
					count := 0
					ForEachRun2Ranked(ground, func(r Run2, key RunKey, rank RunRank) bool {
						want := pred.m(r, key)
						if mt.Contains(rank) != want {
							t.Fatalf("ground %v rank %d: table says %v, callback %v",
								ground, rank, mt.Contains(rank), want)
						}
						if want {
							count++
						}
						return true
					})
					if mt.Len() != count {
						t.Fatalf("ground %v: Len = %d, want %d", ground, mt.Len(), count)
					}
				}
			})
		}
	}
}

// TestFullTableIsAllAccepting pins the nil-words fast path: the cached
// full-ground table accepts everything and reports every row non-empty.
func TestFullTableIsAllAccepting(t *testing.T) {
	ground := procs.FullSet(3)
	mt := FullChr2Tables.MembershipTable(ground)
	if mt.Len() != mt.NumRuns() {
		t.Fatalf("full table Len %d != NumRuns %d", mt.Len(), mt.NumRuns())
	}
	for i := 0; i < mt.NumParts(); i++ {
		if !mt.RowAny(i) {
			t.Fatalf("full table row %d reported empty", i)
		}
	}
}

// TestApplyAffineTablesMatchesCallback checks a predicate adapted with
// TablesOf subdivides identically through the serial and the parallel
// table path: the same complexes and carriers at 1 and 8 workers, each
// from a fresh adapter.
func TestApplyAffineTablesMatchesCallback(t *testing.T) {
	for _, n := range []int{2, 3} {
		base := standardBase(t, n)
		serial, err := ApplyAffineTables(base, TablesOf(pseudoMember), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			viaTables, err := ApplyAffineTables(base, TablesOf(pseudoMember), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Complex.Equal(viaTables.Complex) {
				t.Fatalf("n=%d workers=%d: complex differs from the serial reference", n, workers)
			}
			for _, v := range serial.Complex.VertexIDs() {
				if !serial.Carrier(v).Equal(viaTables.Carrier(v)) {
					t.Fatalf("n=%d workers=%d: carrier of %d differs", n, workers, v)
				}
			}
		}
	}
}

// TestMemoArenaReuse exercises the generation-counter arena directly:
// records vanish after reset without reallocation, both on the flat
// slot path and on the map fallback for oversized grounds.
func TestMemoArenaReuse(t *testing.T) {
	flat := newMemoArena[int](procs.FullSet(4), 4)
	if flat.slots == nil {
		t.Fatal("n=4 ground should use the flat slot path")
	}
	// A ground with a high bit set pushes members<<width beyond
	// arenaMaxSlots: the arena must fall back to the map.
	big := newMemoArena[int](procs.Set(1)<<15, 4)
	if big.over == nil {
		t.Fatal("oversized ground should use the map fallback")
	}
	for name, a := range map[string]*memoArena[int]{"flat": flat, "map": big} {
		if _, ok := a.get(1, 3); ok {
			t.Fatalf("%s: fresh arena reported a hit", name)
		}
		a.put(1, 3, 42)
		a.put(2, 1, 7)
		if v, ok := a.get(1, 3); !ok || v != 42 {
			t.Fatalf("%s: get(1,3) = %d,%v want 42,true", name, v, ok)
		}
		a.reset()
		if _, ok := a.get(1, 3); ok {
			t.Fatalf("%s: record survived reset", name)
		}
		a.put(1, 3, 9)
		if v, ok := a.get(1, 3); !ok || v != 9 {
			t.Fatalf("%s: post-reset put lost: %d,%v", name, v, ok)
		}
	}
}

// TestArenaReuseAcrossTowerLevels is the race-exercised arena test
// (run under -race in CI): repeated Extend calls at one and at eight
// workers reuse per-worker arenas across rows and levels, and the
// towers stay byte-identical.
func TestArenaReuseAcrossTowerLevels(t *testing.T) {
	build := func(workers int) *Tower {
		tower := newTower(standardBase(t, 3), workers)
		for i := 0; i < 2; i++ {
			if err := tower.extend(TablesOf(pseudoMember)); err != nil {
				t.Fatal(err)
			}
		}
		return tower
	}
	w1 := build(1)
	w8 := build(8)
	if !w1.Top().Equal(w8.Top()) {
		t.Fatal("tower tops differ between 1 and 8 workers")
	}
	if w1.Top().Hash() != w8.Top().Hash() {
		t.Fatal("tower hashes differ between 1 and 8 workers")
	}
	roots1, roots8 := w1.RootCarriers(2), w8.RootCarriers(2)
	for _, v := range w1.Top().VertexIDs() {
		if !roots1[v].Equal(roots8[v]) {
			t.Fatalf("root carrier of %d differs", v)
		}
	}
}
