package solver

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/tasks"
)

// TestSolveParallelDeterminism asserts that the parallel engine returns
// the same decision, round and witness map as the serial path on the
// E12 battery.
func TestSolveParallelDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		adv    *adversary.Adversary
		k      int
		rounds int
		want   bool
	}{
		{"1-OF/k=1", adversary.KObstructionFree(3, 1), 1, 1, true},
		{"1-res/k=1", adversary.TResilient(3, 1), 1, 1, false},
		{"1-res/k=2", adversary.TResilient(3, 1), 2, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ra := buildRA(t, c.adv)
			task := tasks.KSetConsensus(3, c.k)
			serial, err := SolveAffineWith(task, ra, c.rounds, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Solvable != c.want {
				t.Fatalf("serial solvable = %v, want %v", serial.Solvable, c.want)
			}
			for _, workers := range []int{2, 8} {
				par, err := SolveAffineWith(task, ra, c.rounds, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Solvable != serial.Solvable || par.Rounds != serial.Rounds {
					t.Fatalf("workers=%d: (%v, %d) != serial (%v, %d)",
						workers, par.Solvable, par.Rounds, serial.Solvable, serial.Rounds)
				}
				if len(par.Map) != len(serial.Map) {
					t.Fatalf("workers=%d: map sizes differ: %d vs %d",
						workers, len(par.Map), len(serial.Map))
				}
				for v, o := range serial.Map {
					if par.Map[v] != o {
						t.Fatalf("workers=%d: map[%d] = %d, want %d", workers, v, par.Map[v], o)
					}
				}
				if fmt.Sprint(par.ComplexSizes) != fmt.Sprint(serial.ComplexSizes) {
					t.Fatalf("workers=%d: complex sizes differ", workers)
				}
			}
			if serial.Solvable {
				if err := VerifyWitnessTables(task, ra, serial.Rounds, serial.Map, Options{}); err != nil {
					t.Fatalf("witness invalid: %v", err)
				}
			}
		})
	}
}

// TestSolveAffineCacheReuse asserts that repeated SolveAffine calls
// against the same model and input reuse the memoized R_A^ℓ(I): one
// miss on first use, hits afterwards — including across distinct task
// instances with hash-equal inputs.
func TestSolveAffineCacheReuse(t *testing.T) {
	ra := buildRA(t, adversary.TResilient(3, 1))
	cache := chromatic.NewTowerCache()
	opts := Options{Cache: cache}

	first, err := SolveAffineWith(tasks.KSetConsensus(3, 2), ra, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first call: %d hits / %d misses, want 0/1", hits, misses)
	}
	// Same task shape again — and a different task (k=1) over the same
	// input and model: both must reuse the cached tower.
	second, err := SolveAffineWith(tasks.KSetConsensus(3, 2), ra, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveAffineWith(tasks.KSetConsensus(3, 1), ra, 1, opts); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("after three calls: %d hits / %d misses, want 2/1", hits, misses)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d towers, want 1", cache.Len())
	}
	if !first.Solvable || !second.Solvable || first.Rounds != second.Rounds {
		t.Fatalf("cached result diverged: %+v vs %+v", first, second)
	}
	for v, o := range first.Map {
		if second.Map[v] != o {
			t.Fatalf("cached witness diverged at %d", v)
		}
	}
}

// TestSolveDeeperRoundsReuseCache asserts that asking for more rounds
// extends the cached tower instead of rebuilding lower levels.
func TestSolveDeeperRoundsReuseCache(t *testing.T) {
	ra := buildRA(t, adversary.TResilient(3, 1))
	cache := chromatic.NewTowerCache()
	opts := Options{Cache: cache}
	task := tasks.KSetConsensus(3, 2)

	if _, err := SolveAffineWith(task, ra, 1, opts); err != nil {
		t.Fatal(err)
	}
	ct := cache.Acquire(ra.Signature(), task.Input, 0)
	if h := ct.Tower().Height(); h != 1 {
		t.Fatalf("height = %d, want 1", h)
	}
	level1 := ct.Tower().LevelComplex(1)
	// An unsolvable-at-1 task forces no deeper levels here; instead
	// extend explicitly and check level 1 is untouched.
	if err := ct.EnsureHeightTables(ra, 2); err != nil {
		t.Fatal(err)
	}
	if ct.Tower().LevelComplex(1) != level1 {
		t.Fatal("extending rebuilt level 1")
	}
}
