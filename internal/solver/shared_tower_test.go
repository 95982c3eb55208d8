package solver

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/tasks"
)

// TestSharedTowerConcurrentSolves runs concurrent decisions against one
// R_A on one TowerCache, the census solve path whenever workers share a
// tower: every decision reads the same cached level complex, so its
// facet list must be safe for concurrent readers (run under -race).
// Each repetition starts on a fresh level, whose facets are not yet
// computed, and every decision must return the pinned witness.
func TestSharedTowerConcurrentSolves(t *testing.T) {
	ra := buildRA(t, adversary.TResilient(3, 1))
	task := tasks.KSetConsensus(3, 2)
	const solvers = 6
	for rep := 0; rep < 8; rep++ {
		cache := chromatic.NewTowerCache()
		// Build the level up front so every decision starts on it at once.
		ct := cache.Acquire(ra.Signature(), task.Input, 1)
		if err := ct.EnsureHeightTables(ra, 1); err != nil {
			t.Fatal(err)
		}
		results := make([]*Result, solvers)
		errs := make([]error, solvers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range solvers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[i], errs[i] = SolveAffineWith(task, ra, 1, Options{Workers: 1 + i%2, Cache: cache})
			}()
		}
		close(start)
		wg.Wait()
		ct.Release()
		for i := range solvers {
			if errs[i] != nil {
				t.Fatalf("solver %d: %v", i, errs[i])
			}
			if !results[i].Solvable {
				t.Fatalf("solver %d: want solvable", i)
			}
			if got := witnessDigest(results[i].Map); got != "c5cddbd8881610e7" {
				t.Errorf("solver %d: witness digest %s, want c5cddbd8881610e7", i, got)
			}
		}
		if hits, misses := cache.Stats(); misses != 1 || hits != solvers {
			t.Errorf("cache: %d hits / %d misses, want %d/1", hits, misses, solvers)
		}
	}
}

// TestSolveLeavesFacetsUntouched: the solver reads the shared cached
// facet slice of a tower level and must not reorder or rewrite it.
func TestSolveLeavesFacetsUntouched(t *testing.T) {
	ra := buildRA(t, adversary.TResilient(3, 1))
	task := tasks.KSetConsensus(3, 2)
	cache := chromatic.NewTowerCache()

	ct := cache.Acquire(ra.Signature(), task.Input, 1)
	defer ct.Release()
	if err := ct.EnsureHeightTables(ra, 1); err != nil {
		t.Fatal(err)
	}
	level := ct.Tower().LevelComplex(1)
	before := slices.Clone(level.Facets())
	for i, f := range before {
		before[i] = slices.Clone(f)
	}
	for _, workers := range []int{1, 4} {
		if _, err := SolveAffineWith(task, ra, 1, Options{Workers: workers, Cache: cache}); err != nil {
			t.Fatal(err)
		}
		if after := level.Facets(); !reflect.DeepEqual(before, after) {
			t.Fatalf("workers=%d: the solve changed the cached facet list", workers)
		}
	}
}
