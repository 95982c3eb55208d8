package affine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/procs"
)

// buildTask builds an R_A over a fresh universe for the given adversary.
func buildTask(t *testing.T, a *adversary.Adversary) *Task {
	t.Helper()
	u := chromatic.NewUniverse(a.N())
	task, err := BuildRAForAdversary(u, a, DefaultVariant)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// TestTaskTablesMatchCallback pins the affine task's native tables
// against the closure-based oracle Membership() on every ground set —
// full and restricted. The inputs are one adversary of each family at
// n = 3 and 4, every n=3 orbit representative with setcon ≥ 1, the six
// fair n=4 representatives below raw index 768 (the window pipebench's
// sweep-solve decides) and the n=4 entries 5323, 5327 and 5343, and
// two arbitrary affine tasks: random facet sets of Chr² s at n = 3 and
// 4, whose faces extend to facets in other ways than R_A's do.
func TestTaskTablesMatchCallback(t *testing.T) {
	advs := []*adversary.Adversary{
		adversary.WaitFree(3),
		adversary.TResilient(3, 1),
		adversary.KObstructionFree(4, 2),
		adversary.TResilient(4, 1),
	}
	adversary.NewOrbits(3).ForEachCanonicalFrom(0, func(idx, _ uint64) bool {
		if a := adversary.AdversaryAt(3, idx); a.Setcon() >= 1 {
			advs = append(advs, a)
		}
		return true
	})
	fair := 0
	adversary.NewOrbits(4).ForEachCanonicalFrom(0, func(idx, _ uint64) bool {
		if idx >= 768 {
			return false
		}
		if a := adversary.AdversaryAt(4, idx); a.IsFair() && a.Setcon() >= 1 {
			advs = append(advs, a)
			fair++
		}
		return true
	})
	if fair != 6 {
		t.Fatalf("%d fair n=4 representatives below index 768, want 6", fair)
	}
	for _, idx := range []uint64{5323, 5327, 5343} {
		advs = append(advs, adversary.AdversaryAt(4, idx))
	}
	check := func(t *testing.T, task *Task) {
		member := task.Membership()
		for _, ground := range procs.NonemptySubsets(procs.FullSet(task.N())) {
			mt := task.MembershipTable(ground)
			chromatic.ForEachRun2Ranked(ground, func(r chromatic.Run2, key chromatic.RunKey, rank chromatic.RunRank) bool {
				if got, want := mt.Contains(rank), member(r, key); got != want {
					t.Fatalf("ground %v rank %d: table %v, oracle %v", ground, rank, got, want)
				}
				return true
			})
		}
	}
	seen := make(map[string]bool)
	for _, a := range advs {
		name := fmt.Sprintf("n=%d/%v", a.N(), a)
		if seen[name] {
			continue
		}
		seen[name] = true
		t.Run(name, func(t *testing.T) { check(t, buildTask(t, a)) })
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ n, oneIn int }{{3, 8}, {4, 64}} {
		var facets []chromatic.Run2
		chromatic.ForEachRun2(procs.FullSet(c.n), func(r chromatic.Run2) bool {
			if rng.Intn(c.oneIn) == 0 {
				facets = append(facets, r)
			}
			return true
		})
		t.Run(fmt.Sprintf("n=%d/random", c.n), func(t *testing.T) {
			task, err := NewTask("random", chromatic.NewUniverse(c.n), facets)
			if err != nil {
				t.Fatal(err)
			}
			check(t, task)
		})
	}
}

// TestIterateTablesMatchesCallbackTower pins the tower route: a tower
// extended through the task-native tables equals one extended through
// the closure-based Membership() oracle, at one and at eight workers.
func TestIterateTablesMatchesCallbackTower(t *testing.T) {
	task := buildTask(t, adversary.TResilient(3, 1))
	input := standardComplex(t, 3)
	var unshared *chromatic.TowerCache
	for _, workers := range []int{1, 8} {
		viaTables := unshared.Acquire("", input, workers)
		if err := viaTables.EnsureHeightTables(task, 2); err != nil {
			t.Fatal(err)
		}
		viaOracle := unshared.Acquire("", input, workers)
		if err := viaOracle.EnsureHeightTables(chromatic.TablesOf(task.Membership()), 2); err != nil {
			t.Fatal(err)
		}
		if !viaTables.Tower().Top().Equal(viaOracle.Tower().Top()) {
			t.Fatalf("workers=%d: table tower differs from oracle tower", workers)
		}
	}
}
