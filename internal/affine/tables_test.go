package affine

import (
	"fmt"
	"reflect"
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

// TestTaskTablesMatchCallback pins the affine task's native table
// provider against its compat Membership() callback on every ground
// set — full and restricted — for n ≤ 4 adversaries of each family.
func TestTaskTablesMatchCallback(t *testing.T) {
	advs := []*adversary.Adversary{
		adversary.WaitFree(3),
		adversary.TResilient(3, 1),
		adversary.KObstructionFree(4, 2),
		adversary.TResilient(4, 1),
	}
	for _, a := range advs {
		t.Run(fmt.Sprintf("n=%d/%v", a.N(), a), func(t *testing.T) {
			task := buildTask(t, a)
			member := task.Membership()
			for _, ground := range procs.NonemptySubsets(procs.FullSet(task.N())) {
				mt := task.MembershipTable(ground)
				chromatic.ForEachRun2Ranked(ground, func(r chromatic.Run2, key chromatic.RunKey, rank chromatic.RunRank) bool {
					if got, want := mt.Contains(rank), member(r, key); got != want {
						t.Fatalf("ground %v rank %d: table %v, callback %v", ground, rank, got, want)
					}
					return true
				})
			}
		})
	}
}

// TestPrecomputeRestrictedFacetsMatchesSerial is the fan-out
// byte-identity gate: the parallel precompute fills the memo with
// exactly what serial first-touch RestrictedFacets calls produce, for
// every participating set and any worker count.
func TestPrecomputeRestrictedFacetsMatchesSerial(t *testing.T) {
	a := adversary.KObstructionFree(4, 2)
	subsets := procs.NonemptySubsets(procs.FullSet(4))

	serialTask := buildTask(t, a)
	serial := make(map[procs.Set][]chromatic.Run2, len(subsets))
	for _, p := range subsets {
		serial[p] = serialTask.RestrictedFacets(p)
	}

	for _, workers := range []int{1, 4, 16} {
		task := buildTask(t, a)
		task.PrecomputeRestrictedFacets(workers)
		for _, p := range subsets {
			if !reflect.DeepEqual(task.RestrictedFacets(p), serial[p]) {
				t.Fatalf("workers=%d: restricted facets of %v differ from serial", workers, p)
			}
		}
	}
}

// TestIterateTablesMatchesCallbackTower pins the redesigned tower
// route: IterateWorkers (task-native tables) equals a tower extended
// through the compat callback, at one and at eight workers.
func TestIterateTablesMatchesCallbackTower(t *testing.T) {
	task := buildTask(t, adversary.TResilient(3, 1))
	input := standardComplex(t, 3)
	for _, workers := range []int{1, 8} {
		viaTables, err := task.IterateWorkers(input, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		compat := chromatic.NewTower(input)
		compat.SetWorkers(workers)
		for i := 0; i < 2; i++ {
			if err := compat.ExtendTables(chromatic.TablesOf(task.Membership())); err != nil {
				t.Fatal(err)
			}
		}
		if !viaTables.Top().Equal(compat.Top()) {
			t.Fatalf("workers=%d: table tower differs from callback tower", workers)
		}
	}
}
