package chromatic

import (
	"testing"

	"repro/internal/procs"
)

// TestForEachRun2KeyedMatchesDerivedKeys checks the precomputed
// per-partition key table assembles exactly the keys Run2.Key derives,
// over every ground subset of a 4-process system.
func TestForEachRun2KeyedMatchesDerivedKeys(t *testing.T) {
	for _, ground := range procs.NonemptySubsets(procs.FullSet(4)) {
		count := 0
		ForEachRun2Keyed(ground, func(r Run2, k RunKey) bool {
			if k != r.Key() {
				t.Fatalf("ground %v: table key %v != derived %v for %v/%v",
					ground, k, r.Key(), r.R1, r.R2)
			}
			count++
			return true
		})
		parts := len(procs.EnumerateOrderedPartitions(ground))
		if count != parts*parts {
			t.Fatalf("ground %v: enumerated %d runs, want %d", ground, count, parts*parts)
		}
	}
}

// TestOrderedPartitionsOfCached checks the cached enumeration matches
// the canonical order and is the same shared slice across calls.
func TestOrderedPartitionsOfCached(t *testing.T) {
	ground := procs.FullSet(3)
	a := OrderedPartitionsOf(ground)
	b := OrderedPartitionsOf(ground)
	if &a[0] != &b[0] {
		t.Error("OrderedPartitionsOf should return the shared cached slice")
	}
	want := procs.EnumerateOrderedPartitions(ground)
	if len(a) != len(want) {
		t.Fatalf("cached enumeration has %d partitions, want %d", len(a), len(want))
	}
	for i := range want {
		if a[i].Key() != want[i].Key() {
			t.Fatalf("partition %d: %v != %v", i, a[i], want[i])
		}
	}
}

// TestPartitionViewsMatchViewOf checks the shared view rows against
// OrderedPartition.ViewOf for every partition of every ground subset of
// a 4-process system.
func TestPartitionViewsMatchViewOf(t *testing.T) {
	for _, ground := range procs.NonemptySubsets(procs.FullSet(4)) {
		parts, views := OrderedPartitionsOf(ground), PartitionViews(ground)
		if len(views) != len(parts) {
			t.Fatalf("ground %v: %d view rows for %d partitions", ground, len(views), len(parts))
		}
		for i, op := range parts {
			ground.ForEach(func(p procs.ID) {
				if want, _ := op.ViewOf(p); views[i][p] != want {
					t.Fatalf("ground %v partition %v: view of %v = %v, want %v", ground, op, p, views[i][p], want)
				}
			})
		}
	}
}
