package chromatic

// Per-ground ordered-partition tables with precomputed packed keys,
// per-process views, and dense run ranks.
//
// Every 2-round enumeration (ForEachRun2, the parallel subdivision
// engine, affine-task restriction) walks the same |parts|² run grid per
// ground set. The table below computes, once per ground set per process
// lifetime:
//
//   - the canonical partition enumeration itself (removing the recursive
//     procs.EnumerateOrderedPartitions allocation from every ApplyAffine
//     level),
//   - each partition's packed key (run keys are assembled from two table
//     reads instead of |parts|² PackedKey computations),
//   - each partition's per-process IS views as a flat slice indexed by
//     process ID (removing the per-run procs.OrderedPartition.Views map
//     allocation from the subdivision hot path), and
//   - the dense run-rank geometry: the run (parts[i], parts[j]) has
//     RunRank i*|parts|+j, the index MembershipTable bitsets and the
//     flat-array engine are addressed by.
//
// Cached partitions are shared read-only values: callers must never
// mutate the returned schedules or view rows (no caller does — runs are
// consumed structurally).

import (
	"math/bits"
	"sync"

	"repro/internal/procs"
)

// partTable is the cached enumeration of one ground set: the ordered
// partitions in the canonical procs.EnumerateOrderedPartitions order,
// their packed keys (index-aligned), their per-process views, and the
// ground's member list. keys is nil when the ground exceeds the
// packed-key capacity (IDs ≥ procs.PackedKeyMaxProcs), where key
// derivation would panic just as Run2.Key does.
type partTable struct {
	parts   []procs.OrderedPartition
	keys    []uint64
	members []procs.ID    // ground members, ascending
	views   [][]procs.Set // views[i][p] = IS view of p under parts[i]

	fullOnce sync.Once
	full     *MembershipTable // lazily built all-accepting table
}

var (
	partMu   sync.RWMutex
	partTabs = map[procs.Set]*partTable{}
)

// partitionsFor returns the cached partition table of ground, building
// it on first use.
func partitionsFor(ground procs.Set) *partTable {
	partMu.RLock()
	t, ok := partTabs[ground]
	partMu.RUnlock()
	if ok {
		return t
	}
	partMu.Lock()
	defer partMu.Unlock()
	if t, ok = partTabs[ground]; ok {
		return t
	}
	t = &partTable{
		parts:   procs.EnumerateOrderedPartitions(ground),
		members: ground.Members(),
	}
	if packable(ground) {
		t.keys = make([]uint64, len(t.parts))
		for i, p := range t.parts {
			t.keys[i] = p.PackedKey()
		}
	}
	width := bits.Len32(uint32(ground))
	viewRows := make([]procs.Set, len(t.parts)*width)
	t.views = make([][]procs.Set, len(t.parts))
	for i, p := range t.parts {
		row := viewRows[i*width : (i+1)*width : (i+1)*width]
		var acc procs.Set
		for _, b := range p {
			acc = acc.Union(b)
			view := acc
			b.ForEach(func(q procs.ID) { row[q] = view })
		}
		t.views[i] = row
	}
	partTabs[ground] = t
	return t
}

// packable reports whether every partition of ground fits the packed-key
// encoding (all member IDs inside the nibble layout).
func packable(ground procs.Set) bool {
	return uint32(ground)>>procs.PackedKeyMaxProcs == 0 &&
		ground.Size() < procs.PackedKeyMaxProcs
}

// OrderedPartitionsOf returns the cached enumeration of every ordered
// partition of ground in the canonical order. The slice and its
// partitions are shared — callers must treat them as read-only.
func OrderedPartitionsOf(ground procs.Set) []procs.OrderedPartition {
	return partitionsFor(ground).parts
}

// PartitionViews returns the per-process IS views of ground's cached
// ordered partitions, index-aligned with OrderedPartitionsOf(ground):
// row i holds at index p the view of p under partition i, for every
// member p of ground. The rows are shared — callers must treat them as
// read-only.
func PartitionViews(ground procs.Set) [][]procs.Set {
	return partitionsFor(ground).views
}

// NumOrderedPartitions returns the number of ordered partitions of
// ground (the ordered Bell number of its size), from the cached table.
func NumOrderedPartitions(ground procs.Set) int {
	return len(partitionsFor(ground).parts)
}

// RunCount returns the number of 2-round runs over ground — the size of
// the RunRank space: NumOrderedPartitions(ground)².
func RunCount(ground procs.Set) int {
	m := NumOrderedPartitions(ground)
	return m * m
}

// ForEachRun2Keyed enumerates every 2-round run over the ground set
// together with its binary run key, assembled from the per-partition
// packed-key table instead of re-derived per run. Stops early if f
// returns false.
func ForEachRun2Keyed(ground procs.Set, f func(Run2, RunKey) bool) {
	t := partitionsFor(ground)
	if t.keys == nil {
		// Beyond packed capacity: derive per run (panics exactly where
		// Run2.Key would).
		for _, r1 := range t.parts {
			for _, r2 := range t.parts {
				r := Run2{R1: r1, R2: r2}
				if !f(r, r.Key()) {
					return
				}
			}
		}
		return
	}
	for i, r1 := range t.parts {
		k1 := t.keys[i]
		for j, r2 := range t.parts {
			if !f(Run2{R1: r1, R2: r2}, RunKey{R1: k1, R2: t.keys[j]}) {
				return
			}
		}
	}
}

// ForEachRun2Ranked is ForEachRun2Keyed with the run's dense rank: runs
// enumerate in rank order (rank(i,j) = i*|parts|+j), so the callback's
// rank argument simply increments. Stops early if f returns false.
func ForEachRun2Ranked(ground procs.Set, f func(Run2, RunKey, RunRank) bool) {
	rank := RunRank(0)
	ForEachRun2Keyed(ground, func(r Run2, k RunKey) bool {
		ok := f(r, k, rank)
		rank++
		return ok
	})
}
