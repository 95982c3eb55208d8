package chromatic

// Rank-indexed membership tables: the flat-array fast path of the
// subdivision engine.
//
// At a fixed ground set the 2-round runs form a small dense grid —
// |parts|² of them, |parts| the ordered Bell number — so an affine
// task's membership over that ground fits a bitset indexed by the run's
// dense rank (partitions.go). The engine then answers "is this run a
// facet of L?" with one bit probe instead of a hash-map lookup keyed by
// packed schedules, and providers (affine.Task, the TablesOf adapter)
// evaluate each predicate exactly once per (provider, ground) instead
// of once per enumeration visit.
//
// Every engine entry point takes a MemberTables provider. A Membership
// predicate becomes a table through NewMembershipTable (one ground) or
// TablesOf (a caching provider); the predicates stay as the oracle the
// table-equivalence tests check against.

import (
	"sync"

	"repro/internal/procs"
)

// RunRank is the dense index of a 2-round run over its ground set: the
// run (parts[i], parts[j]) of the canonical partition enumeration has
// rank i*|parts|+j. Ranks are contiguous in [0, RunCount(ground)), so
// per-run data lives in slices and bitsets instead of maps.
type RunRank int32

// MembershipTable is a precomputed membership bitset over the runs of
// one ground set, indexed by RunRank. The zero value is not usable;
// build tables with NewMembershipTable or FullMembershipTable (or get
// them from a provider such as affine.Task). Tables are immutable after
// construction and safe for concurrent use.
type MembershipTable struct {
	ground procs.Set
	nParts int
	words  []uint64 // nil = every run accepted
	count  int      // accepted runs
}

// NewMembershipTable precomputes the membership table of ground by
// evaluating the callback once per run, in rank order. The callback
// must be pure: the table is the predicate's permanent answer for this
// ground.
func NewMembershipTable(ground procs.Set, member Membership) *MembershipTable {
	t := partitionsFor(ground)
	m := len(t.parts)
	mt := &MembershipTable{
		ground: ground,
		nParts: m,
		words:  make([]uint64, (m*m+63)/64),
	}
	// ForEachRun2Keyed enumerates in rank order, so the rank is a simple
	// counter.
	rank := 0
	ForEachRun2Keyed(ground, func(r Run2, k RunKey) bool {
		if member(r, k) {
			mt.words[rank>>6] |= 1 << (uint(rank) & 63)
			mt.count++
		}
		rank++
		return true
	})
	return mt
}

// FullMembershipTable returns the all-accepting table of ground
// (L = Chr² s). The table is cached per ground and shared.
func FullMembershipTable(ground procs.Set) *MembershipTable {
	t := partitionsFor(ground)
	t.fullOnce.Do(func() {
		m := len(t.parts)
		t.full = &MembershipTable{ground: ground, nParts: m, count: m * m}
	})
	return t.full
}

// Ground returns the ground set the table is indexed over.
func (mt *MembershipTable) Ground() procs.Set { return mt.ground }

// NumParts returns the number of ordered partitions of the ground set
// (the stride of the rank grid).
func (mt *MembershipTable) NumParts() int { return mt.nParts }

// NumRuns returns the size of the rank space, NumParts()².
func (mt *MembershipTable) NumRuns() int { return mt.nParts * mt.nParts }

// Len returns the number of accepted runs.
func (mt *MembershipTable) Len() int { return mt.count }

// Contains reports whether the run with the given rank is accepted. The
// rank must lie in [0, NumRuns()).
func (mt *MembershipTable) Contains(r RunRank) bool {
	if mt.words == nil {
		return true
	}
	return mt.words[uint32(r)>>6]&(1<<(uint32(r)&63)) != 0
}

// RowAny reports whether any run with first-round schedule parts[i] is
// accepted — whether row i of the rank grid has a set bit. Lets the
// engine skip whole first-round schedules of sparse tasks.
func (mt *MembershipTable) RowAny(i int) bool {
	if mt.words == nil {
		return true
	}
	lo := uint32(i * mt.nParts)
	hi := lo + uint32(mt.nParts)
	for lo < hi {
		w := mt.words[lo>>6]
		// Mask off bits below lo and at/above hi within this word.
		w &= ^uint64(0) << (lo & 63)
		if next := (lo &^ 63) + 64; next > hi {
			w &= (1 << (hi & 63)) - 1
		}
		if w != 0 {
			return true
		}
		lo = (lo &^ 63) + 64
	}
	return false
}

// MemberTables provides the precomputed membership table of any ground
// set, accepted by ApplyAffineTables and CachedTower.EnsureHeightTables.
// affine.Task implements it natively; TablesOf adapts a callback.
// Implementations must be safe for concurrent use.
type MemberTables interface {
	MembershipTable(ground procs.Set) *MembershipTable
}

// fullTables is the provider of L = Chr² s.
type fullTables struct{}

func (fullTables) MembershipTable(ground procs.Set) *MembershipTable {
	return FullMembershipTable(ground)
}

// FullChr2Tables is the table provider accepting every run: the
// table-form counterpart of FullChr2Membership.
var FullChr2Tables MemberTables = fullTables{}

// callbackTables adapts a Membership callback into a caching table
// provider: the callback is evaluated once per ground across the
// adapter's lifetime, so iterated applications reuse the tables.
type callbackTables struct {
	member Membership

	mu sync.Mutex
	by map[procs.Set]*MembershipTable
}

// TablesOf adapts a Membership callback into a MemberTables provider.
// The callback must be pure and safe for concurrent use; it is
// evaluated once per run per ground over the adapter's lifetime, and
// the resulting tables are cached inside the adapter.
func TablesOf(member Membership) MemberTables {
	return &callbackTables{member: member, by: make(map[procs.Set]*MembershipTable)}
}

func (c *callbackTables) MembershipTable(ground procs.Set) *MembershipTable {
	c.mu.Lock()
	mt, ok := c.by[ground]
	c.mu.Unlock()
	if ok {
		return mt
	}
	mt = NewMembershipTable(ground, c.member)
	c.mu.Lock()
	if prior, ok := c.by[ground]; ok {
		mt = prior
	} else {
		c.by[ground] = mt
	}
	c.mu.Unlock()
	return mt
}
