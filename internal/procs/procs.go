// Package procs provides the elementary combinatorial substrate of the
// library: process identifiers, process sets as bitsets, and ordered set
// partitions.
//
// Ordered partitions are the central combinatorial object of the paper:
// a one-round immediate-snapshot (IS) run with participating set P is
// exactly an ordered partition of P into concurrency blocks, and a facet
// of the m-th chromatic subdivision Chr^m s is an m-tuple of ordered
// partitions of Π (an m-round IIS run).
package procs

import (
	"cmp"
	"math/bits"
	"slices"
	"strconv"
)

// MaxProcs is the largest supported system size. Sets are 32-bit bitsets;
// the paper's figures use n = 3 and the experiments run n <= 6, so 32 is
// a comfortable ceiling.
const MaxProcs = 32

// ID identifies a process. IDs are 0-based internally; the human-readable
// form follows the paper's convention p1, ..., pn.
type ID uint8

// String returns the paper-style name of the process (p1, p2, ...).
func (p ID) String() string {
	return "p" + strconv.Itoa(int(p)+1)
}

// Set is a set of processes represented as a bitset. The zero value is
// the empty set and is ready to use.
type Set uint32

// EmptySet is the set with no processes.
const EmptySet Set = 0

// SetOf builds a set from the given process IDs.
func SetOf(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// FullSet returns the set {p1, ..., pn}.
func FullSet(n int) Set {
	if n <= 0 {
		return 0
	}
	if n > MaxProcs {
		n = MaxProcs
	}
	return Set((uint64(1) << uint(n)) - 1)
}

// Contains reports whether p is a member of s.
func (s Set) Contains(p ID) bool { return s&(1<<uint(p)) != 0 }

// Add returns s ∪ {p}.
func (s Set) Add(p ID) Set { return s | 1<<uint(p) }

// Remove returns s \ {p}.
func (s Set) Remove(p ID) Set { return s &^ (1 << uint(p)) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Diff returns s \ t.
func (s Set) Diff(t Set) Set { return s &^ t }

// Size returns |s|.
func (s Set) Size() int { return bits.OnesCount32(uint32(s)) }

// IsEmpty reports whether s has no members.
func (s Set) IsEmpty() bool { return s == 0 }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool { return s != t && s.SubsetOf(t) }

// Intersects reports whether s ∩ t ≠ ∅.
func (s Set) Intersects(t Set) bool { return s&t != 0 }

// Min returns the smallest process ID in s. ok is false when s is empty.
func (s Set) Min() (id ID, ok bool) {
	if s == 0 {
		return 0, false
	}
	return ID(bits.TrailingZeros32(uint32(s))), true
}

// Members returns the members of s in increasing ID order.
func (s Set) Members() []ID {
	out := make([]ID, 0, s.Size())
	for t := s; t != 0; {
		p := ID(bits.TrailingZeros32(uint32(t)))
		out = append(out, p)
		t = t.Remove(p)
	}
	return out
}

// ForEach calls f for every member of s in increasing ID order.
func (s Set) ForEach(f func(ID)) {
	for t := s; t != 0; {
		p := ID(bits.TrailingZeros32(uint32(t)))
		f(p)
		t = t.Remove(p)
	}
}

// String renders the set in the paper's notation, e.g. {p1,p3}.
func (s Set) String() string {
	var buf [64]byte
	return string(s.AppendTo(buf[:0]))
}

// AppendTo appends the String form of s to b and returns the extended
// buffer, so a caller rendering many sets can reuse one buffer.
func (s Set) AppendTo(b []byte) []byte {
	b = append(b, '{')
	for t := s; t != 0; t &= t - 1 {
		if t != s {
			b = append(b, ',')
		}
		b = append(b, 'p')
		b = strconv.AppendInt(b, int64(bits.TrailingZeros32(uint32(t)))+1, 10)
	}
	return append(b, '}')
}

// Subsets returns all subsets of s (including ∅ and s itself), in
// increasing bitmask order.
func Subsets(s Set) []Set {
	out := make([]Set, 0, 1<<uint(s.Size()))
	// Standard subset-enumeration trick over a (possibly sparse) mask.
	sub := Set(0)
	for {
		out = append(out, sub)
		if sub == s {
			break
		}
		sub = (sub - s) & s
	}
	return out
}

// NonemptySubsets returns all non-empty subsets of s.
func NonemptySubsets(s Set) []Set {
	all := Subsets(s)
	out := all[:0]
	for _, t := range all {
		if t != 0 {
			out = append(out, t)
		}
	}
	return out
}

// ForEachSubset calls f on every subset of s, including ∅ and s.
// If f returns false the enumeration stops early.
func ForEachSubset(s Set, f func(Set) bool) {
	sub := Set(0)
	for {
		if !f(sub) {
			return
		}
		if sub == s {
			return
		}
		sub = (sub - s) & s
	}
}

// SubsetsOfSize returns all subsets of s with exactly k members.
func SubsetsOfSize(s Set, k int) []Set {
	var out []Set
	ForEachSubset(s, func(t Set) bool {
		if t.Size() == k {
			out = append(out, t)
		}
		return true
	})
	return out
}

// SortSets sorts a slice of sets by (size, bitmask) — a canonical order
// used throughout the library for deterministic output.
func SortSets(sets []Set) {
	slices.SortFunc(sets, func(a, b Set) int {
		if c := cmp.Compare(a.Size(), b.Size()); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}
