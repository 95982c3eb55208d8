// Package affine implements Section 4 of the paper: the 2-contention
// complex Cont² (Definition 5), the affine task R_{k-OF} of
// k-obstruction-freedom (Definition 6), critical simplices
// (Definition 7), the concurrency map Conc_α (Definition 8), and the
// affine task R_A of an arbitrary fair adversary (Definition 9), together
// with the t-resilient affine task R_{t-res} of Saraph-Herlihy-Gafni and
// the distribution lemmas of Section 5.3.
package affine

import (
	"math/bits"

	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/sc"
)

// ContendingPair implements the pair condition of Definition 5 on raw
// view data: processes a and b are contending when their View¹ and View²
// are strictly ordered in opposite directions.
//
// View² values are compared as process sets (χ of the Chr-s carrier),
// which is equivalent to simplex inclusion for vertices belonging to a
// common simplex of Chr² s — the only situation Definition 5 quantifies
// over.
func ContendingPair(view1a, view2a, view1b, view2b procs.Set) bool {
	return (view1a.ProperSubsetOf(view1b) && view2b.ProperSubsetOf(view2a)) ||
		(view1b.ProperSubsetOf(view1a) && view2a.ProperSubsetOf(view2b))
}

// Contending reports whether two Chr²-s vertices are contending.
func Contending(a, b chromatic.Vertex2) bool {
	return ContendingPair(a.View1, a.View2, b.View1, b.View2)
}

// IsContentionSimplex reports whether every two vertices of the given
// set are contending (Definition 5). Singletons and the empty set are
// contention simplices vacuously.
func IsContentionSimplex(vs []chromatic.Vertex2) bool {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if !Contending(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// facetContention is the Definition 5 kernel: it finds the contention
// simplices of one facet of Chr² σ, a 2-round run over a ground set,
// from dense view rows — view1[p] and view2[p], indexed by process ID,
// are p's round-1 and round-2 IS views, as chromatic.PartitionViews
// holds them. Pairwise contention is one bitmask per member. A subset θ
// of the ground, taken as a process set, is a contention simplex iff θ
// without its highest member p is one and p contends with all of it, so
// one pass over the subsets in increasing order fills the Cont² table
// cont[θ] and the round-2 carrier union carrier[θ] = ∪{View²(p) : p ∈ θ}
// = χ(carrier(θ, Chr s)). Both tables are work buffers indexed by
// process set: a kernel serves runs over every ground inside the set it
// was made for, and a caller that reuses one allocates nothing per run.
type facetContention struct {
	cont    []bool
	carrier []procs.Set
}

// newFacetContention returns a kernel for runs over subsets of within.
func newFacetContention(within procs.Set) *facetContention {
	size := int(within) + 1
	return &facetContention{cont: make([]bool, size), carrier: make([]procs.Set, size)}
}

// forEach calls f on every non-empty contention simplex θ of the run
// over ground with views view1 and view2, together with
// χ(carrier(θ, Chr s)), in increasing bitmask order. It stops when f
// returns false and reports whether it visited every one.
func (fc *facetContention) forEach(ground procs.Set, view1, view2 []procs.Set, f func(theta, carrier procs.Set) bool) bool {
	var rivals [procs.MaxProcs]procs.Set // rivals[p]: the members contending with p
	for a := ground; a != 0; a &= a - 1 {
		p, _ := a.Min()
		for b := a & (a - 1); b != 0; b &= b - 1 {
			q, _ := b.Min()
			if ContendingPair(view1[p], view2[p], view1[q], view2[q]) {
				rivals[p] = rivals[p].Add(q)
				rivals[q] = rivals[q].Add(p)
			}
		}
	}
	fc.cont[0], fc.carrier[0] = true, 0
	for theta := ground & -ground; theta != 0; theta = (theta - ground) & ground {
		p := procs.ID(bits.Len32(uint32(theta)) - 1)
		rest := theta.Remove(p)
		fc.cont[theta] = fc.cont[rest] && rest.SubsetOf(rivals[p])
		if !fc.cont[theta] {
			continue // θ ∉ Cont²
		}
		fc.carrier[theta] = fc.carrier[rest].Union(view2[p])
		if !f(theta, fc.carrier[theta]) {
			return false
		}
	}
	return true
}

// Cont2Simplices enumerates, for an n-process system, every simplex of
// the 2-contention complex Cont² of dimension ≥ minDim, as simplices of
// interned Chr²-s vertices (deduplicated across runs). This is the
// Figure 4c object.
func Cont2Simplices(u *chromatic.Universe, minDim int) []sc.Simplex {
	seen := make(map[string]bool)
	var out []sc.Simplex
	full := procs.FullSet(u.N())
	fc := newFacetContention(full)
	for _, ground := range procs.NonemptySubsets(full) {
		members := ground.Members()
		parts, views := chromatic.OrderedPartitionsOf(ground), chromatic.PartitionViews(ground)
		for i, r1 := range parts {
			for j, r2 := range parts {
				ids := chromatic.Run2{R1: r1, R2: r2}.FacetIDs(u)
				fc.forEach(ground, views[i], views[j], func(theta, _ procs.Set) bool {
					if theta.Size()-1 < minDim {
						return true
					}
					var simplex sc.Simplex
					for k, p := range members {
						if theta.Contains(p) {
							simplex = append(simplex, ids[k])
						}
					}
					simplex = sc.NewSimplex(simplex...)
					if k := simplex.Key(); !seen[k] {
						seen[k] = true
						out = append(out, simplex)
					}
					return true
				})
			}
		}
	}
	return out
}
