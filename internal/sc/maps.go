package sc

// This file implements simplicial maps and carrier maps (Appendix A).

import (
	"errors"
	"fmt"
	"slices"
)

// Map is a vertex map between complexes, the combinatorial datum of a
// simplicial map.
type Map map[VertexID]VertexID

// Map validation errors.
var (
	ErrNotSimplicial = errors.New("map is not simplicial")
	ErrNotChromaticM = errors.New("map is not chromatic")
	ErrNotCarried    = errors.New("map is not carried by the carrier map")
	ErrPartialMap    = errors.New("map does not cover all vertices of the domain")
)

// Apply returns the image of a simplex under the map (canonicalized;
// a non-injective map may collapse dimensions).
func (m Map) Apply(s Simplex) Simplex {
	img := make(Simplex, len(s))
	for i, v := range s {
		img[i] = m[v]
	}
	slices.Sort(img)
	return slices.Compact(img)
}

// CarrierMap maps simplices of a domain complex to sub-complexes of a
// codomain, given extensionally as the set of simplices allowed as
// images. It must be monotonic: ρ ⊆ σ implies Φ(ρ) ⊆ Φ(σ).
type CarrierMap func(Simplex) *Complex

// VerifyCarried checks that the simplicial map φ (m) is carried by Φ:
// for every simplex σ of from, m(σ) ∈ Φ(σ).
func (m Map) VerifyCarried(from *Complex, carrier CarrierMap) error {
	for _, s := range from.Simplices() {
		img := m.Apply(s)
		allowed := carrier(s)
		if allowed == nil || !allowed.HasSimplex(img) {
			return fmt.Errorf("%w: image of %v", ErrNotCarried, s)
		}
	}
	return nil
}

// VerifyCarrierMonotone checks the carrier-map law Φ(τ ∩ σ) ⊆ Φ(τ) ∩ Φ(σ)
// on all simplex pairs of the domain. Intended for tests on small
// complexes (quadratic in the number of simplices).
func VerifyCarrierMonotone(dom *Complex, carrier CarrierMap) error {
	ss := dom.Simplices()
	for _, a := range ss {
		for _, b := range ss {
			inter := a.Intersect(b)
			if len(inter) == 0 {
				continue
			}
			if !dom.HasSimplex(inter) {
				continue
			}
			ci := carrier(inter)
			ca := carrier(a)
			cb := carrier(b)
			for _, s := range ci.Simplices() {
				if !ca.HasSimplex(s) || !cb.HasSimplex(s) {
					return fmt.Errorf("carrier map not monotone at %v ∩ %v", a, b)
				}
			}
		}
	}
	return nil
}
