package affine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/procs"
)

// def9Facet is one facet σ of Chr² s as Definition 9 reads it: its
// contention simplices θ, each with χ(θ) and its carrier τ in Chr s,
// and σ's own carrier ρ. Carriers are indices into def9Oracle.carriers.
type def9Facet struct {
	run    chromatic.Run2
	rho    int
	thetas []def9Theta
}

type def9Theta struct {
	colors procs.Set
	tau    int
}

// def9Oracle is Definition 9 written from the paper rather than from
// the facet filter's tables: every facet's vertices are interned, each
// θ ⊆ σ is tested with IsContentionSimplex, and τ = carrier(θ, Chr s)
// and ρ = carrier(σ, Chr s) are the unions of the vertices' contents.
// The part that does not depend on α is built once per n.
type def9Oracle struct {
	n        int
	facets   []def9Facet
	carriers []Chr1Simplex
}

func newDef9Oracle(n int) *def9Oracle {
	o := &def9Oracle{n: n}
	u := chromatic.NewUniverse(n)
	index := make(map[string]int)
	carrierOf := func(vs []chromatic.Vertex2) int {
		s := Chr1Simplex{Views: make(map[procs.ID]procs.Set)}
		for _, v := range vs {
			for q, view := range v.Content {
				s.Views[q] = view
			}
		}
		key := fmt.Sprint(s.Views) // fmt prints map keys in sorted order
		i, ok := index[key]
		if !ok {
			i = len(o.carriers)
			index[key] = i
			o.carriers = append(o.carriers, s)
		}
		return i
	}
	chromatic.ForEachRun2(procs.FullSet(n), func(run chromatic.Run2) bool {
		var verts []chromatic.Vertex2
		for _, id := range run.FacetIDs(u) {
			verts = append(verts, u.Vertex(id))
		}
		f := def9Facet{run: run, rho: carrierOf(verts)}
		for mask := 1; mask < 1<<len(verts); mask++ {
			var theta []chromatic.Vertex2
			var colors procs.Set
			for i, v := range verts {
				if mask&(1<<i) != 0 {
					theta = append(theta, v)
					colors = colors.Add(v.Color)
				}
			}
			if IsContentionSimplex(theta) {
				f.thetas = append(f.thetas, def9Theta{colors: colors, tau: carrierOf(theta)})
			}
		}
		o.facets = append(o.facets, f)
		return true
	})
	return o
}

// literalCritical computes χ(CSM_α(s)), χ(CSV_α(s)) and Conc_α(s) from
// Definitions 7 and 8 by testing every θ ⊆ s with IsCriticalSimplex.
func literalCritical(alpha adversary.AlphaFunc, s Chr1Simplex) CriticalInfo {
	var info CriticalInfo
	for _, theta := range procs.NonemptySubsets(s.Procs()) {
		if !IsCriticalSimplex(alpha, s, theta) {
			continue
		}
		q, _ := theta.Min()
		carrier := s.Views[q] // every vertex of a critical θ has this carrier
		info.CSM = info.CSM.Union(theta)
		info.CSV = info.CSV.Union(carrier)
		info.Conc = max(info.Conc, alpha(carrier))
	}
	return info
}

// kept returns the facets Definition 9 keeps, in run enumeration
// order: σ stays unless some θ ∈ Cont² with an empty guard has
// dim(θ) ≥ Conc_α(τ).
func (o *def9Oracle) kept(alpha adversary.AlphaFunc, variant Def9Variant) []chromatic.Run2 {
	crit := make([]CriticalInfo, len(o.carriers))
	for i, s := range o.carriers {
		crit[i] = literalCritical(alpha, s)
	}
	var kept []chromatic.Run2
	for _, f := range o.facets {
		rho := crit[f.rho]
		ok := true
		for _, th := range f.thetas {
			tau := crit[th.tau]
			var guard procs.Set
			if variant == VariantIntersection {
				guard = th.colors.Intersect(rho.CSM).Intersect(tau.CSV)
			} else {
				guard = th.colors.Intersect(rho.CSM.Union(tau.CSV))
			}
			if guard.IsEmpty() && th.colors.Size()-1 >= tau.Conc {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, f.run)
		}
	}
	return kept
}

// TestBuildRAMatchesDefinition9 holds BuildRA's dense facet filter to
// the literal oracle, facet for facet and in order, under both guard
// variants. The adversaries are every fair n=3 orbit representative
// (those with α(Π) = 0 keep no facet, and BuildRA must refuse them); at
// n=4 the named families, the six fair representatives with setcon ≥ 1
// below raw index 768 (the window pipebench's sweep-solve decides) and
// entries 5323, 5327 and 5343.
func TestBuildRAMatchesDefinition9(t *testing.T) {
	advs := map[int][]*adversary.Adversary{}
	adversary.NewOrbits(3).ForEachCanonicalFrom(0, func(idx, _ uint64) bool {
		if a := adversary.AdversaryAt(3, idx); a.IsFair() {
			advs[3] = append(advs[3], a)
		}
		return true
	})
	advs[4] = []*adversary.Adversary{
		adversary.WaitFree(4),
		adversary.TResilient(4, 1),
		adversary.TResilient(4, 2),
		adversary.KObstructionFree(4, 1),
		adversary.KObstructionFree(4, 2),
		adversary.KObstructionFree(4, 3),
	}
	fair := 0
	adversary.NewOrbits(4).ForEachCanonicalFrom(0, func(idx, _ uint64) bool {
		if idx >= 768 {
			return false
		}
		if a := adversary.AdversaryAt(4, idx); a.IsFair() && a.Setcon() >= 1 {
			advs[4] = append(advs[4], a)
			fair++
		}
		return true
	})
	if fair != 6 {
		t.Fatalf("%d fair n=4 representatives below index 768, want 6", fair)
	}
	for _, idx := range []uint64{5323, 5327, 5343} {
		advs[4] = append(advs[4], adversary.AdversaryAt(4, idx))
	}
	for _, n := range []int{3, 4} {
		o := newDef9Oracle(n)
		for _, a := range advs[n] {
			for _, variant := range []Def9Variant{VariantIntersection, VariantUnion} {
				want := o.kept(a.Alpha, variant)
				task, err := BuildRA(chromatic.NewUniverse(n), a.Alpha, variant)
				if len(want) == 0 {
					if !errors.Is(err, ErrEmptyTask) {
						t.Errorf("n=%d %v variant=%d: the oracle keeps no facet, BuildRA returned %v", n, a, variant, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("n=%d %v variant=%d: %v", n, a, variant, err)
				}
				if got := task.Facets(); !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d %v variant=%d: BuildRA keeps %d facets, Definition 9 keeps %d (or in another order)",
						n, a, variant, len(got), len(want))
				}
			}
		}
	}
}
