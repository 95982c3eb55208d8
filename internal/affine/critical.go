package affine

// Critical simplices (Definition 7), critical-simplex members CSM,
// critical-simplex views CSV, and the concurrency map Conc_α
// (Definition 8), computed on simplices of Chr s.
//
// A simplex σ ∈ Chr s is represented by the View¹ assignment of its
// vertices: vertex (q, V) has carrier(­v, s) = V. Grouping vertices by
// view makes criticality tractable:
//
//   - a critical simplex θ must have all vertices sharing one view V, so
//     θ is a subset of the "view group" G_V = {q ∈ σ : View¹(q) = V};
//   - θ ⊆ G_V is critical iff α(V \ χ(θ)) < α(V);
//   - criticality is upward-closed inside a group (α is monotone), so
//     the group itself is critical iff any subset is, and then every
//     member of the group belongs to some critical simplex.
//
// Hence CSM_α(σ) = ∪{G_V : α(V\G_V) < α(V)}, CSV_α(σ) = ∪{V : ...},
// and Conc_α(σ) = max{α(V) : ...} (Definition 8, with max ∅ = 0).

import (
	"sort"

	"repro/internal/adversary"
	"repro/internal/procs"
)

// Chr1Simplex is a simplex of Chr s given extensionally: the View¹ of
// each of its vertices, keyed by color. (Vertex (q, Views[q]).)
type Chr1Simplex struct {
	Views map[procs.ID]procs.Set
}

// Procs returns χ(σ).
func (s Chr1Simplex) Procs() procs.Set {
	var out procs.Set
	for q := range s.Views {
		out = out.Add(q)
	}
	return out
}

// Carrier returns χ(carrier(σ, s)): the union of the views.
func (s Chr1Simplex) Carrier() procs.Set {
	var out procs.Set
	for _, v := range s.Views {
		out = out.Union(v)
	}
	return out
}

// ViewGroup is a maximal set of vertices of a Chr-s simplex sharing the
// same View¹.
type ViewGroup struct {
	View    procs.Set // the shared View¹ (= shared carrier in s)
	Members procs.Set // χ of the group's vertices
}

// Groups returns the view groups of the simplex, ordered by view size
// (the IS containment order).
func (s Chr1Simplex) Groups() []ViewGroup {
	byView := make(map[procs.Set]procs.Set)
	for q, v := range s.Views {
		byView[v] = byView[v].Add(q)
	}
	out := make([]ViewGroup, 0, len(byView))
	for v, g := range byView {
		out = append(out, ViewGroup{View: v, Members: g})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].View.Size() != out[j].View.Size() {
			return out[i].View.Size() < out[j].View.Size()
		}
		return out[i].View < out[j].View
	})
	return out
}

// CriticalInfo aggregates CSM, CSV and Conc of a Chr-s simplex.
type CriticalInfo struct {
	CSM  procs.Set // χ(CSM_α(σ)): members of some critical simplex
	CSV  procs.Set // χ(CSV_α(σ)): union of critical views
	Conc int       // Conc_α(σ)
	// CriticalGroups lists the critical view groups in view order.
	CriticalGroups []ViewGroup
}

// Critical computes CSM/CSV/Conc for the simplex under the agreement
// function α, listing the critical view groups in view order. It copies
// the view map into a dense per-process array and calls the helper the
// Definition 9 facet filter calls on its view rows, so the paper-side
// checks and R_A's construction share one implementation.
func Critical(alpha adversary.AlphaFunc, s Chr1Simplex) CriticalInfo {
	var views [procs.MaxProcs]procs.Set
	var members procs.Set
	for q, v := range s.Views {
		views[q] = v
		members = members.Add(q)
	}
	return critical(alpha, views[:], members, true)
}

// critical evaluates Definitions 7 and 8 on the Chr-s simplex with one
// vertex (q, views[q]) per q ∈ members, views indexed by process ID. It
// takes the view groups in view order (size, then bitmask), each found
// by a scan of the members not yet grouped, so it builds no map and
// sorts nothing. The critical groups are listed only when withGroups is
// set; without them the call allocates nothing.
func critical(alpha adversary.AlphaFunc, views []procs.Set, members procs.Set, withGroups bool) CriticalInfo {
	var info CriticalInfo
	for rest := members; rest != 0; {
		first, _ := rest.Min()
		view := views[first]
		for t := rest; t != 0; t &= t - 1 {
			q, _ := t.Min()
			if v := views[q]; v.Size() < view.Size() || (v.Size() == view.Size() && v < view) {
				view = v
			}
		}
		var group procs.Set
		for t := rest; t != 0; t &= t - 1 {
			if q, _ := t.Min(); views[q] == view {
				group = group.Add(q)
			}
		}
		rest = rest.Diff(group)
		av := alpha(view)
		if alpha(view.Diff(group)) >= av {
			continue
		}
		info.CSM = info.CSM.Union(group)
		info.CSV = info.CSV.Union(view)
		info.Conc = max(info.Conc, av)
		if withGroups {
			info.CriticalGroups = append(info.CriticalGroups, ViewGroup{View: view, Members: group})
		}
	}
	return info
}

// IsCriticalSimplex evaluates Definition 7 directly on a candidate θ
// (given as its color set) inside the simplex s: all vertices of θ share
// the carrier of θ, and α drops when removing χ(θ) from it.
func IsCriticalSimplex(alpha adversary.AlphaFunc, s Chr1Simplex, theta procs.Set) bool {
	if theta.IsEmpty() || !theta.SubsetOf(s.Procs()) {
		return false
	}
	var carrier procs.Set
	first := true
	same := true
	theta.ForEach(func(q procs.ID) {
		v := s.Views[q]
		if first {
			carrier = v
			first = false
		} else if v != carrier {
			same = false
		}
	})
	if !same {
		return false
	}
	return alpha(carrier.Diff(theta)) < alpha(carrier)
}

// CriticalSimplices enumerates CS_α(σ): every critical sub-simplex of s,
// as color sets. Exponential in group sizes; intended for tests and
// small-n experiments (Lemma 3, Figure 5).
func CriticalSimplices(alpha adversary.AlphaFunc, s Chr1Simplex) []procs.Set {
	var out []procs.Set
	for _, g := range s.Groups() {
		av := alpha(g.View)
		for _, theta := range procs.NonemptySubsets(g.Members) {
			if alpha(g.View.Diff(theta)) < av {
				out = append(out, theta)
			}
		}
	}
	procs.SortSets(out)
	return out
}

// FromPartition builds the Chr-s facet of an ordered partition: the
// simplex whose vertices are (q, view of q).
func FromPartition(op procs.OrderedPartition) Chr1Simplex {
	return Chr1Simplex{Views: op.Views()}
}
