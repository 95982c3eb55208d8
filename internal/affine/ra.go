package affine

// BuildRA constructs the affine task R_A of Definition 9 for a fair
// adversary's agreement function α:
//
//	R_A = Cl({σ ∈ facets(Chr² s) : ∀θ ⊆ σ, P(θ, σ)})
//	P(θ, σ) ≡ (θ ∈ Cont² ∧ guard(θ) = ∅) ⟹ dim(θ) < Conc_α(τ)
//
// with τ = carrier(θ, Chr s) and ρ = carrier(σ, Chr s). The guard is the
// color set that "may rely on critical simplices"; the paper states it
// as χ(θ) ∩ χ(CSM_α(ρ)) ∩ χ(CSV_α(τ)) in Definition 9 but uses
// χ(θ) ∩ (χ(CSM_α(ρ)) ∪ χ(CSV_α(τ))) in the safety proof (Lemma 6).
// Both readings are implemented; see Def9Variant. Experiment E9 (the
// paper's own sanity condition R_A = R_{k-OF} for k-obstruction-free
// adversaries) discriminates them empirically.

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/par"
	"repro/internal/procs"
)

// Def9Variant selects the reading of the guard condition in
// Definition 9.
type Def9Variant int

const (
	// VariantIntersection uses χ(θ) ∩ χ(CSM(ρ)) ∩ χ(CSV(τ)) = ∅, the
	// literal text of Definition 9.
	VariantIntersection Def9Variant = iota + 1
	// VariantUnion uses χ(θ) ∩ (χ(CSM(ρ)) ∪ χ(CSV(τ))) = ∅, the guard
	// used in the proof of Lemma 6.
	VariantUnion
)

// DefaultVariant is the package default, fixed by experiment E9: the
// union reading makes R_A coincide with R_{k-OF} on k-obstruction-free
// adversaries (TestRAEqualsRkOF1, TestIntersectionVariantDiffers;
// BenchmarkE9RkOF regenerates the comparison).
const DefaultVariant = VariantUnion

// BuildRA constructs R_A for an n-process system and agreement function
// α. The adversary must satisfy α(Π) ≥ 1 for the task to be non-empty.
// The facet filter runs one worker per CPU over the first-round
// schedules (the rows are independent: each builds its own r1Context);
// the facet order — and so the task — is identical to the serial scan.
func BuildRA(u *chromatic.Universe, alpha adversary.AlphaFunc, variant Def9Variant) (*Task, error) {
	n := u.N()
	full := procs.FullSet(n)
	parts := procs.EnumerateOrderedPartitions(full)
	rows := buildRAFacetRows(alpha, parts, variant, 0)
	var facets []chromatic.Run2
	for _, row := range rows {
		facets = append(facets, row...)
	}
	t, err := NewTask(fmt.Sprintf("R_A(n=%d)", n), u, facets)
	if err != nil {
		return nil, fmt.Errorf("R_A: %w", err)
	}
	return t, nil
}

// parallelRARows is the row count below which the parallel scan is not
// worth its goroutines: n=3 has 13 ordered partitions (serial), n=4
// has 75 and n=5 has 541 (parallel).
const parallelRARows = 64

// buildRAFacetRows applies the Definition 9 facet filter row by row:
// rows[i] holds the facets with R1 = parts[i], each row in r2
// enumeration order. The rows fan out through par.For, workers resolved
// by par.Workers; domains below parallelRARows rows take one worker. α
// is first copied, serially, into a dense table over the subsets of the
// ground set: callers may pass any AlphaFunc, and one that is slow or
// not safe for concurrent calls is then evaluated once per subset, on
// one goroutine. Every worker builds its own r1Context and reads only
// that table, so rows share no state and the concatenated output is
// byte-identical across worker counts.
func buildRAFacetRows(alpha adversary.AlphaFunc, parts []procs.OrderedPartition, variant Def9Variant, workers int) [][]chromatic.Run2 {
	if len(parts) > 0 {
		alpha = alphaTable(alpha, parts[0].Ground())
	}
	rows := make([][]chromatic.Run2, len(parts))
	if len(parts) < parallelRARows {
		workers = 1
	}
	par.For(len(parts), workers, func(_, i int) {
		r1 := parts[i]
		pc := newR1Context(alpha, r1)
		for _, r2 := range parts {
			run := chromatic.Run2{R1: r1, R2: r2}
			if raFacetOK(pc, run, variant) {
				rows[i] = append(rows[i], run)
			}
		}
	})
	return rows
}

// alphaTable evaluates α once on every subset of ground (a full set
// {p_1..p_n}) and returns a pure read of the resulting dense table.
func alphaTable(alpha adversary.AlphaFunc, ground procs.Set) adversary.AlphaFunc {
	table := make([]int8, int(ground)+1)
	procs.ForEachSubset(ground, func(p procs.Set) bool {
		table[p] = int8(alpha(p))
		return true
	})
	return func(p procs.Set) int { return int(table[p]) }
}

// BuildRAForAdversary is a convenience wrapper deriving α from A.
func BuildRAForAdversary(u *chromatic.Universe, a *adversary.Adversary, variant Def9Variant) (*Task, error) {
	t, err := BuildRA(u, a.Alpha, variant)
	if err != nil {
		return nil, err
	}
	t.Name = "R_" + a.String()
	return t, nil
}

// r1Context caches the α-dependent data of one first-round schedule: the
// full-carrier critical info (for ρ) and per-subset τ contexts.
type r1Context struct {
	alpha adversary.AlphaFunc
	view1 map[procs.ID]procs.Set
	rho   CriticalInfo
	sigma Chr1Simplex
	tau   map[procs.Set]CriticalInfo
}

func newR1Context(alpha adversary.AlphaFunc, r1 procs.OrderedPartition) *r1Context {
	sigma := FromPartition(r1)
	return &r1Context{
		alpha: alpha,
		view1: sigma.Views,
		rho:   Critical(alpha, sigma),
		sigma: sigma,
		tau:   make(map[procs.Set]CriticalInfo),
	}
}

// tauInfo returns the critical info of the sub-simplex of the round-1
// facet restricted to the processes in u (the carrier of θ in Chr s).
func (c *r1Context) tauInfo(u procs.Set) CriticalInfo {
	if info, ok := c.tau[u]; ok {
		return info
	}
	info := Critical(c.alpha, c.sigma.Restrict(u))
	c.tau[u] = info
	return info
}

// raFacetOK evaluates ∀θ ⊆ σ: P(θ, σ) for the facet of the run.
func raFacetOK(c *r1Context, run chromatic.Run2, variant Def9Variant) bool {
	fc := newFacetContention(run)
	m := len(fc.members)
	for mask := 1; mask < 1<<uint(m); mask++ {
		if !fc.table[mask] {
			continue // θ ∉ Cont²: P(θ,σ) holds vacuously
		}
		theta := fc.setOf(mask)
		tau := c.tauInfo(fc.unionV2[mask])
		var guard procs.Set
		switch variant {
		case VariantIntersection:
			guard = theta.Intersect(c.rho.CSM).Intersect(tau.CSV)
		default:
			guard = theta.Intersect(c.rho.CSM.Union(tau.CSV))
		}
		if guard.IsEmpty() && theta.Size()-1 >= tau.Conc {
			return false
		}
	}
	return true
}

// BuildRkOF constructs R_{k-OF} per Definition 6: the pure complement of
// the contention simplices of dimension ≥ k, i.e. the closure of the
// facets of Chr² s having no (k+1)-subset of pairwise-contending
// vertices.
func BuildRkOF(u *chromatic.Universe, k int) (*Task, error) {
	n := u.N()
	full := procs.FullSet(n)
	parts := procs.EnumerateOrderedPartitions(full)
	var facets []chromatic.Run2
	for _, r1 := range parts {
		for _, r2 := range parts {
			run := chromatic.Run2{R1: r1, R2: r2}
			fc := newFacetContention(run)
			ok := true
			for mask := 1; mask < 1<<uint(n) && ok; mask++ {
				if fc.table[mask] && popcount(mask)-1 >= k {
					ok = false
				}
			}
			if ok {
				facets = append(facets, run)
			}
		}
	}
	t, err := NewTask(fmt.Sprintf("R_%d-OF(n=%d)", k, n), u, facets)
	if err != nil {
		return nil, fmt.Errorf("R_%d-OF: %w", k, err)
	}
	return t, nil
}

// BuildRTres constructs the t-resilient affine task R_{t-res} of Saraph,
// Herlihy and Gafni (Figure 1b): the facets of Chr² s in which every
// process "sees" at least n−t−1 other processes through the two rounds,
// i.e. every vertex's carrier χ(carrier(v, s)) has at least n−t
// members. (The simplices excluded are exactly those adjacent to the
// (n−t−1)-skeleton of s.)
func BuildRTres(u *chromatic.Universe, t int) (*Task, error) {
	n := u.N()
	full := procs.FullSet(n)
	parts := procs.EnumerateOrderedPartitions(full)
	var facets []chromatic.Run2
	for _, r1 := range parts {
		view1 := r1.Views()
		for _, r2 := range parts {
			run := chromatic.Run2{R1: r1, R2: r2}
			ok := true
			full.ForEach(func(p procs.ID) {
				if !ok {
					return
				}
				v2, _ := r2.ViewOf(p)
				var carrier procs.Set
				v2.ForEach(func(q procs.ID) { carrier = carrier.Union(view1[q]) })
				if carrier.Size() < n-t {
					ok = false
				}
			})
			if ok {
				facets = append(facets, run)
			}
		}
	}
	task, err := NewTask(fmt.Sprintf("R_%d-res(n=%d)", t, n), u, facets)
	if err != nil {
		return nil, fmt.Errorf("R_%d-res: %w", t, err)
	}
	return task, nil
}
