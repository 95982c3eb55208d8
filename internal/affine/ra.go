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
	"slices"

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
// The facets' schedules are chromatic's cached ordered partitions of Π,
// shared and read-only.
func BuildRA(u *chromatic.Universe, alpha adversary.AlphaFunc, variant Def9Variant) (*Task, error) {
	n := u.N()
	facets := slices.Concat(buildRAFacetRows(alpha, procs.FullSet(n), variant, 0)...)
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

// buildRAFacetRows applies the Definition 9 facet filter to every run
// over ground, row by row: rows[i] holds the accepted runs (R1, R2) with
// R1 the i-th of chromatic.OrderedPartitionsOf(ground), each row in R2
// enumeration order. The filter reads dense tables only: each schedule's
// per-process views come from chromatic.PartitionViews, the row's τ
// critical info is a slice indexed by subset, and the contention kernel
// keeps its Cont² table and round-2 carrier unions in buffers reused for
// every R2 of the row, so no map is built or hashed per run. The rows
// fan out through par.For, workers resolved by par.Workers; domains
// below parallelRARows rows take one worker. α is first copied,
// serially, into a dense table over the subsets of ground: callers may
// pass any AlphaFunc, and one that is slow or not safe for concurrent
// calls is then evaluated once per subset, on one goroutine. Every
// worker builds its own r1Context and reads only that table and the
// shared read-only view rows, so rows share no mutable state and the
// concatenated output is byte-identical across worker counts.
func buildRAFacetRows(alpha adversary.AlphaFunc, ground procs.Set, variant Def9Variant, workers int) [][]chromatic.Run2 {
	alpha = alphaTable(alpha, ground)
	parts, views := chromatic.OrderedPartitionsOf(ground), chromatic.PartitionViews(ground)
	rows := make([][]chromatic.Run2, len(parts))
	if len(parts) < parallelRARows {
		workers = 1
	}
	par.For(len(parts), workers, func(_, i int) {
		c := newR1Context(alpha, ground, views[i])
		for j, r2 := range parts {
			if raFacetOK(c, views[j], variant) {
				rows[i] = append(rows[i], chromatic.Run2{R1: parts[i], R2: r2})
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

// r1Context holds the α-dependent data of one first-round schedule R1,
// the facet σ₁ of Chr s with views view1: tau[U] is the critical info of
// σ₁ restricted to the processes in U, for every U ⊆ ground, so the τ
// of a θ is tau[χ(carrier(θ, Chr s))] and ρ is tau[ground]. fc is the
// row's contention kernel.
type r1Context struct {
	ground procs.Set
	view1  []procs.Set
	tau    []CriticalInfo
	fc     *facetContention
}

func newR1Context(alpha adversary.AlphaFunc, ground procs.Set, view1 []procs.Set) *r1Context {
	c := &r1Context{
		ground: ground,
		view1:  view1,
		tau:    make([]CriticalInfo, int(ground)+1),
		fc:     newFacetContention(ground),
	}
	procs.ForEachSubset(ground, func(u procs.Set) bool {
		c.tau[u] = critical(alpha, view1, u, false)
		return true
	})
	return c
}

// raFacetOK evaluates ∀θ ⊆ σ: P(θ, σ) for the facet whose second round
// has views view2; θ ∉ Cont² satisfies P(θ, σ) vacuously, so only the
// contention simplices are checked.
func raFacetOK(c *r1Context, view2 []procs.Set, variant Def9Variant) bool {
	rhoCSM := c.tau[c.ground].CSM
	return c.fc.forEach(c.ground, c.view1, view2, func(theta, carrier procs.Set) bool {
		tau := &c.tau[carrier]
		var guard procs.Set
		switch variant {
		case VariantIntersection:
			guard = theta.Intersect(rhoCSM).Intersect(tau.CSV)
		default:
			guard = theta.Intersect(rhoCSM.Union(tau.CSV))
		}
		return !guard.IsEmpty() || theta.Size()-1 < tau.Conc
	})
}

// BuildRkOF constructs R_{k-OF} per Definition 6: the pure complement of
// the contention simplices of dimension ≥ k, i.e. the closure of the
// facets of Chr² s having no (k+1)-subset of pairwise-contending
// vertices.
func BuildRkOF(u *chromatic.Universe, k int) (*Task, error) {
	n := u.N()
	full := procs.FullSet(n)
	parts, views := chromatic.OrderedPartitionsOf(full), chromatic.PartitionViews(full)
	fc := newFacetContention(full)
	below := func(theta, _ procs.Set) bool { return theta.Size()-1 < k }
	var facets []chromatic.Run2
	for i, r1 := range parts {
		for j, r2 := range parts {
			if fc.forEach(full, views[i], views[j], below) {
				facets = append(facets, chromatic.Run2{R1: r1, R2: r2})
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
