// Package fact is the paper-level entry point of the reproduction of
// "An Asynchronous Computability Theorem for Fair Adversaries"
// (Kuznetsov, Rieutord, He; PODC 2018). Its one type, Model, pairs a
// fair adversary A with its affine task R_A — the two sides of the FACT
// equivalence (Theorem 16) — and ties together the internal engines:
//
//   - adversaries and agreement functions (Section 3),
//   - the standard chromatic subdivision and IIS combinatorics
//     (Section 2),
//   - affine tasks R_A, R_{k-OF} and R_{t-res} (Section 4),
//   - Algorithm 1 solving R_A in the α-model (Section 5),
//   - the μ_Q simulation of the adversarial model in R_A^* (Section 6),
//   - the FACT solvability decision procedure (Theorem 16), and
//   - regeneration of the paper's figures.
//
// Build a Model from an adversary and ask it for its affine task, run
// the constructive algorithms, decide task solvability, and render
// figures. Everything else — adversaries, tasks, the census, store and
// fabric layers — is imported from the package that defines it.
package fact

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/core"
	"repro/internal/procs"
	"repro/internal/render"
	"repro/internal/sc"
	"repro/internal/solver"
	"repro/internal/tasks"
)

// Model bundles a fair adversary with its affine task R_A — the two
// sides of the FACT equivalence — and exposes the paper's constructive
// machinery.
type Model struct {
	adv   *adversary.Adversary
	u     *chromatic.Universe
	ra    *affine.Task
	cache *chromatic.TowerCache // R_A^ℓ(I) shared by the model's decisions

	workers int // solver/subdivision worker bound; 0 = all CPUs
}

// NewModel builds the affine task R_A (Definition 9, default guard
// reading) for the adversary. An error is reported for adversaries
// whose α(Π) = 0 (the affine task would be empty) — and callers should
// check fairness with Adversary().IsFair() when the FACT guarantees are
// required.
//
// The model gets its own chromatic.Universe. Solving interns nothing
// into it; the paper-side checks, figures and the complex of
// AffineTask do.
func NewModel(a *adversary.Adversary) (*Model, error) {
	return NewModelWithUniverse(chromatic.NewUniverse(a.N()), a)
}

// NewModelWithUniverse is NewModel over a caller-provided Chr² vertex
// interner, so models of the same system size share one vertex
// identity space: their complexes, Algorithm 1 outputs and figures
// name a Chr² vertex by one ID. The universe must have the adversary's
// system size and is safe to share concurrently.
func NewModelWithUniverse(u *chromatic.Universe, a *adversary.Adversary) (*Model, error) {
	if u.N() != a.N() {
		return nil, fmt.Errorf("model for %v: universe has n=%d, adversary n=%d", a, u.N(), a.N())
	}
	ra, err := affine.BuildRAForAdversary(u, a, affine.DefaultVariant)
	if err != nil {
		return nil, fmt.Errorf("model for %v: %w", a, err)
	}
	return &Model{adv: a, u: u, ra: ra, cache: chromatic.NewTowerCache()}, nil
}

// Adversary returns the underlying adversary.
func (m *Model) Adversary() *adversary.Adversary { return m.adv }

// AffineTask returns R_A.
func (m *Model) AffineTask() *affine.Task { return m.ra }

// N returns the system size.
func (m *Model) N() int { return m.adv.N() }

// Setcon returns the set-consensus power of the model.
func (m *Model) Setcon() int { return m.adv.Setcon() }

// SetWorkers bounds the worker pools used by Solve's subdivision and
// map-search engines: 1 forces the serial reference paths, <= 0 (the
// default) uses one worker per CPU.
func (m *Model) SetWorkers(workers int) { m.workers = workers }

// Signature returns a deterministic identifier of the model (its
// adversary plus its affine task), usable as a memoization key.
func (m *Model) Signature() string {
	return m.adv.Signature() + "/" + m.ra.Signature()
}

// Alpha evaluates the agreement function at P.
func (m *Model) Alpha(p procs.Set) int { return m.adv.Alpha(p) }

// Solve decides whether the task is solvable in this model by searching
// for a chromatic simplicial map from R_A^ℓ(I) to the output complex,
// ℓ = 1..maxRounds (Theorem 16). The iterated complexes R_A^ℓ(I) are
// memoized in the model's own tower cache, so repeated decisions
// against the same model and input, and VerifyWitness after them,
// reuse them.
func (m *Model) Solve(task *tasks.Task, maxRounds int) (*solver.Result, error) {
	return m.SolveWith(task, maxRounds, solver.Options{})
}

// SolveWith is Solve with explicit engine options. Unset options inherit
// the model's defaults: SetWorkers, and the model's tower cache when
// opts.Cache is nil. Pass a cache to share towers beyond this model or
// to read its statistics.
func (m *Model) SolveWith(task *tasks.Task, maxRounds int, opts solver.Options) (*solver.Result, error) {
	if opts.Workers == 0 {
		opts.Workers = m.workers
	}
	if opts.Cache == nil {
		opts.Cache = m.cache
	}
	// CacheKey is left for SolveAffineWith to default to the affine
	// task's signature: the tower depends only on the membership
	// predicate, so every task decided against this model, and
	// VerifyWitness, share one cache entry.
	return solver.SolveAffineWith(task, m.ra, maxRounds, opts)
}

// SolveKSetConsensus decides k-set consensus solvability — by the FACT
// theorem the answer is k ≥ Setcon().
func (m *Model) SolveKSetConsensus(k, maxRounds int) (*solver.Result, error) {
	return m.Solve(tasks.KSetConsensus(m.N(), k), maxRounds)
}

// VerifyWitness independently re-validates a witness map returned by
// Solve: simplicial, chromatic, and carried by Δ on every simplex of
// R_A^rounds(I). The sweep runs on the model's worker pool (SetWorkers)
// and reuses the tower Solve built in the model's tower cache.
func (m *Model) VerifyWitness(task *tasks.Task, rounds int, witness sc.Map) error {
	return solver.VerifyWitnessTables(task, m.ra, rounds, witness, solver.Options{
		Workers:  m.workers,
		Cache:    m.cache,
		CacheKey: m.ra.Signature(),
	})
}

// VerifyAlgorithmOne runs the Theorem 7 verification campaign: `trials`
// random α-model schedules of Algorithm 1, checking liveness and that
// outputs land in R_A.
func (m *Model) VerifyAlgorithmOne(trials int, seed int64) *core.AlgOneReport {
	return core.CheckAlgorithmOne(m.N(), m.adv.Alpha, m.ra, trials, seed)
}

// VerifySetConsensusSimulation runs the Section 6 campaign: α-adaptive
// set consensus over iterations of R_A.
func (m *Model) VerifySetConsensusSimulation(trials int, seed int64) *core.SetConsensusReport {
	return core.CheckSetConsensus(m.ra, m.adv.Alpha, trials, seed)
}

// NewSetConsensusSim returns a Section 6 α-adaptive set-consensus
// simulator over this model's iterated affine task.
func (m *Model) NewSetConsensusSim() *core.SetConsensusSim {
	return core.NewSetConsensusSim(m.ra, m.adv.Alpha)
}

// VerifyMuQ checks Properties 9, 10 and 12 of the μ_Q leader map
// exhaustively over the facets of R_A.
func (m *Model) VerifyMuQ() error {
	if err := core.CheckMuQValidity(m.adv.Alpha, m.ra); err != nil {
		return fmt.Errorf("validity (Property 9): %w", err)
	}
	if err := core.CheckMuQAgreement(m.adv.Alpha, m.ra); err != nil {
		return fmt.Errorf("agreement (Property 10): %w", err)
	}
	if err := core.CheckMuQRobustness(m.adv.Alpha, m.ra); err != nil {
		return fmt.Errorf("robustness (Property 12): %w", err)
	}
	return nil
}

// Stats summarizes the affine task's complex.
func (m *Model) Stats() string {
	return fmt.Sprintf("%s: %d facets, %d vertices", m.ra.Name, m.ra.NumFacets(), m.ra.VertexCensus())
}

// Figure kinds accepted by FigureSVG.
const (
	FigureChr         = "chr"         // Figure 1a: Chr s
	FigureAffineTask  = "affine"      // Figures 1b and 7: R_A in blue
	FigureContention  = "contention"  // Figure 4c: Cont² in red
	FigureCritical    = "critical"    // Figure 5: critical simplices
	FigureConcurrency = "concurrency" // Figure 6: concurrency map
)

// FigureSVG regenerates one of the paper's figures for this model
// (3-process systems render best; larger n still produce valid SVG of
// the front face).
func (m *Model) FigureSVG(kind string) (string, error) {
	switch kind {
	case FigureChr:
		return render.Chr1SVG(m.N()), nil
	case FigureAffineTask:
		return render.AffineTaskSVG(m.ra), nil
	case FigureContention:
		return render.Cont2SVG(m.N()), nil
	case FigureCritical:
		return render.CriticalSVG(m.N(), m.adv.Alpha, m.adv.String()), nil
	case FigureConcurrency:
		return render.ConcurrencySVG(m.N(), m.adv.Alpha, m.adv.String()), nil
	default:
		return "", fmt.Errorf("unknown figure kind %q", kind)
	}
}
