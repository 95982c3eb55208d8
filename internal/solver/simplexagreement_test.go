package solver

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/tasks"
)

// TestSimplexAgreementSelfSolvable: the affine task R_A, viewed as a
// simplex-agreement task, is solvable from one iteration of R_A — the
// identity-shaped map exists by construction. This is the coherence
// check tying the task formalism to the affine model.
func TestSimplexAgreementSelfSolvable(t *testing.T) {
	for _, a := range []*adversary.Adversary{
		adversary.KObstructionFree(3, 1),
		adversary.TResilient(3, 1),
	} {
		ra := buildRA(t, a)
		task := tasks.SimplexAgreement(ra)
		if err := task.Validate(); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		res, err := SolveAffineWith(task, ra, 1, Options{})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !res.Solvable || res.Rounds != 1 {
			t.Fatalf("%v: simplex agreement on R_A should be solvable at ℓ=1: %+v", a, res)
		}
		if err := VerifyWitnessTables(task, ra, res.Rounds, res.Map, Options{}); err != nil {
			t.Fatalf("%v: witness invalid: %v", a, err)
		}
	}
}

// TestSimplexAgreementCrossModel: simplex agreement on R_{1-OF} is
// solvable from R_A of ANY model whose affine task refines it... in
// particular from R_{1-OF} itself; and the wait-free model (full Chr²)
// cannot solve R_{1-OF}-agreement in one round (the 1-OF task bans
// contention that wait-free runs exhibit).
func TestSimplexAgreementCrossModel(t *testing.T) {
	oneOF := buildRA(t, adversary.KObstructionFree(3, 1))
	task := tasks.SimplexAgreement(oneOF)

	// Solvable from a strictly stronger model: 1-resilience? R_{1-res}
	// is NOT inside R_{1-OF} (they are incomparable restrictions), so
	// no claim there; instead check the degenerate positive: from
	// R_{1-OF} itself it is solvable (previous test) and from the full
	// wait-free Chr² there is no 1-round map (wait-free cannot enforce
	// the 1-OF contention ban — otherwise it would solve consensus).
	wf := buildRA(t, adversary.WaitFree(3))
	res, err := SolveAffineWith(task, wf, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvable {
		t.Fatalf("wait-free should not solve R_{1-OF} simplex agreement (would imply consensus)")
	}
}
