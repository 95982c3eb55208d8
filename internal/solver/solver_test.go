package solver

import (
	"errors"
	"testing"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/tasks"
)

func buildRA(t *testing.T, a *adversary.Adversary) *affine.Task {
	t.Helper()
	u := chromatic.NewUniverse(a.N())
	task, err := affine.BuildRAForAdversary(u, a, affine.DefaultVariant)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestIdentitySolvableEverywhere(t *testing.T) {
	ra := buildRA(t, adversary.KObstructionFree(3, 1))
	res, err := SolveAffine(tasks.TrivialIdentity(3), ra, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable || res.Rounds != 1 {
		t.Fatalf("identity should be solvable in one round: %+v", res)
	}
}

// TestFACTSetConsensus is experiment E12: for a battery of fair
// adversaries, k-set consensus is map-solvable from R_A iff
// k ≥ setcon(A). The positive direction must appear at ℓ = 1 (the μ_Q
// construction realizes it); the negative direction is checked at
// ℓ = 1 (and ℓ = 2 for the smallest configurations in the long bench).
func TestFACTSetConsensus(t *testing.T) {
	fig5b, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	advs := []*adversary.Adversary{
		adversary.KObstructionFree(3, 1),
		adversary.KObstructionFree(3, 2),
		adversary.TResilient(3, 1),
		adversary.WaitFree(3),
		fig5b,
	}
	for _, a := range advs {
		ra := buildRA(t, a)
		setcon := a.Setcon()
		for k := 1; k <= 3; k++ {
			task := tasks.KSetConsensus(3, k)
			res, err := SolveAffine(task, ra, 1)
			if errors.Is(err, ErrSearchLimit) {
				// The only instance expected to exceed the bounded
				// search is the wait-free k=2 Sperner obstruction: a
				// global parity argument invisible to local pruning.
				// Impossibility there is the classical ACT result, not
				// this paper's contribution; we record it as undecided
				// by search (see EXPERIMENTS.md, E12).
				if a.Setcon() == 3 && k == 2 {
					continue
				}
				t.Fatalf("%v k=%d: unexpected search limit", a, k)
			}
			if err != nil {
				t.Fatalf("%v k=%d: %v", a, k, err)
			}
			want := k >= setcon
			if res.Solvable != want {
				t.Errorf("%v (setcon=%d): %s solvable=%v, want %v",
					a, setcon, task.Name, res.Solvable, want)
			}
			if res.Solvable {
				if err := VerifyWitnessTables(task, ra, res.Rounds, res.Map, Options{}); err != nil {
					t.Errorf("%v k=%d: witness invalid: %v", a, k, err)
				}
			}
		}
	}
}

// TestConsensusImpossibleWaitFree: the FLP-style baseline — consensus
// has no map from Chr^{2ℓ} s for the wait-free model (ℓ = 1, 2).
func TestConsensusImpossibleWaitFree(t *testing.T) {
	task := tasks.Consensus(2)
	res, err := SolveTables(task, chromatic.FullChr2Tables, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvable {
		t.Fatalf("wait-free consensus must be unsolvable")
	}
	if len(res.ComplexSizes) != 2 {
		t.Errorf("expected sizes for 2 rounds, got %v", res.ComplexSizes)
	}
}

// TestConsensusSolvableUnder1OF: 1-obstruction-freedom has setcon 1, so
// consensus is solvable from R_A in one round — and the witness map is
// independently verified.
func TestConsensusSolvableUnder1OF(t *testing.T) {
	ra := buildRA(t, adversary.KObstructionFree(3, 1))
	task := tasks.Consensus(3)
	res, err := SolveAffine(task, ra, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("consensus must be solvable under 1-OF")
	}
	if err := VerifyWitnessTables(task, ra, res.Rounds, res.Map, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactBoundedRounds is experiment E13: solvable tasks in affine
// models are solved at a bounded round, and the solver reports the
// witnessing ℓ — here ℓ=1 for 2-set consensus under 1-resilience.
func TestCompactBoundedRounds(t *testing.T) {
	ra := buildRA(t, adversary.TResilient(3, 1))
	res, err := SolveAffine(tasks.KSetConsensus(3, 2), ra, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable || res.Rounds != 1 {
		t.Fatalf("2-set consensus under 1-resilience: %+v", res)
	}
}

// TestSolveValidation: invalid configurations are rejected.
func TestSolveValidation(t *testing.T) {
	task := tasks.Consensus(2)
	if _, err := SolveTables(task, chromatic.FullChr2Tables, 0, Options{}); err == nil {
		t.Errorf("maxRounds 0 should be rejected")
	}
	bad := &tasks.Task{Name: "bad", N: 2}
	if _, err := SolveTables(bad, chromatic.FullChr2Tables, 1, Options{}); err == nil {
		t.Errorf("invalid task should be rejected")
	}
}

// TestWaitFreeKSetConsensusBounds: wait-free (full Chr²) positives
// resolve instantly (k = 3 trivially, and k = n is always a valid map);
// the k = 2 Sperner impossibility is a global parity obstruction that
// the bounded search reports as undecided (ErrSearchLimit) rather than
// deciding incorrectly — the mechanism this test pins, under a small
// node limit at 1 and 8 workers and then under the default limit.
func TestWaitFreeKSetConsensusBounds(t *testing.T) {
	triv, err := SolveTables(tasks.KSetConsensus(3, 3), chromatic.FullChr2Tables, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !triv.Solvable {
		t.Fatalf("3-set consensus must be trivially solvable")
	}
	for _, workers := range []int{1, 8} {
		_, err := SolveTables(tasks.KSetConsensus(3, 2), chromatic.FullChr2Tables, 1,
			Options{Workers: workers, NodeLimit: 20_000})
		if !errors.Is(err, ErrSearchLimit) {
			t.Fatalf("workers=%d: want ErrSearchLimit under a 20000-node limit, got %v", workers, err)
		}
	}
	if testing.Short() {
		t.Skip("skipping Sperner search-limit probe in -short mode")
	}
	_, err = SolveTables(tasks.KSetConsensus(3, 2), chromatic.FullChr2Tables, 1, Options{})
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("wait-free 2-set consensus should exhaust the search budget, got %v", err)
	}
}
