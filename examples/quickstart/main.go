// Quickstart: build the affine task R_A of a fair adversary and print
// the paper's headline numbers — the Figure 1 census, the task's size,
// and the FACT equivalence in action for set consensus.
package main

import (
	"fmt"
	"log"

	fact "repro"
	"repro/internal/adversary"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The 1-resilient 3-process model: the running example of the paper
	// (Figure 1b).
	adv := adversary.TResilient(3, 1)
	fmt.Printf("adversary: %v\n", adv)
	fmt.Printf("  fair: %v, superset-closed: %v, symmetric: %v\n",
		adv.IsFair(), adv.IsSupersetClosed(), adv.IsSymmetric())
	fmt.Printf("  set-consensus power (setcon): %d\n", adv.Setcon())

	model, err := fact.NewModel(adv)
	if err != nil {
		return err
	}
	fmt.Printf("affine task: %s\n", model.Stats())

	// FACT, constructive direction: Algorithm 1 solves R_A in the
	// α-model. Verify over 50 random failure-injecting schedules.
	report := model.VerifyAlgorithmOne(50, 2024)
	fmt.Printf("Algorithm 1: liveness %d/%d, safety %d/%d (mean %.0f shared steps)\n",
		report.Liveness, report.Trials, report.Safety, report.Trials, report.MeanSteps)

	// FACT, solvability direction: k-set consensus is solvable iff
	// k ≥ setcon — decided by simplicial-map search on R_A.
	for k := 1; k <= 3; k++ {
		res, err := model.SolveKSetConsensus(k, 1)
		if err != nil {
			return err
		}
		verdict := "NO MAP (unsolvable)"
		if res.Solvable {
			verdict = fmt.Sprintf("map found at ℓ=%d", res.Rounds)
		}
		fmt.Printf("  %d-set consensus: %s\n", k, verdict)
	}
	return nil
}
