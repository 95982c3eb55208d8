// Setagreement: the workload that motivates the paper — adaptive set
// consensus under a non-uniform failure model. Runs Algorithm 1 under
// random α-model schedules and the Section 6 simulation over iterated
// R_A for the Figure 5b adversary ({p2}, {p1,p3} and supersets), whose
// agreement power is 1 for partial participation and 2 at full
// participation.
package main

import (
	"fmt"
	"log"
	"math/rand"

	fact "repro"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/procs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	adv, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		return err
	}
	fmt.Printf("adversary %v — fair=%v, setcon=%d\n", adv, adv.IsFair(), adv.Setcon())
	fmt.Println("agreement function (adaptivity):")
	for _, p := range []procs.Set{
		procs.SetOf(1), procs.SetOf(0, 2), procs.SetOf(0, 1), procs.FullSet(3),
	} {
		fmt.Printf("  α(%v) = %d\n", p, adv.Alpha(p))
	}

	model, err := fact.NewModel(adv)
	if err != nil {
		return err
	}
	fmt.Printf("affine task: %s\n", model.Stats())

	// Theorem 7: Algorithm 1 under 200 random adversarial schedules.
	rep := model.VerifyAlgorithmOne(200, 42)
	fmt.Printf("Algorithm 1: liveness %d/%d, safety %d/%d\n",
		rep.Liveness, rep.Trials, rep.Safety, rep.Trials)

	// Properties 9/10/12 of the μ_Q leader map, exhaustively.
	if err := model.VerifyMuQ(); err != nil {
		return fmt.Errorf("μ_Q properties: %w", err)
	}
	fmt.Println("μ_Q properties 9/10/12: verified exhaustively over R_A facets")

	// Section 6: α-adaptive set consensus in iterated R_A, with a
	// detailed sample run at full participation.
	sim := model.VerifySetConsensusSimulation(200, 42)
	fmt.Printf("§6 simulation: %d/%d runs valid, max distinct decisions %d (bound α(Π)=%d)\n",
		sim.OK, sim.Trials, sim.MaxDistinct, adv.Alpha(procs.FullSet(3)))

	// One verbose run for illustration.
	fmt.Println("sample run with proposals p1→x, p2→y, p3→z:")
	out, err := sampleRun(model)
	if err != nil {
		return err
	}
	for _, p := range procs.FullSet(3).Members() {
		fmt.Printf("  %v decided %q at iteration %d\n", p, out.Decisions[p], out.DecidedAt[p])
	}
	return nil
}

// sampleRun executes one validated simulation run.
func sampleRun(model *fact.Model) (*core.SimResult, error) {
	sim := model.NewSetConsensusSim()
	rng := rand.New(rand.NewSource(7))
	proposals := map[procs.ID]string{0: "x", 1: "y", 2: "z"}
	out, err := sim.Run(proposals, rng)
	if err != nil {
		return nil, err
	}
	if err := out.Validate(proposals); err != nil {
		return nil, err
	}
	return out, nil
}
