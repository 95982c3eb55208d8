// Classify: the Figure 2 census as data, computed by the sharded
// parallel census engine. Sweeps every adversary of a small system,
// classifies it (superset-closed / symmetric / fair), verifies the
// paper's inclusion claims, and prints the distribution of
// set-consensus powers across the fair class.
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/census"
	"repro/internal/procs"
)

func main() {
	if err := run(3); err != nil {
		log.Fatal(err)
	}
}

func run(n int) error {
	rep, err := census.Run(n, census.Options{})
	if err != nil {
		return err
	}
	s := rep.Summary

	fmt.Printf("adversary census, n=%d\n", n)
	fmt.Printf("  total:            %4d\n", s.Total)
	fmt.Printf("  superset-closed:  %4d (all fair: %v)\n", s.SupersetClosed, s.InclusionViolations == 0)
	fmt.Printf("  symmetric:        %4d (all fair: %v)\n", s.Symmetric, s.InclusionViolations == 0)
	fmt.Printf("  fair:             %4d\n", s.Fair)
	fmt.Printf("  unfair:           %4d (outside the FACT theorem's class)\n", s.Total-s.Fair)
	fmt.Println("  setcon histogram over fair adversaries:")
	for k, c := range s.SetconHist {
		if c > 0 {
			fmt.Printf("    setcon=%d: %d adversaries\n", k, c)
		}
	}
	// Figure 2: superset-closed ⊂ fair and symmetric ⊂ fair.
	for _, e := range rep.Entries {
		if (e.SupersetClosed || e.Symmetric) && !e.Fair {
			fmt.Printf("  INCLUSION VIOLATION: %s\n", e.Adversary)
		}
	}

	// A concrete unfair adversary, with its fairness witness.
	unfair, err := adversary.New(3, procs.SetOf(0, 1), procs.SetOf(2))
	if err != nil {
		return err
	}
	p, q, isFair := unfair.FairnessWitness()
	fmt.Printf("example unfair adversary %v: fair=%v, witness P=%v Q=%v\n", unfair, isFair, p, q)
	return nil
}
