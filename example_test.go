package fact_test

import (
	"fmt"

	fact "repro"
	"repro/internal/adversary"
	"repro/internal/procs"
)

// ExampleNewModel builds the affine task of the 1-resilient 3-process
// model and reports the headline numbers.
func ExampleNewModel() {
	model, err := fact.NewModel(adversary.TResilient(3, 1))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("setcon:", model.Setcon())
	fmt.Println("facets:", model.AffineTask().NumFacets())
	// Output:
	// setcon: 2
	// facets: 142
}

// ExampleModel_SolveKSetConsensus demonstrates the FACT theorem as a
// decision procedure: consensus is unsolvable under 1-resilience but
// 2-set consensus is solvable.
func ExampleModel_SolveKSetConsensus() {
	model, err := fact.NewModel(adversary.TResilient(3, 1))
	if err != nil {
		fmt.Println(err)
		return
	}
	for k := 1; k <= 2; k++ {
		res, err := model.SolveKSetConsensus(k, 1)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("k=%d solvable=%v\n", k, res.Solvable)
	}
	// Output:
	// k=1 solvable=false
	// k=2 solvable=true
}

// ExampleAdversary_IsFair classifies the paper's Figure 5b adversary.
func ExampleAdversary_IsFair() {
	adv, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("fair:", adv.IsFair())
	fmt.Println("setcon:", adv.Setcon())
	fmt.Println("alpha of {p2}:", adv.Alpha(procs.SetOf(1)))
	// Output:
	// fair: true
	// setcon: 2
	// alpha of {p2}: 1
}
