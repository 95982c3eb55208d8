package core

// Randomized model-checking harnesses for the two constructive theorems:
// Theorem 7 (Algorithm 1 solves R_A in the α-model — experiment E10) and
// the Section 6 set-consensus simulation (experiment E11/E12 support).

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/procs"
)

// AlgOneReport aggregates an E10 campaign.
type AlgOneReport struct {
	Trials     int
	Liveness   int // runs where all correct processes decided
	Safety     int // runs whose outputs form a simplex of R_A
	MeanSteps  float64
	Violations []string // diagnostics of failed runs (empty on success)
}

// CheckAlgorithmOne runs `trials` random α-model schedules of
// Algorithm 1 and verifies liveness (Lemma 5) and safety (Lemma 6)
// against the affine task.
func CheckAlgorithmOne(n int, alpha adversary.AlphaFunc, task *affine.Task, trials int, seed int64) *AlgOneReport {
	rng := rand.New(rand.NewSource(seed))
	report := &AlgOneReport{Trials: trials}
	full := procs.FullSet(n)
	// Participating sets with α(P) ≥ 1.
	var okParts []procs.Set
	for _, p := range procs.NonemptySubsets(full) {
		if alpha(p) >= 1 {
			okParts = append(okParts, p)
		}
	}
	totalSteps := 0
	for trial := 0; trial < trials; trial++ {
		p := okParts[rng.Intn(len(okParts))]
		budget := alpha(p) - 1
		kill := make(map[procs.ID]int)
		if budget > 0 {
			members := p.Members()
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			f := rng.Intn(budget + 1)
			for i := 0; i < f; i++ {
				kill[members[i]] = rng.Intn(25)
			}
		}
		res, err := RunAlgorithmOne(RunConfig{
			N:            n,
			Alpha:        alpha,
			Participants: p,
			KillAfter:    kill,
			Seed:         rng.Int63(),
			MaxSteps:     40000,
		})
		if err != nil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("trial %d (P=%v, kill=%v): %v", trial, p, kill, err))
			continue
		}
		report.Liveness++
		totalSteps += res.Steps
		if err := res.CheckSafety(task); err != nil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("trial %d (P=%v, kill=%v): %v", trial, p, kill, err))
			continue
		}
		report.Safety++
	}
	if report.Liveness > 0 {
		report.MeanSteps = float64(totalSteps) / float64(report.Liveness)
	}
	return report
}

// SetConsensusReport aggregates a Section 6 simulation campaign.
type SetConsensusReport struct {
	Trials      int
	OK          int
	MaxDistinct int
	Violations  []string
}

// CheckSetConsensus runs `trials` random iterated-R_A set-consensus
// executions over random participating sets with α(P) ≥ 1, validating
// termination, validity and α-agreement.
func CheckSetConsensus(task *affine.Task, alpha adversary.AlphaFunc, trials int, seed int64) *SetConsensusReport {
	rng := rand.New(rand.NewSource(seed))
	sim := NewSetConsensusSim(task, alpha)
	report := &SetConsensusReport{Trials: trials}
	full := procs.FullSet(task.N())
	var okParts []procs.Set
	for _, p := range procs.NonemptySubsets(full) {
		if alpha(p) >= 1 && len(sim.RestrictedFacets(p)) > 0 {
			okParts = append(okParts, p)
		}
	}
	if len(okParts) == 0 {
		report.Violations = append(report.Violations, "no participating set admits facets")
		return report
	}
	for trial := 0; trial < trials; trial++ {
		p := okParts[rng.Intn(len(okParts))]
		proposals := make(map[procs.ID]string, p.Size())
		p.ForEach(func(q procs.ID) {
			proposals[q] = fmt.Sprintf("v%d", rng.Intn(p.Size())) // colliding proposals allowed
		})
		res, err := sim.Run(proposals, rng)
		if err != nil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("trial %d (P=%v): %v", trial, p, err))
			continue
		}
		if err := res.Validate(proposals); err != nil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("trial %d (P=%v): %v", trial, p, err))
			continue
		}
		report.OK++
		if d := res.Distinct(); d > report.MaxDistinct {
			report.MaxDistinct = d
		}
	}
	return report
}
