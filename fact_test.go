package fact

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/tasks"
)

func TestModelLifecycle(t *testing.T) {
	a := adversary.KObstructionFree(3, 1)
	m, err := NewModel(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 || m.Setcon() != 1 {
		t.Errorf("metadata wrong: n=%d setcon=%d", m.N(), m.Setcon())
	}
	if m.Alpha(procs.FullSet(3)) != 1 {
		t.Errorf("alpha wrong")
	}
	if m.AffineTask().NumFacets() != 73 {
		t.Errorf("R_A facets = %d, want 73", m.AffineTask().NumFacets())
	}
	if !strings.Contains(m.Stats(), "73 facets") {
		t.Errorf("stats = %s", m.Stats())
	}
	if m.Adversary() != a {
		t.Errorf("adversary accessor wrong")
	}
}

func TestModelSolveConsensus(t *testing.T) {
	m, err := NewModel(adversary.KObstructionFree(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveKSetConsensus(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Errorf("consensus must be solvable under 1-OF")
	}
	// FACT's negative direction: 1-resilience (setcon 2) cannot solve
	// consensus.
	m2, err := NewModel(adversary.TResilient(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.SolveKSetConsensus(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Solvable {
		t.Errorf("consensus must be unsolvable under 1-resilience")
	}
}

func TestModelVerifications(t *testing.T) {
	m, err := NewModel(adversary.TResilient(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyMuQ(); err != nil {
		t.Errorf("μ_Q: %v", err)
	}
	r1 := m.VerifyAlgorithmOne(20, 7)
	if r1.Safety != r1.Trials {
		t.Errorf("Algorithm 1 safety %d/%d: %v", r1.Safety, r1.Trials, r1.Violations)
	}
	r2 := m.VerifySetConsensusSimulation(20, 7)
	if r2.OK != r2.Trials {
		t.Errorf("simulation %d/%d: %v", r2.OK, r2.Trials, r2.Violations)
	}
}

func TestModelFigures(t *testing.T) {
	m, err := NewModel(adversary.KObstructionFree(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{
		FigureChr, FigureAffineTask, FigureContention, FigureCritical, FigureConcurrency,
	} {
		svg, err := m.FigureSVG(kind)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if !strings.HasPrefix(svg, "<svg") {
			t.Errorf("%s: not an SVG", kind)
		}
	}
	if _, err := m.FigureSVG("nonsense"); err == nil {
		t.Errorf("unknown figure kind must fail")
	}
}

func TestNewModelEmptyAdversary(t *testing.T) {
	// An adversary with α(Π) = 0 (no live set) yields an empty affine
	// task and must be rejected.
	a, err := adversary.New(3, procs.SetOf(0))
	if err != nil {
		t.Fatal(err)
	}
	// α(Π) = 1 here; instead build one whose restriction kills it:
	// actually a single live set {p1} gives α(Π)=1, fine. Use the truly
	// empty adversary.
	empty, err := adversary.New(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(empty); err == nil {
		t.Errorf("empty adversary must be rejected")
	}
	if _, err := NewModel(a); err != nil {
		t.Errorf("singleton adversary should work: %v", err)
	}
}

// TestSharedUniverseModels builds several models over one shared Chr²
// vertex identity space and checks they behave like privately-interned
// ones, including witness verification through the public API.
func TestSharedUniverseModels(t *testing.T) {
	u := chromatic.NewUniverse(3)
	advs := []*adversary.Adversary{adversary.TResilient(3, 1), adversary.KObstructionFree(3, 1)}
	for _, a := range advs {
		m, err := NewModelWithUniverse(u, a)
		if err != nil {
			t.Fatal(err)
		}
		k := m.Setcon()
		res, err := m.SolveKSetConsensus(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solvable {
			t.Fatalf("%v: %d-set consensus should be solvable", a, k)
		}
		task := tasks.KSetConsensus(3, k)
		if err := m.VerifyWitness(task, res.Rounds, res.Map); err != nil {
			t.Errorf("%v: witness rejected: %v", a, err)
		}
	}
	if _, err := NewModelWithUniverse(chromatic.NewUniverse(4), adversary.TResilient(3, 1)); err == nil {
		t.Error("mismatched universe size should be rejected")
	}
}
