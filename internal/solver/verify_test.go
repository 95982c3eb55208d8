package solver

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sc"
	"repro/internal/tasks"
)

// TestVerifyWitnessParallelEquivalence checks that the parallel sweep
// accepts exactly the witnesses the serial one accepts.
func TestVerifyWitnessParallelEquivalence(t *testing.T) {
	for _, c := range []struct {
		name string
		adv  *adversary.Adversary
		k    int
	}{
		{"1-OF/k=1", adversary.KObstructionFree(3, 1), 1},
		{"1-res/k=2", adversary.TResilient(3, 1), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			ra := buildRA(t, c.adv)
			task := tasks.KSetConsensus(3, c.k)
			res, err := SolveAffineWith(task, ra, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solvable {
				t.Fatalf("%d-set consensus should be solvable in %v", c.k, c.adv)
			}
			if err := VerifyWitnessTables(task, ra, res.Rounds, res.Map, Options{Workers: 1}); err != nil {
				t.Fatalf("serial verify: %v", err)
			}
			for _, workers := range []int{2, 8} {
				if err := VerifyWitnessTables(task, ra, res.Rounds, res.Map, Options{Workers: workers}); err != nil {
					t.Fatalf("workers=%d verify: %v", workers, err)
				}
			}
		})
	}
}

// TestVerifyWitnessCorruptedMap corrupts a valid witness one vertex at a
// time and checks that (a) at least one corruption is caught, and (b)
// the serial and parallel sweeps report the identical first violation.
func TestVerifyWitnessCorruptedMap(t *testing.T) {
	ra := buildRA(t, adversary.TResilient(3, 1))
	task := tasks.KSetConsensus(3, 2)
	res, err := SolveAffineWith(task, ra, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("2-set consensus should be solvable 1-resiliently")
	}
	outByColor := make(map[int][]sc.VertexID)
	for _, o := range task.Output.VertexIDs() {
		ov, _ := task.Output.Vertex(o)
		outByColor[ov.Color] = append(outByColor[ov.Color], o)
	}
	caught := 0
	for v, orig := range res.Map {
		vv, _ := task.Output.Vertex(orig)
		for _, o := range outByColor[vv.Color] {
			if o == orig {
				continue
			}
			corrupted := make(sc.Map, len(res.Map))
			for k2, v2 := range res.Map {
				corrupted[k2] = v2
			}
			corrupted[v] = o
			serialErr := VerifyWitnessTables(task, ra, res.Rounds, corrupted, Options{Workers: 1})
			parErr := VerifyWitnessTables(task, ra, res.Rounds, corrupted, Options{Workers: 8})
			if (serialErr == nil) != (parErr == nil) {
				t.Fatalf("verdict diverges for corruption %v->%v: serial %v, parallel %v",
					v, o, serialErr, parErr)
			}
			if serialErr == nil {
				continue
			}
			caught++
			if serialErr.Error() != parErr.Error() {
				t.Fatalf("first violation diverges for corruption %v->%v:\n  serial:   %v\n  parallel: %v",
					v, o, serialErr, parErr)
			}
		}
	}
	if caught == 0 {
		t.Fatal("no corruption was caught — negative case not exercised")
	}
}
