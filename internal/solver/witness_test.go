package solver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/procs"
	"repro/internal/sc"
	"repro/internal/tasks"
)

// witnessDigest hashes the sorted (v, φ(v)) pairs of a witness map, so a
// test can pin the exact map a decision returns, not just its verdict.
func witnessDigest(m sc.Map) string {
	vs := make([]sc.VertexID, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%d %d\n", v, m[v])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestWitnessMapsPinned pins the exact witness maps of several n=3 and
// n=4 decisions at 1 and 8 workers: neither the layout of the search
// state nor the order in which it reads the facets may change which
// witness a decision returns.
func TestWitnessMapsPinned(t *testing.T) {
	fig5b, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		adv    *adversary.Adversary
		task   *tasks.Task
		digest string
	}{
		{"1-OF/k=1", adversary.KObstructionFree(3, 1), tasks.KSetConsensus(3, 1), "c7d9cb9b2ed60700"},
		{"2-OF/k=2", adversary.KObstructionFree(3, 2), tasks.KSetConsensus(3, 2), "752e99959004e987"},
		{"1-res/k=2", adversary.TResilient(3, 1), tasks.KSetConsensus(3, 2), "c5cddbd8881610e7"},
		{"fig5b/k=2", fig5b, tasks.KSetConsensus(3, 2), "cc1efb8a6aaf253d"},
		{"waitfree/k=3", adversary.WaitFree(3), tasks.KSetConsensus(3, 3), "7fcf86677caa5ab0"},
		{"n=4/1-res/k=2", adversary.TResilient(4, 1), tasks.KSetConsensus(4, 2), "d1bd9a288fed5561"},
		{"n=4/2-OF/k=2", adversary.KObstructionFree(4, 2), tasks.KSetConsensus(4, 2), "4f9028177b402c0e"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ra := buildRA(t, c.adv)
			for _, workers := range []int{1, 8} {
				res, err := SolveAffineWith(c.task, ra, 1, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Solvable || res.Rounds != 1 {
					t.Fatalf("workers=%d: want solvable at round 1, got %+v", workers, res)
				}
				if got := witnessDigest(res.Map); got != c.digest {
					t.Errorf("workers=%d: witness digest %s, want %s", workers, got, c.digest)
				}
			}
		})
	}
}
