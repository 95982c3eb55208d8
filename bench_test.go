package fact

// Benchmark harness: one benchmark per experiment E1–E16
// (BenchmarkE1Chr … BenchmarkE16Setcon). The paper has no wall-clock
// tables — its artifacts are combinatorial objects and constructive
// theorems — so each bench regenerates the corresponding artifact and
// reports the cost of doing so, plus (via -v logs) the measured
// quantities that the internal packages' tests pin, e.g.
// TestFigure2Census for E8 and TestRAStrictlyInsideRkOF2 for E9.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/core"
	"repro/internal/hitting"
	"repro/internal/iis"
	"repro/internal/memory"
	"repro/internal/procs"
	"repro/internal/render"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/tasks"
)

// BenchmarkE1Chr regenerates Figure 1a: the standard chromatic
// subdivision for n = 2..5.
func BenchmarkE1Chr(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ops := procs.EnumerateOrderedPartitions(procs.FullSet(n))
				if uint64(len(ops)) != procs.CountOrderedPartitions(n) {
					b.Fatalf("facet count mismatch")
				}
			}
		})
	}
	b.Run("complex/n=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := chromatic.BuildChr1(3)
			if c.NumVertices() != 12 {
				b.Fatalf("vertices = %d", c.NumVertices())
			}
		}
	})
}

// BenchmarkE2RTres regenerates Figure 1b (R_{1-res}, n=3) and the E2
// equality R_{t-res} = R_A.
func BenchmarkE2RTres(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d/t=1", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := chromatic.NewUniverse(n)
				rt, err := affine.BuildRTres(u, 1)
				if err != nil {
					b.Fatal(err)
				}
				ra, err := affine.BuildRA(u, adversary.TResilient(n, 1).Alpha, affine.DefaultVariant)
				if err != nil {
					b.Fatal(err)
				}
				if !ra.Equal(rt) {
					b.Fatalf("E2 equality fails")
				}
			}
		})
	}
}

// BenchmarkE3ISRuns regenerates the Figure 3 objects: IS run validation
// and enumeration.
func BenchmarkE3ISRuns(b *testing.B) {
	ground := procs.FullSet(4)
	b.Run("validate", func(b *testing.B) {
		views := procs.SingletonOrder(1, 0, 2, 3).Views()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := iis.ValidateViews(views); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumerate-2-rounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := len(iis.EnumerateRuns(ground, 2)); got != 75*75 {
				b.Fatalf("runs = %d", got)
			}
		}
	})
}

// BenchmarkE4Cont2 regenerates Figure 4c: the 2-contention complex.
func BenchmarkE4Cont2(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := chromatic.NewUniverse(n)
				simps := affine.Cont2Simplices(u, 1)
				if n == 3 && len(simps) != 84 { // 78 pairs + 6 triangles
					b.Fatalf("census = %d", len(simps))
				}
			}
		})
	}
}

// BenchmarkE5Critical regenerates Figure 5: critical-simplex
// computation across all Chr-s simplices.
func BenchmarkE5Critical(b *testing.B) {
	alphas := map[string]adversary.AlphaFunc{
		"1-OF":  adversary.KObstructionFree(3, 1).Alpha,
		"fig5b": mustFig5b(b).Alpha,
	}
	for name, alpha := range alphas {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				count := 0
				affine.ForEachChr1Simplex(procs.FullSet(3), func(s affine.Chr1Simplex) bool {
					count += len(affine.CriticalSimplices(alpha, s))
					return true
				})
				if count == 0 {
					b.Fatal("no critical simplices")
				}
			}
		})
	}
}

// BenchmarkE6Conc regenerates Figure 6: the concurrency map over Chr s.
func BenchmarkE6Conc(b *testing.B) {
	alpha := mustFig5b(b).Alpha
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		levels := [4]int{}
		affine.ForEachChr1Simplex(procs.FullSet(3), func(s affine.Chr1Simplex) bool {
			levels[affine.Critical(alpha, s).Conc]++
			return true
		})
		if levels[2] == 0 {
			b.Fatal("no level-2 simplices for fig5b")
		}
	}
}

// BenchmarkE7RA regenerates Figure 7: R_A construction per adversary
// and system size.
func BenchmarkE7RA(b *testing.B) {
	cases := []struct {
		name string
		n    int
		adv  *adversary.Adversary
	}{
		{"1-OF/n=3", 3, adversary.KObstructionFree(3, 1)},
		{"fig5b/n=3", 3, mustFig5b(b)},
		{"1-res/n=3", 3, adversary.TResilient(3, 1)},
		{"2-res/n=4", 4, adversary.TResilient(4, 2)},
		{"2-OF/n=4", 4, adversary.KObstructionFree(4, 2)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := chromatic.NewUniverse(c.n)
				if _, err := affine.BuildRA(u, c.adv.Alpha, affine.DefaultVariant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if !testing.Short() {
		b.Run("1-res/n=5", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := chromatic.NewUniverse(5)
				if _, err := affine.BuildRA(u, adversary.TResilient(5, 1).Alpha, affine.DefaultVariant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Census regenerates Figure 2 as data: the adversary census.
func BenchmarkE8Census(b *testing.B) {
	b.Run("n=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fair := 0
			adversary.EnumerateAdversaries(3, func(a *adversary.Adversary) bool {
				if a.IsFair() {
					fair++
				}
				return true
			})
			if fair != 44 {
				b.Fatalf("fair = %d, want 44", fair)
			}
		}
	})
}

// BenchmarkE9RkOF regenerates the E9 comparison: Definition 9 vs
// Definition 6 for k-obstruction-free adversaries.
func BenchmarkE9RkOF(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d/n=3", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := chromatic.NewUniverse(3)
				rkof, err := affine.BuildRkOF(u, k)
				if err != nil {
					b.Fatal(err)
				}
				ra, err := affine.BuildRA(u, adversary.KObstructionFree(3, k).Alpha, affine.DefaultVariant)
				if err != nil {
					b.Fatal(err)
				}
				equal := ra.Equal(rkof)
				if k == 1 && !equal {
					b.Fatal("E9 k=1 equality fails")
				}
				if k == 2 && equal {
					b.Fatal("E9 k=2 should be a strict inclusion")
				}
			}
		})
	}
}

// BenchmarkE10Algorithm1 measures Algorithm 1 runs in the α-model
// (Theorem 7 campaign).
func BenchmarkE10Algorithm1(b *testing.B) {
	advs := map[string]*adversary.Adversary{
		"1-OF":  adversary.KObstructionFree(3, 1),
		"1-res": adversary.TResilient(3, 1),
		"fig5b": mustFig5b(b),
	}
	for name, a := range advs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunAlgorithmOne(core.RunConfig{
					N:            3,
					Alpha:        a.Alpha,
					Participants: procs.FullSet(3),
					Seed:         int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Outputs) != 3 {
					b.Fatal("missing outputs")
				}
			}
		})
	}
}

// BenchmarkE11MuQ measures the μ_Q property verification (Properties
// 9, 10, 12).
func BenchmarkE11MuQ(b *testing.B) {
	a := mustFig5b(b)
	u := chromatic.NewUniverse(3)
	ra, err := affine.BuildRAForAdversary(u, a, affine.DefaultVariant)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("validity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.CheckMuQValidity(a.Alpha, ra); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("agreement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.CheckMuQAgreement(a.Alpha, ra); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12FACT measures the solvability decision procedure
// (Theorem 16) on the E12 battery, with R_A(I) already in a warm tower
// cache: the timed work is the map search.
func BenchmarkE12FACT(b *testing.B) {
	cases := []struct {
		name string
		adv  *adversary.Adversary
		k    int
		want bool
	}{
		{"1-OF/k=1", adversary.KObstructionFree(3, 1), 1, true},
		{"1-res/k=1", adversary.TResilient(3, 1), 1, false},
		{"1-res/k=2", adversary.TResilient(3, 1), 2, true},
		{"fig5b/k=2", mustFig5b(b), 2, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			u := chromatic.NewUniverse(3)
			ra, err := affine.BuildRAForAdversary(u, c.adv, affine.DefaultVariant)
			if err != nil {
				b.Fatal(err)
			}
			opts := solver.Options{Cache: chromatic.NewTowerCache()}
			if _, err := solver.SolveAffineWith(tasks.KSetConsensus(3, c.k), ra, 1, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := solver.SolveAffineWith(tasks.KSetConsensus(3, c.k), ra, 1, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Solvable != c.want {
					b.Fatalf("solvable = %v, want %v", res.Solvable, c.want)
				}
			}
		})
	}
}

// BenchmarkE13Compactness measures bounded-round solvability discovery
// (the compactness story of Section 1) against a warm tower cache.
func BenchmarkE13Compactness(b *testing.B) {
	u := chromatic.NewUniverse(3)
	ra, err := affine.BuildRA(u, adversary.TResilient(3, 1).Alpha, affine.DefaultVariant)
	if err != nil {
		b.Fatal(err)
	}
	opts := solver.Options{Cache: chromatic.NewTowerCache()}
	if _, err := solver.SolveAffineWith(tasks.KSetConsensus(3, 2), ra, 2, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.SolveAffineWith(tasks.KSetConsensus(3, 2), ra, 2, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Solvable || res.Rounds != 1 {
			b.Fatalf("unexpected result %+v", res)
		}
	}
}

// BenchmarkE14Lemma3 measures the distribution-lemma verification
// (Lemma 3 + Corollary 4).
func BenchmarkE14Lemma3(b *testing.B) {
	a := mustFig5b(b)
	for i := 0; i < b.N; i++ {
		affine.ForEachChr1Simplex(procs.FullSet(3), func(s affine.Chr1Simplex) bool {
			for l := 1; l <= 3; l++ {
				if ok, _ := affine.CheckLemma3(a.Alpha, s, l); !ok {
					b.Fatal("Lemma 3 violated")
				}
				if !affine.CheckCorollary4(a.Alpha, s, l) {
					b.Fatal("Corollary 4 violated")
				}
			}
			return true
		})
	}
}

// BenchmarkE16Setcon measures agreement-function computation: setcon
// with memoization, csize, and the fairness decision.
func BenchmarkE16Setcon(b *testing.B) {
	b.Run("setcon/t-res/n=6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := adversary.TResilient(6, 2)
			if a.Setcon() != 3 {
				b.Fatal("setcon wrong")
			}
		}
	})
	b.Run("csize/t-res/n=6", func(b *testing.B) {
		a := adversary.TResilient(6, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hitting.Size(a.LiveSets()) != 3 {
				b.Fatal("csize wrong")
			}
		}
	})
	b.Run("fairness/fig5b", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !mustFig5b(b).IsFair() {
				b.Fatal("fig5b must be fair")
			}
		}
	})
}

// BenchmarkAblationDef9 compares the two guard readings of Definition 9
// (affine.DefaultVariant; TestIntersectionVariantDiffers pins why the
// union reading is the default).
func BenchmarkAblationDef9(b *testing.B) {
	a := adversary.TResilient(3, 1)
	for _, v := range []affine.Def9Variant{affine.VariantIntersection, affine.VariantUnion} {
		name := "intersection"
		if v == affine.VariantUnion {
			name = "union"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := chromatic.NewUniverse(3)
				if _, err := affine.BuildRA(u, a.Alpha, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubstrates measures the shared-memory substrate: immediate
// snapshot objects and the cooperative scheduler.
func BenchmarkSubstrates(b *testing.B) {
	b.Run("immediate-snapshot/n=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			is := memory.NewImmediateSnapshot[procs.ID](4)
			_, err := sched.Run(sched.Config{
				N: 4, Participants: procs.FullSet(4), Seed: int64(i),
			}, func(ctx *sched.Context) error {
				is.WriteSnapshot(ctx, ctx.ID(), ctx.ID())
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("figure-svg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(render.Chr1SVG(3)) == 0 {
				b.Fatal("empty svg")
			}
		}
	})
}

// BenchmarkSection6Simulation measures the §6 α-adaptive set-consensus
// simulation throughput.
func BenchmarkSection6Simulation(b *testing.B) {
	a := mustFig5b(b)
	u := chromatic.NewUniverse(3)
	ra, err := affine.BuildRAForAdversary(u, a, affine.DefaultVariant)
	if err != nil {
		b.Fatal(err)
	}
	sim := core.NewSetConsensusSim(ra, a.Alpha)
	rng := rand.New(rand.NewSource(1))
	proposals := map[procs.ID]string{0: "x", 1: "y", 2: "z"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(proposals, rng)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Validate(proposals); err != nil {
			b.Fatal(err)
		}
	}
}

func mustFig5b(b *testing.B) *adversary.Adversary {
	b.Helper()
	a, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		b.Fatal(err)
	}
	return a
}
