package fact

// Benchmarks for the concurrent solvability engine: serial vs parallel
// construction of R_A(I) (one level of the iterated model) on the
// adversaries the acceptance experiments use, plus the memoized solve
// path. Each case first asserts that the parallel output is
// byte-identical to the serial one.

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/tasks"
)

// BenchmarkParallelApplyAffine compares serial and all-core construction
// of R_A(I) over the standard input complex for n = 3..5.
func BenchmarkParallelApplyAffine(b *testing.B) {
	cases := []struct {
		name string
		n    int
		adv  *adversary.Adversary
		slow bool
	}{
		{"1-OF/n=3", 3, adversary.KObstructionFree(3, 1), false},
		{"2-OF/n=4", 4, adversary.KObstructionFree(4, 2), false},
		{"1-res/n=4", 4, adversary.TResilient(4, 1), false},
		{"1-res/n=5", 5, adversary.TResilient(5, 1), true},
	}
	for _, c := range cases {
		if c.slow && testing.Short() {
			continue
		}
		u := chromatic.NewUniverse(c.n)
		ra, err := affine.BuildRAForAdversary(u, c.adv, affine.DefaultVariant)
		if err != nil {
			b.Fatal(err)
		}
		input := tasks.StandardInput(c.n)
		// On a single-CPU host still exercise the concurrent engine.
		workers := par.Workers(0)
		if workers < 2 {
			workers = 2
		}
		// The task is consumed directly as a chromatic.MemberTables
		// provider — the engine's primary (rank-indexed) entry point;
		// the callback path is pinned equivalent by tests elsewhere.
		// Byte-identical outputs across worker counts (acceptance check).
		serial, err := chromatic.ApplyAffineTables(input, ra, 1)
		if err != nil {
			b.Fatal(err)
		}
		parallel, err := chromatic.ApplyAffineTables(input, ra, workers)
		if err != nil {
			b.Fatal(err)
		}
		if serial.Complex.Hash() != parallel.Complex.Hash() {
			b.Fatalf("%s: parallel output differs from serial", c.name)
		}
		b.Run(c.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chromatic.ApplyAffineTables(input, ra, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chromatic.ApplyAffineTables(input, ra, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveMemoized measures the FACT decision with and without the
// iteration cache: the cached path reuses R_A^ℓ(I) across calls.
func BenchmarkSolveMemoized(b *testing.B) {
	u := chromatic.NewUniverse(3)
	ra, err := affine.BuildRAForAdversary(u, adversary.TResilient(3, 1), affine.DefaultVariant)
	if err != nil {
		b.Fatal(err)
	}
	task := tasks.KSetConsensus(3, 2)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := solver.SolveAffineWith(task, ra, 1, solver.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Solvable {
				b.Fatal("want solvable")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := chromatic.NewTowerCache()
		opts := solver.Options{Cache: cache}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := solver.SolveAffineWith(task, ra, 1, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Solvable {
				b.Fatal("want solvable")
			}
		}
	})
}

// BenchmarkParallelSolve compares serial and parallel map search on a
// fresh (uncached) decision per iteration.
func BenchmarkParallelSolve(b *testing.B) {
	u := chromatic.NewUniverse(3)
	ra, err := affine.BuildRAForAdversary(u, adversary.KObstructionFree(3, 1), affine.DefaultVariant)
	if err != nil {
		b.Fatal(err)
	}
	task := tasks.KSetConsensus(3, 1)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = fmt.Sprintf("parallel-%d", par.Workers(0))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := solver.SolveAffineWith(task, ra, 1, solver.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Solvable {
					b.Fatal("want solvable")
				}
			}
		})
	}
}

// BenchmarkSolveN4Level measures one serial n=4 FACT decision on a
// freshly built R_A(I) level: the level's facet list, computed on first
// use, and the map search. Building the level is excluded from timing,
// so the number tracks the facet scan and the search alone.
func BenchmarkSolveN4Level(b *testing.B) {
	u := chromatic.NewUniverse(4)
	ra, err := affine.BuildRAForAdversary(u, adversary.TResilient(4, 1), affine.DefaultVariant)
	if err != nil {
		b.Fatal(err)
	}
	task := tasks.KSetConsensus(4, 2)
	sig := ra.Signature()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := chromatic.NewTowerCache()
		ct := cache.Acquire(sig, task.Input, 1)
		if err := ct.EnsureHeightTables(ra, 1); err != nil {
			b.Fatal(err)
		}
		ct.Release()
		b.StartTimer()
		res, err := solver.SolveAffineWith(task, ra, 1, solver.Options{Workers: 1, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Solvable {
			b.Fatal("want solvable")
		}
	}
}
