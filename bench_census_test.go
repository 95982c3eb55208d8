package fact

// Benchmarks for the sharded census engine and the parallel witness
// verifier: throughput scaling with the worker count over the n=3
// Figure 2 domain (classification), solve sweeps over the n=2 domain
// and an n=4 orbit window, plus the witness check on solved n=3 and
// n=4 instances.

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/census"
	"repro/internal/chromatic"
	"repro/internal/solver"
	"repro/internal/tasks"
)

// BenchmarkCensusClassify sweeps all 128 adversaries at n=3, where the
// engine's overhead dominates, and the first 4096 indices at n=5, where
// classifying each adversary does (the ingest path).
func BenchmarkCensusClassify(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=3/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := census.Run(3, census.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Summary.Fair != 44 {
					b.Fatalf("fair = %d, want 44", rep.Summary.Fair)
				}
			}
		})
	}
	const window = 4096
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=5/window=%d/workers=%d", window, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := census.SweepRange(5, census.Options{Workers: workers}, census.Discard{}, 0, window)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Summary.Total != window {
					b.Fatalf("total = %d, want %d", rep.Summary.Total, window)
				}
			}
		})
	}
}

// BenchmarkCensusSolve runs the full solve sweep (R_A construction,
// solvability decision and witness verification per fair adversary)
// over the n=2 domain, with a fresh tower cache per iteration so the
// engine's own sharing is what is measured. The n=4 case sweeps the
// orbit representatives of raw indices [0, 768) deciding 2-set
// consensus, the window of pipebench's sweep-solve: six solve jobs
// build R_A and its membership tables on every ground, extend the
// tower, search and check the witness inside the timer, with a fresh
// tower cache and universe per op.
func BenchmarkCensusSolve(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("n=2/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := census.Run(2, census.Options{
					Workers:         workers,
					Task:            "kset:k=1",
					VerifyWitnesses: true,
					Cache:           chromatic.NewTowerCache(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Summary.Solved == 0 {
					b.Fatal("solve sweep decided nothing")
				}
			}
		})
	}
	b.Run("n=4/orbits/window=768/workers=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := census.SweepRange(4, census.Options{
				Workers:         2,
				Orbits:          true,
				Task:            "kset:k=2",
				VerifyWitnesses: true,
				Cache:           chromatic.NewTowerCache(),
				Universe:        chromatic.NewUniverse(4),
			}, census.Discard{}, 0, 768)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Summary.Solved == 0 {
				b.Fatal("solve sweep decided nothing")
			}
		}
	})
}

// BenchmarkVerifyWitness measures the witness check on 2-set consensus
// over R_{1-res}: serial against parallel at n=3, and serial at n=4,
// the check a census solve job runs on every solvable entry. Each case
// reuses one cached tower, so only the check itself is measured.
func BenchmarkVerifyWitness(b *testing.B) {
	for _, c := range []struct {
		n       int
		workers []int
	}{
		{3, []int{1, 4, 8}},
		{4, []int{1}},
	} {
		u := chromatic.NewUniverse(c.n)
		ra, err := affine.BuildRAForAdversary(u, adversary.TResilient(c.n, 1), affine.DefaultVariant)
		if err != nil {
			b.Fatal(err)
		}
		task := tasks.KSetConsensus(c.n, 2)
		cache := chromatic.NewTowerCache()
		res, err := solver.SolveAffineWith(task, ra, 1, solver.Options{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Solvable {
			b.Fatal("instance should be solvable")
		}
		for _, workers := range c.workers {
			b.Run(fmt.Sprintf("n=%d/workers=%d", c.n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					err := solver.VerifyWitnessTables(task, ra, res.Rounds, res.Map, solver.Options{
						Workers:  workers,
						Cache:    cache,
						CacheKey: ra.Signature(),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCensusStream compares the streaming engine against the
// collecting one over the n=3 domain — the tentpole claim is that
// bounded-memory streaming costs nothing on throughput — plus the
// orbit-reduced sweep, which examines 40 of the 128 adversaries for
// the same totals.
func BenchmarkCensusStream(b *testing.B) {
	check := func(b *testing.B, sum census.Summary) {
		b.Helper()
		if sum.Fair != 44 || sum.Total != 128 {
			b.Fatalf("summary (total %d, fair %d), want (128, 44)", sum.Total, sum.Fair)
		}
	}
	b.Run("collect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := census.Run(3, census.Options{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			check(b, rep.Summary)
		}
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := census.Stream(3, census.Options{Workers: 4}, nil)
			if err != nil {
				b.Fatal(err)
			}
			check(b, rep.Summary)
		}
	})
	b.Run("stream-orbits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := census.Stream(3, census.Options{Workers: 4, Orbits: true}, nil)
			if err != nil {
				b.Fatal(err)
			}
			check(b, rep.Summary)
			if rep.Summary.Orbits != 40 {
				b.Fatalf("orbits = %d, want 40", rep.Summary.Orbits)
			}
		}
	})
}

// BenchmarkOrbitEnumerate prices canonical-representative enumeration:
// the stabilizer-aware generator (lex-leader pruning DFS, cost
// output-sensitive in the number of orbits) against the filter-based
// reference scan that visits every raw index. n=4 covers the full
// domain; at n=5 both sweep the same mid-domain raw window of 2^18
// indices — the regime where the filter pays n!·(bits/8) table reads
// per skipped index while the generator jumps straight between the
// canonical representatives.
func BenchmarkOrbitEnumerate(b *testing.B) {
	o4 := adversary.NewOrbits(4)
	o5 := adversary.NewOrbits(5)
	const n5lo, n5hi = uint64(1)<<30 + 12345, uint64(1)<<30 + 12345 + 1<<18
	count := func(b *testing.B, want uint64, enumerate func(f func(idx, size uint64) bool)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			var reps uint64
			enumerate(func(idx, size uint64) bool {
				reps++
				return true
			})
			if reps != want {
				b.Fatalf("enumerated %d representatives, want %d", reps, want)
			}
		}
	}
	// The n=4 domain holds 1992 orbits; the n=5 window was counted once
	// by both paths (they are pinned equal by the adversary tests).
	var n5want uint64
	o5.ForEachCanonicalFrom(n5lo, func(idx, size uint64) bool {
		if idx >= n5hi {
			return false
		}
		n5want++
		return true
	})
	b.Run("generator/n=4", func(b *testing.B) {
		count(b, 1992, func(f func(idx, size uint64) bool) {
			o4.ForEachCanonicalFrom(0, f)
		})
	})
	b.Run("filter/n=4", func(b *testing.B) {
		count(b, 1992, func(f func(idx, size uint64) bool) {
			o4.ForEachRepresentative(f)
		})
	})
	b.Run("generator/n=5-window", func(b *testing.B) {
		count(b, n5want, func(f func(idx, size uint64) bool) {
			o5.ForEachCanonicalFrom(n5lo, func(idx, size uint64) bool {
				if idx >= n5hi {
					return false
				}
				return f(idx, size)
			})
		})
	})
	b.Run("filter/n=5-window", func(b *testing.B) {
		if testing.Short() {
			b.Skip("full-scan reference window is seconds per op; run without -short")
		}
		count(b, n5want, func(f func(idx, size uint64) bool) {
			for idx := n5lo; idx < n5hi; idx++ {
				canon, size := o5.Canonical(idx)
				if canon != idx {
					continue
				}
				if !f(idx, size) {
					return
				}
			}
		})
	})
}

// BenchmarkSolveTowerEviction measures the tower cache under a byte
// budget: three distinct R_A towers cycled through a budget that holds
// roughly one, so every acquire rebuilds (the eviction worst case),
// against the unbounded cache where every acquire after the first is a
// hit. The gap prices LRU eviction for budget tuning on long campaigns.
func BenchmarkSolveTowerEviction(b *testing.B) {
	u := chromatic.NewUniverse(3)
	advs := []*adversary.Adversary{
		adversary.TResilient(3, 1),
		adversary.KObstructionFree(3, 1),
		adversary.KObstructionFree(3, 2),
	}
	var ras []*affine.Task
	var budget int64
	for _, a := range advs {
		ra, err := affine.BuildRAForAdversary(u, a, affine.DefaultVariant)
		if err != nil {
			b.Fatal(err)
		}
		ras = append(ras, ra)
	}
	task := tasks.KSetConsensus(3, 2)
	// Budget: what one extended tower occupies (measured, not guessed).
	{
		probe := chromatic.NewTowerCache()
		if _, err := solver.SolveAffineWith(task, ras[0], 1, solver.Options{Cache: probe}); err != nil {
			b.Fatal(err)
		}
		budget = probe.Snapshot().Bytes + 1
	}
	run := func(b *testing.B, cache *chromatic.TowerCache) {
		for i := 0; i < b.N; i++ {
			ra := ras[i%len(ras)]
			res, err := solver.SolveAffineWith(task, ra, 1, solver.Options{Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Solvable {
				b.Fatal("2-set consensus should be solvable here")
			}
		}
	}
	b.Run("budgeted-evicting", func(b *testing.B) {
		run(b, chromatic.NewTowerCacheWithBudget(budget))
	})
	b.Run("unbounded", func(b *testing.B) {
		run(b, chromatic.NewTowerCache())
	})
}
