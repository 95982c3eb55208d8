package solver

import (
	"errors"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
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

// TestVerifyWitnessMapChecks corrupts a valid witness in each way the
// vertex pass and the simplex sweep name: a missing vertex, a changed
// color, an image outside O, and simplex images that O lacks. Each
// error carries its sentinel and the same text at one and eight workers.
func TestVerifyWitnessMapChecks(t *testing.T) {
	ra := buildRA(t, adversary.TResilient(3, 1))
	task := tasks.KSetConsensus(3, 2)
	res, err := SolveAffineWith(task, ra, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("2-set consensus should be solvable 1-resiliently")
	}
	corrupt := func(f func(m sc.Map)) sc.Map {
		m := maps.Clone(res.Map)
		f(m)
		return m
	}
	// O's vertices with no simplex above them: every vertex check
	// passes, and the first edge's image is missing.
	edgeless := *task
	edgeless.Output = task.Output.Skeleton(0)
	v0, _ := task.Output.Vertex(res.Map[0])
	var otherColor sc.VertexID
	for _, o := range task.Output.VertexIDs() {
		if ov, _ := task.Output.Vertex(o); ov.Color != v0.Color {
			otherColor = o
			break
		}
	}
	for _, c := range []struct {
		name string
		task *tasks.Task
		m    sc.Map
		want error
		text string
	}{
		{"partial", task, corrupt(func(m sc.Map) { delete(m, 0) }), sc.ErrPartialMap, "vertex 0"},
		{"color", task, corrupt(func(m sc.Map) { m[0] = otherColor }), sc.ErrNotChromaticM, "vertex 0 color"},
		{"outside O", task, corrupt(func(m sc.Map) { m[0] = 1 << 20 }), sc.ErrNotSimplicial, "not in codomain"},
		{"image not in O", &edgeless, res.Map, sc.ErrNotSimplicial, "missing"},
	} {
		t.Run(c.name, func(t *testing.T) {
			serialErr := VerifyWitnessTables(c.task, ra, 1, c.m, Options{Workers: 1})
			parErr := VerifyWitnessTables(c.task, ra, 1, c.m, Options{Workers: 8})
			if !errors.Is(serialErr, c.want) || !errors.Is(parErr, c.want) {
				t.Fatalf("want %v at 1 and 8 workers, got %v and %v", c.want, serialErr, parErr)
			}
			if !strings.Contains(serialErr.Error(), c.text) {
				t.Errorf("error %q does not name %q", serialErr, c.text)
			}
			if serialErr.Error() != parErr.Error() {
				t.Fatalf("error text diverges:\n  serial:   %v\n  parallel: %v", serialErr, parErr)
			}
		})
	}
}

// TestVerifyWitnessRejectsBadInput: a negative round count and an
// invalid task are errors, not panics, and rounds 0 checks a map from
// I itself.
func TestVerifyWitnessRejectsBadInput(t *testing.T) {
	task := tasks.KSetConsensus(3, 3)
	if err := VerifyWitnessTables(task, chromatic.FullChr2Tables, -1, sc.Map{}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("rounds -1: want ErrBadInput, got %v", err)
	}
	bad := &tasks.Task{Name: "bad", N: 3}
	if err := VerifyWitnessTables(bad, chromatic.FullChr2Tables, 1, sc.Map{}, Options{}); !errors.Is(err, tasks.ErrBadTask) {
		t.Errorf("invalid task: want ErrBadTask, got %v", err)
	}
	// Every process decides its own input: outVertexID(3, p, p) = 4p.
	own := sc.Map{0: 0, 1: 4, 2: 8}
	if err := VerifyWitnessTables(task, chromatic.FullChr2Tables, 0, own, Options{}); err != nil {
		t.Errorf("rounds 0, 3-set consensus: %v", err)
	}
	// Three distinct decisions are no simplex of 2-set consensus's O.
	err := VerifyWitnessTables(tasks.KSetConsensus(3, 2), chromatic.FullChr2Tables, 0, own, Options{})
	if !errors.Is(err, sc.ErrNotSimplicial) {
		t.Errorf("rounds 0, 2-set consensus: want ErrNotSimplicial, got %v", err)
	}
}

// TestRootCarrierTable checks each level's root-carrier table of an n=3
// R_A tower against the union recomputed recursively from the levels'
// own carriers down to the input.
func TestRootCarrierTable(t *testing.T) {
	ra := buildRA(t, adversary.KObstructionFree(3, 1))
	task := tasks.Consensus(3)
	ct := chromatic.NewTowerCache().Acquire(ra.Signature(), task.Input, 0)
	defer ct.Release()
	if err := ct.EnsureHeightTables(ra, 2); err != nil {
		t.Fatal(err)
	}
	tower := ct.Tower()
	var rootOf func(level int, v sc.VertexID) sc.Simplex
	rootOf = func(level int, v sc.VertexID) sc.Simplex {
		if level == 0 {
			return sc.Simplex{v}
		}
		var out sc.Simplex
		for _, u := range tower.Levels[level-1].Carrier(v) {
			out = out.Union(rootOf(level-1, u))
		}
		return out
	}
	if roots := tower.RootCarriers(0); roots != nil {
		t.Fatalf("level 0 has a table: %v", roots)
	}
	for level := 1; level <= 2; level++ {
		roots := tower.RootCarriers(level)
		ids := tower.LevelComplex(level).VertexIDs()
		if len(roots) != len(ids) {
			t.Fatalf("level %d: table has %d entries for %d vertices", level, len(roots), len(ids))
		}
		for _, v := range ids {
			if want := rootOf(level, v); !roots[v].Equal(want) {
				t.Fatalf("level %d: root carrier of %d = %v, want %v", level, v, roots[v], want)
			}
		}
	}
}

// TestVerifyWitnessDuringExtension checks a level-1 witness over and
// over from several goroutines while the test goroutine extends the
// same cached tower to level 2 (run under -race): a published level's
// complex and tables must never be written again. The extension starts
// once every checker has finished one check, so checks are in flight
// when it begins.
func TestVerifyWitnessDuringExtension(t *testing.T) {
	ra := buildRA(t, adversary.KObstructionFree(3, 1))
	task := tasks.Consensus(3)
	cache := chromatic.NewTowerCache()
	res, err := SolveAffineWith(task, ra, 1, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("consensus should be solvable 1-obstruction-freely")
	}
	ct := cache.Acquire(ra.Signature(), task.Input, 1)
	defer ct.Release()
	const checkers = 4
	errs := make([]error, checkers)
	done := make(chan struct{})
	var warm, wg sync.WaitGroup
	warm.Add(checkers)
	for i := range checkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := Options{Workers: 1 + i%2, Cache: cache, CacheKey: ra.Signature()}
			errs[i] = VerifyWitnessTables(task, ra, 1, res.Map, opts)
			warm.Done()
			for errs[i] == nil {
				select {
				case <-done:
					return
				default:
				}
				errs[i] = VerifyWitnessTables(task, ra, 1, res.Map, opts)
			}
		}()
	}
	warm.Wait()
	extendErr := ct.EnsureHeightTables(ra, 2)
	close(done)
	wg.Wait()
	if extendErr != nil {
		t.Fatal(extendErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("checker %d: %v", i, err)
		}
	}
	if h := ct.Tower().Height(); h != 2 {
		t.Fatalf("height = %d, want 2", h)
	}
}
