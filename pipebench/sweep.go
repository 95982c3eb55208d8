package main

// sweep-solve: census.SweepRange over a window of the n=4 domain in
// orbit mode, deciding kset:k=2 for every fair adversary and checking
// every witness. This is the FACT decision path (R_A → Chr² iteration →
// carried-map search → witness check) at the smallest n where it takes
// real time.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/census"
	"repro/internal/chromatic"
	"repro/internal/solver"
	"repro/internal/tasks"
)

const (
	sweepN    = 4
	sweepTask = "kset:k=2"
	sweepK    = 2

	// sweepWindow is the raw index window [0, sweepWindow): 190 canonical
	// representatives and 6 solve jobs, 2 of which reuse another job's
	// tower. One census block holds most of the solve work, so the split
	// of work between the two workers is the same in every run; wider
	// windows spread the jobs over blocks whose balance between the
	// workers, and so the wall time, changes from run to run. It stops
	// far before index 5323, whose 2-set search runs for minutes to the
	// node limit.
	sweepWindow = 768

	// minSetups is the least number of set-up timings a run's setup_s
	// median is taken over.
	minSetups = 9
)

// sweepRun is one timed census.SweepRange over the window.
type sweepRun struct {
	setup, wall time.Duration
	shard       string
}

// sweepSetup creates what one sweep is handed: a fresh tower cache and
// universe, and the gzip JSONL sink.
func sweepSetup(shard string) (*chromatic.TowerCache, *chromatic.Universe, *census.JSONLSink, error) {
	cache := chromatic.NewTowerCache()
	universe := chromatic.NewUniverse(sweepN)
	sink, err := census.NewJSONLSinkCompressed(shard)
	return cache, universe, sink, err
}

// sweepOnce sweeps the window with the given worker count into a fresh
// shard under dir.
func sweepOnce(dir string, workers int) (sweepRun, error) {
	out := sweepRun{shard: filepath.Join(dir, fmt.Sprintf("sweep-w%d.jsonl.gz", workers))}
	if err := os.RemoveAll(out.shard); err != nil {
		return out, err
	}
	t0 := time.Now()
	cache, universe, sink, err := sweepSetup(out.shard)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)
	t1 := time.Now()
	_, err = census.SweepRange(sweepN, census.Options{
		Workers:         workers,
		Orbits:          true,
		Task:            sweepTask,
		VerifyWitnesses: true,
		Cache:           cache,
		Universe:        universe,
	}, sink, 0, sweepWindow)
	if err != nil {
		sink.Close()
		return out, fmt.Errorf("sweep: %w", err)
	}
	if err := sink.Close(); err != nil {
		return out, fmt.Errorf("sweep: close sink: %w", err)
	}
	out.wall = time.Since(t1)
	return out, nil
}

// sweepSetupOnly times one set-up without sweeping.
func sweepSetupOnly(dir string) (time.Duration, error) {
	shard := filepath.Join(dir, "setup.jsonl.gz")
	t0 := time.Now()
	_, _, sink, err := sweepSetup(shard)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if err := sink.Close(); err != nil {
		return 0, err
	}
	return d, os.Remove(shard)
}

// readShard decompresses a JSONL shard and returns its SHA-256 digest
// and entries.
func readShard(path string) (string, []census.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	sum := sha256.Sum256(raw)
	var entries []census.Entry
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var e census.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return "", nil, fmt.Errorf("%s: %w", path, err)
		}
		entries = append(entries, e)
	}
	return hex.EncodeToString(sum[:]), entries, nil
}

// checkSweep applies the FACT oracle to a sweep's shard: every fair
// entry with 1 <= setcon <= k is solvable with a verified witness (the
// sweep checks witnesses and fails on a rejected one), every fair entry
// with setcon > k is unsolvable, and none is undecided. It returns the
// shard's digest and its number of entries and solve jobs.
func checkSweep(r *run, shard string) (digest string, entries, jobs int, err error) {
	digest, es, err := readShard(shard)
	if err != nil {
		return "", 0, 0, err
	}
	for _, e := range es {
		if e.Solved {
			jobs++
		}
		if !e.Fair || e.Setcon < 1 {
			continue
		}
		solvable := e.Solvable != nil && *e.Solvable
		switch {
		case !e.Solved:
			r.checkf("sweep-solve: fair entry %d (setcon %d) was not decided", e.Index, e.Setcon)
		case e.Undecided:
			r.checkf("sweep-solve: entry %d (setcon %d) is undecided", e.Index, e.Setcon)
		case e.Setcon <= sweepK && (!solvable || e.Rounds < 1):
			r.checkf("sweep-solve: entry %d has setcon %d <= %d but no witness", e.Index, e.Setcon, sweepK)
		case e.Setcon > sweepK && solvable:
			r.checkf("sweep-solve: entry %d has setcon %d > %d but was found solvable", e.Index, e.Setcon, sweepK)
		}
	}
	if len(es) == 0 || jobs == 0 {
		r.checkf("sweep-solve: window emitted %d entries and %d solve jobs", len(es), jobs)
	}
	return digest, len(es), jobs, nil
}

func sweepE2E(r *run) error {
	dir, err := r.scratch("sweep")
	if err != nil {
		return err
	}
	var walls, setups []float64
	var digest string
	var entries, jobs int
	err = r.repeat(2, 100, func(rep int) error {
		r.attempted++
		out, err := sweepOnce(dir, 2)
		if err != nil {
			r.failed++
			return err
		}
		d, n, j, err := checkSweep(r, out.shard)
		if err != nil {
			return err
		}
		if rep == 0 {
			digest, entries, jobs = d, n, j
		} else if d != digest {
			r.checkf("sweep-solve: repetition %d wrote digest %s, repetition 0 wrote %s", rep, d, digest)
		}
		walls = append(walls, seconds(out.wall))
		setups = append(setups, seconds(out.setup))
		r.reps = append(r.reps, map[string]any{"wall_s": seconds(out.wall), "setup_s": seconds(out.setup)})
		return nil
	})
	if err != nil {
		return err
	}

	// Outside the timed phase: a 1-worker sweep of the same window must
	// write the same bytes.
	ref, err := sweepOnce(dir, 1)
	if err != nil {
		return err
	}
	refDigest, _, _, err := checkSweep(r, ref.shard)
	if err != nil {
		return err
	}
	if refDigest != digest {
		r.checkf("sweep-solve: 2-worker digest %s differs from the 1-worker digest %s", digest, refDigest)
	}
	for len(setups) < minSetups {
		d, err := sweepSetupOnly(dir)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(d))
	}

	r.metrics["wall_s"] = median(walls)
	r.metrics["setup_s"] = median(setups)
	r.inputs["n"] = sweepN
	r.inputs["task"] = sweepTask
	r.inputs["window"] = []uint64{0, sweepWindow}
	r.inputs["workers"] = 2
	r.inputs["representatives"] = entries
	r.inputs["solve_jobs"] = jobs
	r.extra["digest"] = digest
	r.extra["setup_samples_s"] = setups
	r.extra["wall_1worker_s"] = seconds(ref.wall)
	return nil
}

// classify computes the classification fields of a census entry through
// the adversary layer's public calls, as census examination does.
func classify(a *adversary.Adversary, idx uint64) census.Entry {
	live := a.LiveSets()
	masks := make([]uint32, len(live))
	for i, s := range live {
		masks[i] = uint32(s)
	}
	return census.Entry{
		Index:          idx,
		Adversary:      a.String(),
		LiveSetMasks:   masks,
		SupersetClosed: a.IsSupersetClosed(),
		Symmetric:      a.IsSymmetric(),
		Fair:           a.IsFair(),
		Setcon:         a.Setcon(),
		CSize:          a.CSize(),
	}
}

// sweepReplay counts what a serial replay of the window did.
type sweepReplay struct {
	acquires, hits, undecided, vertices int
}

// replaySweep replays the window serially through the layer calls a
// census solve job makes, one span per call: canonical enumeration,
// classification, task build, R_A, tower acquire and extension, facets,
// search and witness check. Facets are computed before the search so
// their cost is not charged to it.
func replaySweep(tr *tracer) (sweepReplay, error) {
	var st sweepReplay
	cache := chromatic.NewTowerCache()
	universe := chromatic.NewUniverse(sweepN)
	spec, err := tasks.ParseSpec(sweepTask)
	if err != nil {
		return st, err
	}

	id := tr.begin("adversary.canonical", -1, 1)
	orbits := adversary.NewOrbits(sweepN)
	var reps []uint64
	orbits.ForEachCanonicalFrom(0, func(idx, _ uint64) bool {
		if idx >= sweepWindow {
			return false
		}
		reps = append(reps, idx)
		return true
	})
	tr.end(id)

	id = tr.begin("adversary.classify", -1, len(reps))
	domain := adversary.EnumerationDomain(sweepN)
	var jobs []*adversary.Adversary
	for _, idx := range reps {
		a := adversary.AdversaryAtIn(sweepN, domain, idx)
		if e := classify(a, idx); e.Fair && e.Setcon >= 1 {
			jobs = append(jobs, a)
		}
	}
	tr.end(id)

	for _, a := range jobs {
		id := tr.begin("tasks.build", -1, 1)
		task, err := spec.Build(sweepN)
		tr.end(id)
		if err != nil {
			return st, err
		}
		id = tr.begin("affine.build_ra", -1, 1)
		ra, err := affine.BuildRAForAdversary(universe, a, affine.DefaultVariant)
		var sig string
		if err == nil {
			sig = ra.Signature()
		}
		tr.end(id)
		if err != nil {
			return st, err
		}

		_, missesBefore := cache.Stats()
		id = tr.begin("chromatic.tower_acquire", -1, 1)
		ct := cache.Acquire(sig, task.Input, 1)
		tr.end(id)
		_, missesAfter := cache.Stats()
		st.acquires++
		if missesAfter == missesBefore {
			st.hits++
		}
		id = tr.begin("chromatic.tower_extend", -1, 1)
		err = ct.EnsureHeightTables(ra, 1)
		tr.end(id)
		if err != nil {
			ct.Release()
			return st, err
		}
		id = tr.begin("sc.facets", -1, 1)
		ct.Tower().LevelComplex(1).Facets()
		tr.end(id)
		ct.Release()

		id = tr.begin("solver.search", -1, 1)
		res, err := solver.SolveAffineWith(task, ra, 1, solver.Options{
			Workers: 1, Cache: cache, CacheKey: sig, TaskLabel: spec.String(),
		})
		tr.end(id)
		if errors.Is(err, solver.ErrSearchLimit) {
			st.undecided++
			continue
		}
		if err != nil {
			return st, err
		}
		if res.Solvable {
			id = tr.begin("solver.verify", -1, 1)
			err = solver.VerifyWitnessTables(task, ra, res.Rounds, res.Map,
				solver.Options{Workers: 1, Cache: cache, CacheKey: sig})
			tr.end(id)
			if err != nil {
				return st, fmt.Errorf("witness rejected: %w", err)
			}
		}
	}
	st.vertices = cache.Snapshot().Vertices
	return st, nil
}

func sweepTraced(r *run) error {
	dir, err := r.scratch("sweep")
	if err != nil {
		return err
	}
	two, err := sweepOnce(dir, 2)
	if err != nil {
		return err
	}
	one, err := sweepOnce(dir, 1)
	if err != nil {
		return err
	}
	r.attempted += 2
	d2, _, jobs, err := checkSweep(r, two.shard)
	if err != nil {
		return err
	}
	d1, _, _, err := checkSweep(r, one.shard)
	if err != nil {
		return err
	}
	if d1 != d2 {
		r.checkf("sweep-solve: 2-worker digest %s differs from the 1-worker digest %s", d2, d1)
	}

	on := newTracer(true, true)
	var st sweepReplay
	overhead, err := alternate(on, func(tr *tracer, i int) (time.Duration, error) {
		var out sweepReplay
		wall, err := tr.lane(func() error { var err error; out, err = replaySweep(tr); return err })
		if i == 1 {
			st = out
		}
		return wall, err
	})
	if err != nil {
		return err
	}
	r.attempted += 4
	spans, lanes := on.recorded()
	ops := aggregate(spans)
	putOps(r, ops, "sc.facets", "calls", "busy_s", "alloc_mb")
	putOps(r, ops, "solver.search", "calls", "busy_s", "alloc_mb")
	putOps(r, ops, "solver.verify", "calls", "busy_s")
	putOps(r, ops, "chromatic.tower_extend", "busy_s", "alloc_mb")
	putOps(r, ops, "affine.build_ra", "calls", "busy_s", "alloc_mb")
	putOps(r, ops, "tasks.build", "busy_s")
	putOps(r, ops, "adversary.canonical", "calls", "busy_s")
	putOps(r, ops, "adversary.classify", "calls", "busy_s")
	r.metrics["solver.search.undecided"] = float64(st.undecided)
	r.metrics["chromatic.tower.acquires"] = float64(st.acquires)
	r.metrics["chromatic.tower.hit_ratio"] = ratio(st.hits, st.acquires)
	r.metrics["chromatic.tower.vertices"] = float64(st.vertices)
	r.metrics["census.parallel_eff"] = seconds(one.wall) / (2 * seconds(two.wall))
	r.metrics["trace.unattributed_frac"] = unattributed(spans, lanes)
	r.metrics["trace.overhead_frac"] = overhead

	r.inputs["window"] = []uint64{0, sweepWindow}
	r.inputs["solve_jobs"] = jobs
	r.extra["wall_2worker_s"] = seconds(two.wall)
	r.extra["wall_1worker_s"] = seconds(one.wall)
	return nil
}

// putOps copies the named statistics of one span name into the run's
// metrics as "<name>.<stat>", and reports the sample count and tail
// percentile behind any percentile. A name with no spans reads as zero.
func putOps(r *run, ops map[string]*opStats, name string, stats ...string) {
	st := ops[name]
	if st == nil {
		st = &opStats{}
	}
	percentiles := false
	for _, s := range stats {
		var v float64
		switch s {
		case "calls":
			v = float64(st.calls)
		case "busy_s":
			v = st.busy.Seconds()
		case "alloc_mb":
			v = float64(st.alloc) / (1 << 20)
		case "p50_ms":
			v, percentiles = 1e3*summarize(st.durs).P50, true
		case "p99_ms":
			v, percentiles = 1e3*summarize(st.durs).Tail, true
		case "p99_us":
			v, percentiles = 1e6*summarize(st.durs).Tail, true
		default:
			panic("pipebench: unknown span statistic " + s)
		}
		r.metrics[name+"."+s] = v
	}
	if percentiles {
		l := summarize(st.durs)
		r.extra[name+".samples"] = map[string]any{"n": l.N, "tail_percentile": l.TailP}
		fmt.Fprintf(r.log, "%s: %d spans, tail at p%g\n", name, l.N, l.TailP)
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
