package census

// The per-index examination core of the census, factored out of the
// streaming engine so other subsystems — notably the store query layer
// (`factool serve`) — can classify or solve a single adversary on
// demand through the exact same code path the whole-domain sweeps use.

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/obs"
	"repro/internal/procs"
	"repro/internal/solver"
	"repro/internal/tasks"
)

// runEnv is the state shared by all workers of one census run (and by
// all queries of one Examiner).
type runEnv struct {
	n         int
	all       []procs.Set
	universe  *chromatic.Universe
	cache     *chromatic.TowerCache
	task      *tasks.Task // the task solve jobs decide; nil classifies only
	spec      tasks.Spec
	taskField string // Entry.Task value: the spec string, "" for kset
	taskLabel string // metric label: the spec string when solving, "classify" otherwise
	maxRounds int
	verify    bool
	tracer    *obs.Tracer
}

// newRunEnv normalizes the examination-shaping options into the shared
// environment: the task a non-empty Options.Task names, built once for
// every solve job (so a spec that cannot be built fails the run up
// front), its spec (kset:k=1 for classify runs, which only fingerprint
// it), defaulted rounds, the Universe R_A is built over (opts.Universe,
// or a private one), and a TowerCache (opts.Cache, or a private
// unbounded one).
func newRunEnv(n int, opts Options) (*runEnv, error) {
	var task *tasks.Task
	spec := tasks.KSetSpec(1)
	taskLabel := classifyTaskLabel
	if opts.Task != "" {
		var err error
		if spec, err = tasks.ParseSpec(opts.Task); err != nil {
			return nil, fmt.Errorf("census: %w", err)
		}
		if task, err = spec.Build(n); err != nil {
			return nil, fmt.Errorf("census: %w", err)
		}
		taskLabel = spec.String()
	}
	taskField := ""
	if !spec.IsKSet() {
		taskField = spec.String()
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1
	}
	cache := opts.Cache
	if cache == nil {
		cache = chromatic.NewTowerCache()
	}
	universe := opts.Universe
	if universe == nil {
		universe = chromatic.NewUniverse(n)
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer
	}
	return &runEnv{
		n:         n,
		all:       adversary.EnumerationDomain(n),
		universe:  universe,
		cache:     cache,
		task:      task,
		spec:      spec,
		taskField: taskField,
		taskLabel: taskLabel,
		maxRounds: maxRounds,
		verify:    opts.VerifyWitnesses,
		tracer:    tracer,
	}, nil
}

// examine classifies (and optionally solves) the adversary at one
// enumeration index, recording a census.solve span under parent when a
// solve job runs. Pure per index: calls share only the
// concurrency-safe Universe and TowerCache, and the task, which solve
// jobs only read (its Δ closures are pure), so concurrent calls are
// safe.
func (env *runEnv) examine(idx uint64, parent obs.SpanID) (Entry, error) {
	censusIndicesExamined.With(env.taskLabel).Add(1)
	a := adversary.AdversaryAtIn(env.n, env.all, idx)
	live := a.LiveSets()
	masks := make([]uint32, len(live))
	for i, s := range live {
		masks[i] = uint32(s)
	}
	e := Entry{
		Index:          idx,
		Adversary:      a.String(),
		LiveSetMasks:   masks,
		SupersetClosed: a.IsSupersetClosed(),
		Symmetric:      a.IsSymmetric(),
		Fair:           a.IsFair(),
		Setcon:         a.Setcon(),
		CSize:          a.CSize(),
	}
	// Non-kset sweeps stamp every entry with the spec, so stores built
	// from them know which task their solve verdicts answer. The kset
	// path leaves the field empty: its JSONL predates task specs and
	// must stay byte-identical.
	if env.task != nil {
		e.Task = env.taskField
	}
	if env.task == nil || !e.Fair || e.Setcon < 1 {
		return e, nil
	}
	// Solve jobs run serially inside each worker (Workers: 1): the
	// census parallelism is across adversaries, not within one solve.
	solveSpan := env.tracer.Start("census.solve", parent,
		"index", strconv.FormatUint(idx, 10))
	defer solveSpan.End()
	ra, err := affine.BuildRAForAdversary(env.universe, a, affine.DefaultVariant)
	if err != nil {
		return e, fmt.Errorf("census: R_A for %v: %w", a, err)
	}
	e.RAFacets = ra.NumFacets()
	res, err := solver.SolveAffineWith(env.task, ra, env.maxRounds, solver.Options{
		Workers:     1,
		Cache:       env.cache,
		TaskLabel:   env.taskLabel,
		TraceParent: solveSpan,
	})
	e.Solved = true
	switch {
	case errors.Is(err, solver.ErrSearchLimit):
		e.Undecided = true
		solveSpan.SetAttr("outcome", "undecided")
		return e, nil
	case err != nil:
		return e, fmt.Errorf("census: solve %v: %w", a, err)
	}
	solvable := res.Solvable
	e.Solvable = &solvable
	solveSpan.SetAttr("outcome", map[bool]string{true: "solvable", false: "unsolvable"}[solvable])
	if solvable {
		e.Rounds = res.Rounds
		if env.verify {
			err := solver.VerifyWitnessTables(env.task, ra, res.Rounds, res.Map,
				solver.Options{Workers: 1, Cache: env.cache, CacheKey: ra.Signature()})
			if err != nil {
				return e, fmt.Errorf("census: witness for %v rejected: %w", a, err)
			}
		}
	}
	return e, nil
}

// Examiner answers single-index census queries — the live-computation
// fallback of the store query layer. It shares the census examination
// code path exactly (same Entry for the same index and options as a
// whole-domain sweep) and is safe for concurrent use: the Universe and
// TowerCache it holds are concurrency-safe, queries only read its one
// built task, and every query builds its own adversary.
type Examiner struct {
	env *runEnv
}

// NewExaminer builds an examiner for n-process queries. Only the
// examination-shaping options are read: Task (empty classifies only),
// MaxRounds, VerifyWitnesses, Cache and Universe.
func NewExaminer(n int, opts Options) (*Examiner, error) {
	if n < 1 || n > 6 {
		return nil, fmt.Errorf("census: n must be in [1,6], got %d", n)
	}
	env, err := newRunEnv(n, opts)
	if err != nil {
		return nil, err
	}
	return &Examiner{env: env}, nil
}

// N returns the system size queries are answered for.
func (x *Examiner) N() int { return x.env.n }

// Examine classifies (and, when the examiner solves, decides) the
// adversary at the given enumeration index.
func (x *Examiner) Examine(idx uint64) (Entry, error) {
	if idx >= adversary.CensusSize(x.env.n) {
		return Entry{}, fmt.Errorf("census: index %d beyond the n=%d domain", idx, x.env.n)
	}
	return x.env.examine(idx, 0)
}

// Clone returns a deep copy of the entry: retained entries must not
// alias the masks slice or the solvability pointer of the original.
func (e *Entry) Clone() *Entry {
	cp := *e
	if e.LiveSetMasks != nil {
		// make+copy, not append: an empty adversary's masks are an
		// empty non-nil slice, which must stay [] (not null) in JSON.
		cp.LiveSetMasks = make([]uint32, len(e.LiveSetMasks))
		copy(cp.LiveSetMasks, e.LiveSetMasks)
	}
	if e.Solvable != nil {
		v := *e.Solvable
		cp.Solvable = &v
	}
	return &cp
}
