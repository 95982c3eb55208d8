// Package solver decides affine-task solvability: given a task (I, O, Δ)
// and an affine task L ⊆ Chr² s, it searches for a chromatic simplicial
// map φ : L^ℓ(I) → O carried by Δ — the right-hand side of the FACT
// theorem (Theorem 16). Existence for some ℓ certifies solvability in
// the corresponding fair adversarial model; exhaustive failure up to a
// bound is the (finite) evidence used by the experiments for the
// impossibility direction.
//
// The engine is concurrent on both sides of the decision: the iterated
// subdivision L^ℓ(I) is built by the parallel chromatic engine (and
// memoized across queries via chromatic.TowerCache), and the map search
// partitions its backtracking frontier across workers with early cancel
// once a witness is found. Results are deterministic: on instances
// decided within the node budget, every worker count yields the same
// decision and the same witness map (near the budget, splitting the
// tree can decide instances the serial budget cannot — see
// Options.NodeLimit).
package solver

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sc"
	"repro/internal/tasks"
)

// Result reports a solvability decision.
type Result struct {
	Solvable bool
	Rounds   int    // iterations ℓ at which a map was found (when Solvable)
	Map      sc.Map // the witnessing vertex map (when Solvable)
	// Sizes of the explored subdivisions per round, for reporting.
	ComplexSizes []int
}

// Options tunes the engine. The zero value selects the defaults.
type Options struct {
	// Workers bounds the fan-out of both the subdivision construction
	// and the map search, resolved by par.Workers; 1 forces the serial
	// reference paths.
	Workers int

	// Cache, when non-nil, memoizes the iterated subdivisions L^ℓ(I)
	// under CacheKey so repeated queries against the same model and
	// input reuse them. CacheKey must uniquely determine the membership
	// predicate (affine.Task.Signature provides it). A nil Cache or an
	// empty CacheKey builds an unshared tower for this call alone.
	Cache    *chromatic.TowerCache
	CacheKey string

	// NodeLimit bounds the backtracking search: the whole search when
	// serial, each frontier subtree when parallel. Splitting therefore
	// grants more total budget — a budget-bound instance undecided at
	// Workers=1 (ErrSearchLimit) may be decided at higher worker
	// counts. Decisions within the budget are identical regardless.
	// <= 0 selects the package default.
	NodeLimit int

	// TraceParent, when non-nil, is the span this decision's tower
	// extensions record under, in its tracer (the census solve path
	// passes its census.solve span so tower-extend spans nest inside
	// it). Nil records no tower-extend spans.
	TraceParent *obs.ActiveSpan

	// TaskLabel is the task value of the decision metrics — the census
	// passes its canonical task spec so multi-task campaigns split into
	// per-spec series. Empty selects the task's Name.
	TaskLabel string
}

// ErrBadInput reports an invalid configuration.
var ErrBadInput = errors.New("solver: invalid input")

// SolveAffineWith is SolveTables taking the affine task directly. When
// opts.Cache is set and opts.CacheKey is empty, the affine task's
// signature is used as the key, so repeated calls on one cache — across
// tasks (I, O, Δ) sharing the same input and model — rebuild nothing.
// The subdivision engine consumes the task natively as a
// chromatic.MemberTables provider (the flat-array fast path).
func SolveAffineWith(task *tasks.Task, l *affine.Task, maxRounds int, opts Options) (*Result, error) {
	if opts.Cache != nil && opts.CacheKey == "" {
		opts.CacheKey = l.Signature()
	}
	return SolveTables(task, l, maxRounds, opts)
}

// SolveTables searches for a chromatic simplicial map φ : L^ℓ(I) → O
// carried by Δ for ℓ = 1..maxRounds. L is given by its membership-table
// provider (affine.Task implements it; use chromatic.FullChr2Tables for
// the wait-free IIS model, or chromatic.TablesOf to adapt a predicate).
func SolveTables(task *tasks.Task, tables chromatic.MemberTables, maxRounds int, opts Options) (*Result, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	if maxRounds < 1 {
		return nil, fmt.Errorf("%w: maxRounds %d", ErrBadInput, maxRounds)
	}
	workers := par.Workers(opts.Workers)
	limit := opts.NodeLimit
	if limit <= 0 {
		limit = defaultNodeLimit
	}
	taskLabel := opts.TaskLabel
	if taskLabel == "" {
		taskLabel = task.Name
	}
	cached := acquireTower(opts, task.Input, workers)
	// Unpin when the decision completes so byte-budgeted caches may
	// evict the tower; it stays shared (and hot) until then.
	defer cached.Release()
	tower := cached.Tower()
	res := &Result{}
	for round := 1; round <= maxRounds; round++ {
		if err := cached.EnsureHeightTablesTraced(tables, round, opts.TraceParent); err != nil {
			return nil, err
		}
		res.ComplexSizes = append(res.ComplexSizes, tower.LevelComplex(round).NumVertices())
		m, ok, err := searchMap(tower, round, task, workers, limit)
		if err != nil {
			if errors.Is(err, ErrSearchLimit) {
				solverDecisions.With("undecided", taskLabel).Add(1)
			}
			return nil, err
		}
		if ok {
			res.Solvable = true
			res.Rounds = round
			res.Map = m
			solverDecisions.With("solvable", taskLabel).Add(1)
			return res, nil
		}
	}
	solverDecisions.With("unsolvable", taskLabel).Add(1)
	return res, nil
}

// acquireTower returns the decision's tower: shared through opts.Cache
// under opts.CacheKey, or unshared when either is unset.
func acquireTower(opts Options, input *sc.Complex, workers int) *chromatic.CachedTower {
	cache := opts.Cache
	if opts.CacheKey == "" {
		cache = nil
	}
	return cache.Acquire(opts.CacheKey, input, workers)
}

// ErrSearchLimit is returned when the backtracking search exceeds its
// node budget: the instance is undecided, not proven unsolvable.
var ErrSearchLimit = errors.New("solver: search node limit exceeded")

// defaultNodeLimit bounds the backtracking search. The experiments'
// instances resolve within a few hundred thousand nodes; anything
// beyond this is reported as undecided rather than silently hanging.
const defaultNodeLimit = 4_000_000

// searchMap looks for a chromatic vertex map from the level-`level`
// complex of the tower, carried by Δ, using MRV backtracking with
// forward checking over facet constraints — split across workers above
// a deterministic frontier.
//
// The search state is indexed by the level's VertexIDs, which the
// subdivision engine assigns densely from 0. The facet list is the
// level complex's shared cache, read in its own order: forward checking
// intersects per-facet filters and MRV picks by (domain size, vertex
// ID), so the search tree does not depend on facet order.
func searchMap(tower *chromatic.Tower, level int, task *tasks.Task, workers, limit int) (sc.Map, bool, error) {
	top := tower.LevelComplex(level)
	vertices := top.VertexIDs()
	size := 0
	if len(vertices) > 0 {
		size = int(vertices[len(vertices)-1]) + 1
	}

	// Initial domains: same color, vertex-level Δ.
	outByColor := make(map[int][]sc.VertexID)
	for _, o := range task.Output.VertexIDs() {
		ov, _ := task.Output.Vertex(o)
		outByColor[ov.Color] = append(outByColor[ov.Color], o)
	}
	roots := tower.RootCarriers(level)
	domains := make([][]sc.VertexID, size)
	for _, v := range vertices {
		vv, _ := top.Vertex(v)
		var cands []sc.VertexID
		for _, o := range outByColor[vv.Color] {
			if task.VertexAllowed(roots[v], o) {
				cands = append(cands, o)
			}
		}
		if len(cands) == 0 {
			return nil, false, nil
		}
		domains[v] = cands
	}

	facets := top.Facets()
	vertexFacets := make([][]int, size)
	facetCarriers := make([]sc.Simplex, len(facets))
	for fi, f := range facets {
		for _, v := range f {
			vertexFacets[v] = append(vertexFacets[v], fi)
		}
		facetCarriers[fi] = rootCarrierOf(roots, f)
	}

	assign := make([]sc.VertexID, size)
	for v := range assign {
		assign[v] = unassigned
	}
	ctx := &searchCtx{
		task:          task,
		vertices:      vertices,
		facets:        facets,
		facetCarriers: facetCarriers,
		vertexFacets:  vertexFacets,
		limit:         limit,
	}
	root := &branch{assign: assign, domains: domains}
	var (
		witness []sc.VertexID
		ok      bool
		err     error
	)
	if workers <= 1 {
		witness, ok, err = searchSerial(ctx, root)
	} else {
		witness, ok, err = searchParallel(ctx, root, workers)
	}
	if !ok {
		return nil, false, err
	}
	m := make(sc.Map, len(vertices))
	for _, v := range vertices {
		m[v] = witness[v]
	}
	return m, true, nil
}

// unassigned marks a vertex without a value in a searcher's assignment.
const unassigned sc.VertexID = -1

// searchSerial runs the reference backtracker on one branch and returns
// the complete assignment when it finds one.
func searchSerial(ctx *searchCtx, br *branch) ([]sc.VertexID, bool, error) {
	s := newSearcher(ctx, br)
	ok, err := s.solve()
	if err != nil || !ok {
		return nil, false, err
	}
	return s.assign, true, nil
}

// searchCtx is the read-only state shared by all search branches.
type searchCtx struct {
	task          *tasks.Task
	vertices      []sc.VertexID // the level's vertices, ascending
	facets        []sc.Simplex  // the level complex's shared facet list
	facetCarriers []sc.Simplex
	vertexFacets  [][]int // indexed by VertexID
	limit         int
}

// searcher is the forward-checking backtracker state of one branch.
// domains and assign are indexed by VertexID.
type searcher struct {
	ctx     *searchCtx
	domains [][]sc.VertexID
	assign  []sc.VertexID
	img     []sc.VertexID // scratch facet image for consistent
	trail   []removal     // pruned domains, for undo
	pool    []sc.VertexID // backing store of pruned domains
	nodes   int
	limit   int

	// Parallel-search coordination: the branch aborts once a
	// lower-indexed branch has found a witness or exhausted its budget.
	winner *winnerState
	branch int
}

// newSearcher starts a backtracker on the branch's state (shared, not
// copied).
func newSearcher(ctx *searchCtx, br *branch) *searcher {
	return &searcher{
		ctx:     ctx,
		domains: br.domains,
		assign:  br.assign,
		img:     make([]sc.VertexID, 0, ctx.task.N),
		limit:   ctx.limit,
	}
}

// consistent reports whether giving value o to vertex w keeps the facet
// image a Δ-allowed simplex of the output, given current assignments.
// The image is built in the searcher's scratch buffer, which Δ sees only
// for the duration of the call.
func (s *searcher) consistent(fi int, w sc.VertexID, o sc.VertexID) bool {
	img := s.img[:0]
	for _, x := range s.ctx.facets[fi] {
		if x == w {
			img = append(img, o)
		} else if ox := s.assign[x]; ox != unassigned {
			img = append(img, ox)
		}
	}
	slices.Sort(img)
	img = slices.Compact(img)
	s.img = img
	if !s.ctx.task.Output.HasSimplex(img) {
		return false
	}
	return s.ctx.task.SimplexAllowed(s.ctx.facetCarriers[fi], img)
}

// removal records a pruned domain for undo.
type removal struct {
	v   sc.VertexID
	old []sc.VertexID
}

// mark is an undo point: the depths of the searcher's trail and value
// pool.
type mark struct{ trail, pool int }

// forwardCheck prunes the domains of unassigned neighbors of v, pushing
// the replaced domains on the trail, and reports whether all domains
// stayed non-empty. Pruned domains are carved, capacity-capped, from
// the searcher's value pool; a domain slice is never written once
// carved, so branches may share them.
func (s *searcher) forwardCheck(v sc.VertexID) bool {
	for _, fi := range s.ctx.vertexFacets[v] {
		for _, w := range s.ctx.facets[fi] {
			if w == v || s.assign[w] != unassigned {
				continue
			}
			dom := s.domains[w]
			start := len(s.pool)
			for _, o := range dom {
				if s.consistent(fi, w, o) {
					s.pool = append(s.pool, o)
				}
			}
			if len(s.pool)-start == len(dom) {
				s.pool = s.pool[:start]
				continue
			}
			s.trail = append(s.trail, removal{v: w, old: dom})
			s.domains[w] = s.pool[start:len(s.pool):len(s.pool)]
			if len(s.domains[w]) == 0 {
				return false
			}
		}
	}
	return true
}

// undo restores every domain pruned since m and releases the pool
// space carved since then.
func (s *searcher) undo(m mark) {
	for i := len(s.trail) - 1; i >= m.trail; i-- {
		s.domains[s.trail[i].v] = s.trail[i].old
	}
	s.trail = s.trail[:m.trail]
	s.pool = s.pool[:m.pool]
}

// pickVar selects the unassigned vertex with the smallest domain (MRV),
// the lowest vertex ID among ties.
func (s *searcher) pickVar() (sc.VertexID, bool) {
	var best sc.VertexID
	bestSize := -1
	for _, v := range s.ctx.vertices {
		if s.assign[v] != unassigned {
			continue
		}
		if n := len(s.domains[v]); bestSize < 0 || n < bestSize {
			best, bestSize = v, n
		}
	}
	return best, bestSize >= 0
}

// admits reports whether value o for v is consistent with v's own facets
// under the current assignment.
func (s *searcher) admits(v, o sc.VertexID) bool {
	for _, fi := range s.ctx.vertexFacets[v] {
		if !s.consistent(fi, v, o) {
			return false
		}
	}
	return true
}

// errCancelled aborts a parallel branch beaten by a lower-indexed
// branch; it never escapes to callers of the solver API.
var errCancelled = errors.New("solver: branch cancelled")

func (s *searcher) solve() (bool, error) {
	v, any := s.pickVar()
	if !any {
		return true, nil
	}
	s.nodes++
	if s.nodes > s.limit {
		return false, fmt.Errorf("%w: %d nodes", ErrSearchLimit, s.nodes)
	}
	if s.winner != nil && s.winner.beaten(s.branch) {
		return false, errCancelled
	}
	for _, o := range s.domains[v] {
		if !s.admits(v, o) {
			continue
		}
		s.assign[v] = o
		m := mark{trail: len(s.trail), pool: len(s.pool)}
		if s.forwardCheck(v) {
			solved, err := s.solve()
			if err != nil {
				return false, err
			}
			if solved {
				return true, nil
			}
		}
		s.undo(m)
		s.assign[v] = unassigned
	}
	return false, nil
}

// rootCarrierOf returns the root carrier of a simplex of a tower level:
// the union of its vertices' entries in the level's root-carrier table,
// gathered into one allocation. A nil table is level 0's, where every
// simplex is its own root carrier.
func rootCarrierOf(roots []sc.Simplex, s sc.Simplex) sc.Simplex {
	if roots == nil {
		return s
	}
	n := 0
	for _, v := range s {
		n += len(roots[v])
	}
	out := make(sc.Simplex, 0, n)
	for _, v := range s {
		out = append(out, roots[v]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// VerifyWitnessTables re-validates a returned map independently on
// every simplex of the subdivision L^rounds(I), L given by its
// membership-table provider (affine.Task is one; the census engine
// passes it directly); rounds 0 checks a map from I itself. Tests and
// the census engine use it to guard against solver bugs, so it checks
// every simplex rather than rely on the tasks.Task contract that facets
// suffice.
//
// One pass over the level's vertices, in ascending order, requires an
// image (sc.ErrPartialMap) that is a vertex of O (sc.ErrNotSimplicial)
// of the same color (sc.ErrNotChromaticM). One sweep over the sorted
// simplices then maps each once and requires a simplex of O
// (sc.ErrNotSimplicial) that Δ allows under the simplex's root carrier,
// read from the level's root-carrier table. The sweep fans out through
// par.For on opts.Workers goroutines; every index above the lowest
// violation found so far is skipped, and that lowest violation is the
// error returned, so it is identical for every worker count. When
// opts.Cache and opts.CacheKey are set the iterated subdivision is
// acquired from (and shared through) the cache instead of being
// rebuilt.
func VerifyWitnessTables(task *tasks.Task, tables chromatic.MemberTables, rounds int, m sc.Map, opts Options) error {
	if err := task.Validate(); err != nil {
		return err
	}
	if rounds < 0 {
		return fmt.Errorf("%w: rounds %d", ErrBadInput, rounds)
	}
	workers := par.Workers(opts.Workers)
	cached := acquireTower(opts, task.Input, workers)
	defer cached.Release()
	if err := cached.EnsureHeightTables(tables, rounds); err != nil {
		return err
	}
	tower := cached.Tower()
	top := tower.LevelComplex(rounds)
	for _, id := range top.VertexIDs() {
		img, ok := m[id]
		if !ok {
			return fmt.Errorf("%w: vertex %d", sc.ErrPartialMap, id)
		}
		iv, ok := task.Output.Vertex(img)
		if !ok {
			return fmt.Errorf("%w: image vertex %d not in codomain", sc.ErrNotSimplicial, img)
		}
		if v, _ := top.Vertex(id); v.Color != iv.Color {
			return fmt.Errorf("%w: vertex %d color %d -> %d", sc.ErrNotChromaticM, id, v.Color, iv.Color)
		}
	}
	roots := tower.RootCarriers(rounds)
	sims := top.Simplices() // deterministic sorted order
	first := newWinnerState(len(sims))
	par.For(len(sims), workers, func(_, i int) {
		if first.beaten(i) {
			return
		}
		s := sims[i]
		img := m.Apply(s)
		if !task.Output.HasSimplex(img) {
			first.record(i, fmt.Errorf("%w: image of %v missing", sc.ErrNotSimplicial, s))
			return
		}
		carrier := rootCarrierOf(roots, s)
		for _, o := range img {
			if !task.VertexAllowed(carrier, o) {
				first.record(i, fmt.Errorf("vertex map not carried at %v", s))
				return
			}
		}
		if !task.SimplexAllowed(carrier, img) {
			first.record(i, fmt.Errorf("simplex map not carried at %v", s))
		}
	})
	return first.err
}
