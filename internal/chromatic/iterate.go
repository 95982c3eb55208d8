package chromatic

// Iterated application of affine tasks (and of Chr² itself) to arbitrary
// chromatic base complexes, with carrier tracking. This powers the
// solvability side of the FACT theorem: building R_A^ℓ(I) from an input
// complex I and searching for a simplicial map to the output complex.
//
// The engine is rank-indexed: membership is consulted through
// MembershipTable bitsets (one bit probe per run instead of a hash-map
// lookup), per-partition IS views come from the flat per-ground tables
// of partitions.go, and the per-work-unit vertex memo is a
// generation-counter arena indexed by (process, round-2 view) — reset by
// bumping a counter, not by reallocation. Every entry point takes a
// MemberTables provider; a Membership predicate becomes one through
// TablesOf.
//
// Construction fans out through par.For: the unit of work is one (base
// face, first-round schedule) pair, whose second-round schedules a
// worker enumerates against the membership table. Each worker dedups
// the vertices it produces in a private shard; shards are merged into
// the global intern table in the serial enumeration order, so the
// resulting complex — vertex IDs, labels, carriers, simplices — is
// byte-identical for every worker count.

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/par"
	"repro/internal/procs"
	"repro/internal/sc"
)

// Membership decides whether a given 2-round run (over a ground set of
// colors) yields a simplex of the affine task L ⊆ Chr² s. The full Chr²
// subdivision is the constant-true predicate.
//
// The engine consumes precomputed MembershipTable bitsets
// (membership.go); a predicate reaches it through NewMembershipTable or
// TablesOf, which evaluate it exactly once per run per ground set.
// Predicates must therefore be pure — the table is their permanent
// answer — and safe for concurrent calls (affine task predicates and
// FullChr2Membership are). The table-equivalence tests use predicates
// as the oracle the tables are checked against.
//
// The enumerators pass the run's binary key alongside it, assembled from
// the per-partition packed-key table (partitions.go) instead of
// re-derived per run. Callers invoking a predicate on a run of their own
// pass run.Key().
type Membership func(run Run2, key RunKey) bool

// FullChr2Membership accepts every run: L = Chr² s.
var FullChr2Membership Membership = func(Run2, RunKey) bool { return true }

// Iterated is one level of affine-task application over a base complex:
// the sub-complex of Chr²(base) selected by the membership table, with
// per-vertex carriers into the base complex: a table indexed by the
// VertexIDs the engine assigns densely from 0. A level of a Tower also
// holds its root-carrier table (see Tower.RootCarriers).
type Iterated struct {
	Complex *sc.Complex

	carrier []sc.Simplex
	root    []sc.Simplex
	interns map[string]sc.VertexID
}

// ErrNotChromaticBase is returned when the base complex is not chromatic.
var ErrNotChromaticBase = errors.New("base complex is not chromatic")

// ApplyAffineTables computes L(base) from a membership-table provider:
// for every simplex σ of the base complex and every 2-round run over
// χ(σ) the provider's table accepts, the corresponding facet of Chr²(σ)
// is added, with carriers of new vertices pointing into base. workers is
// resolved by par.Workers; one worker runs the serial reference path.
// The output is byte-identical across worker counts.
func ApplyAffineTables(base *sc.Complex, tables MemberTables, workers int) (*Iterated, error) {
	workers = par.Workers(workers)
	faces, err := chromaticFaces(base)
	if err != nil {
		return nil, err
	}
	it := &Iterated{
		Complex: sc.NewComplex(base.Colors()),
		interns: make(map[string]sc.VertexID),
	}
	if workers == 1 {
		it.applySerial(faces, tables)
		return it, nil
	}
	it.applyParallel(faces, tables, workers)
	return it, nil
}

// baseFace is one distinct chromatic face of the base complex, with its
// color -> base vertex table (flat, indexed by color).
type baseFace struct {
	ground  procs.Set
	byColor []sc.VertexID
}

// chromaticFaces collects the distinct faces of the base complex in the
// deterministic serial enumeration order (facets, then subset masks),
// validating chromaticity along the way.
func chromaticFaces(base *sc.Complex) ([]baseFace, error) {
	if !base.IsChromatic() {
		return nil, ErrNotChromaticBase
	}
	colors := base.Colors()
	var faces []baseFace
	seenFaces := make(map[string]bool)
	for _, facet := range base.Facets() {
		for _, face := range facet.Faces() {
			fk := face.Key()
			if seenFaces[fk] {
				continue
			}
			seenFaces[fk] = true
			byColor := make([]sc.VertexID, colors)
			var ground procs.Set
			for _, v := range face {
				vert, _ := base.Vertex(v)
				p := procs.ID(vert.Color)
				if ground.Contains(p) {
					return nil, ErrNotChromaticBase
				}
				byColor[p] = v
				ground = ground.Add(p)
			}
			faces = append(faces, baseFace{ground: ground, byColor: byColor})
		}
	}
	return faces, nil
}

// arenaMaxSlots bounds the flat slot space of a memo arena; grounds
// whose (member, view) index space exceeds it (only reachable far
// beyond the sizes the engine can enumerate) fall back to a map.
const arenaMaxSlots = 1 << 16

// memoArena memoizes per-row vertex records indexed by (member
// position, round-2 view): a flat generation-stamped slot array that
// resets in O(1) by bumping the generation counter instead of
// reallocating. One arena per (worker, ground) lives across every row
// of that ground.
type memoArena[T any] struct {
	gen   uint32
	width uint
	slots []memoSlot[T]
	over  map[uint32]T // fallback beyond arenaMaxSlots
}

type memoSlot[T any] struct {
	gen uint32
	val T
}

func newMemoArena[T any](ground procs.Set, members int) *memoArena[T] {
	// Slot index: memberPos << width | view2, view2 ⊆ ground.
	a := &memoArena[T]{gen: 1, width: uint(bits.Len32(uint32(ground)))}
	if size := members << a.width; size <= arenaMaxSlots {
		a.slots = make([]memoSlot[T], size)
	} else {
		a.over = make(map[uint32]T)
	}
	return a
}

// reset invalidates every memoized record in O(1) (flat form) or by
// clearing the fallback map.
func (a *memoArena[T]) reset() {
	a.gen++
	if a.over != nil && len(a.over) > 0 {
		clear(a.over)
	}
}

func (a *memoArena[T]) get(pi int, view2 procs.Set) (T, bool) {
	if a.slots != nil {
		s := &a.slots[uint32(pi)<<a.width|uint32(view2)]
		if s.gen == a.gen {
			return s.val, true
		}
		var zero T
		return zero, false
	}
	v, ok := a.over[uint32(pi)<<a.width|uint32(view2)]
	return v, ok
}

func (a *memoArena[T]) put(pi int, view2 procs.Set, v T) {
	if a.slots != nil {
		s := &a.slots[uint32(pi)<<a.width|uint32(view2)]
		s.gen, s.val = a.gen, v
		return
	}
	a.over[uint32(pi)<<a.width|uint32(view2)] = v
}

// applySerial is the serial reference path: faces in order, runs in rank
// order, vertices interned at first encounter. Within one first-round
// row a vertex is determined by (process, round-2 view), so the arena
// memoizes interned IDs per row.
func (it *Iterated) applySerial(faces []baseFace, tables MemberTables) {
	arenas := make(map[procs.Set]*memoArena[sc.VertexID])
	var keyBuf []byte
	var ids []sc.VertexID
	for _, f := range faces {
		tab := partitionsFor(f.ground)
		mt := tables.MembershipTable(f.ground)
		members := tab.members
		m := len(tab.parts)
		ar := arenas[f.ground]
		if ar == nil {
			ar = newMemoArena[sc.VertexID](f.ground, len(members))
			arenas[f.ground] = ar
		}
		for i := 0; i < m; i++ {
			if !mt.RowAny(i) {
				continue
			}
			views1 := tab.views[i]
			base := i * m
			ar.reset()
			for j := 0; j < m; j++ {
				if !mt.Contains(RunRank(base + j)) {
					continue
				}
				views2 := tab.views[j]
				ids = ids[:0]
				for pi, p := range members {
					view2 := views2[p]
					id, ok := ar.get(pi, view2)
					if !ok {
						id = it.internFlat(f.byColor, p, view2, views1, &keyBuf)
						ar.put(pi, view2, id)
					}
					ids = append(ids, id)
				}
				_ = it.Complex.AddSimplex(ids...)
			}
		}
	}
}

// internFlat interns the vertex (p, view2) of one run, building its
// canonical key into the caller's reusable buffer. The global intern
// probe allocates nothing on a hit.
func (it *Iterated) internFlat(byColor []sc.VertexID, p procs.ID, view2 procs.Set,
	views1 []procs.Set, keyBuf *[]byte) sc.VertexID {
	buf := appendIterKey((*keyBuf)[:0], byColor[p], view2, views1, byColor)
	*keyBuf = buf
	if id, ok := it.interns[string(buf)]; ok {
		return id
	}
	return it.register(string(buf), int(p), flatCarrier(view2, views1, byColor))
}

// vertexRec is a worker-shard record of one subdivision vertex, keyed by
// the same canonical string the serial interner uses.
type vertexRec struct {
	key     string
	color   int32
	carrier sc.Simplex
}

// runUnit is the parallel work unit: one base face crossed with one
// first-round schedule (an index into the face's cached partition
// table). Workers enumerate its second-round schedules.
type runUnit struct {
	face int
	r1   int
}

// applyParallel fans the run enumeration out through par.For and
// merges the per-unit results in serial enumeration order.
func (it *Iterated) applyParallel(faces []baseFace, tables MemberTables, workers int) {
	type groundData struct {
		tab *partTable
		mt  *MembershipTable
	}
	byGround := make(map[procs.Set]groundData)
	for _, f := range faces {
		if _, ok := byGround[f.ground]; !ok {
			byGround[f.ground] = groundData{
				tab: partitionsFor(f.ground),
				mt:  tables.MembershipTable(f.ground),
			}
		}
	}
	var units []runUnit
	for fi, f := range faces {
		g := byGround[f.ground]
		for i := range g.tab.parts {
			if !g.mt.RowAny(i) {
				continue
			}
			units = append(units, runUnit{face: fi, r1: i})
		}
	}
	// results[i] holds the accepted facets of unit i, each facet a list
	// of shard records in ground order.
	results := make([][][]*vertexRec, len(units))
	// Each worker dedups into its own shard and memo arenas, built on
	// its first unit.
	type shardState struct {
		shard  map[string]*vertexRec
		arenas map[procs.Set]*memoArena[*vertexRec]
		keyBuf []byte
	}
	states := make([]shardState, workers)
	par.For(len(units), workers, func(w, i int) {
		st := &states[w]
		if st.shard == nil {
			st.shard = make(map[string]*vertexRec)
			st.arenas = make(map[procs.Set]*memoArena[*vertexRec])
		}
		u := units[i]
		f := faces[u.face]
		g := byGround[f.ground]
		tab, mt := g.tab, g.mt
		members := tab.members
		m := len(tab.parts)
		ar := st.arenas[f.ground]
		if ar == nil {
			ar = newMemoArena[*vertexRec](f.ground, len(members))
			st.arenas[f.ground] = ar
		}
		ar.reset()
		views1 := tab.views[u.r1]
		base := u.r1 * m
		// The key buffer lives in a local for the unit, so workers
		// write their adjacent states once per unit, not per vertex.
		keyBuf := st.keyBuf
		var accepted [][]*vertexRec
		for j := 0; j < m; j++ {
			if !mt.Contains(RunRank(base + j)) {
				continue
			}
			views2 := tab.views[j]
			recs := make([]*vertexRec, 0, len(members))
			for pi, p := range members {
				view2 := views2[p]
				rec, ok := ar.get(pi, view2)
				if !ok {
					rec = buildRec(p, view2, views1, f.byColor, st.shard, &keyBuf)
					ar.put(pi, view2, rec)
				}
				recs = append(recs, rec)
			}
			accepted = append(accepted, recs)
		}
		st.keyBuf = keyBuf
		results[i] = accepted
	})
	ids := make([]sc.VertexID, 0, 16)
	for _, accepted := range results {
		for _, recs := range accepted {
			ids = ids[:0]
			for _, rec := range recs {
				ids = append(ids, it.internRec(rec))
			}
			_ = it.Complex.AddSimplex(ids...)
		}
	}
}

// buildRec computes the shard record of the vertex (p, view2) under the
// unit's fixed first-round views, reusing the worker's shard so vertices
// repeated across units are built once per worker. The shard probe
// allocates nothing on a hit.
func buildRec(p procs.ID, view2 procs.Set, views1 []procs.Set,
	byColor []sc.VertexID, shard map[string]*vertexRec, keyBuf *[]byte) *vertexRec {
	buf := appendIterKey((*keyBuf)[:0], byColor[p], view2, views1, byColor)
	*keyBuf = buf
	if rec, ok := shard[string(buf)]; ok {
		return rec
	}
	rec := &vertexRec{
		key:     string(buf),
		color:   int32(p),
		carrier: flatCarrier(view2, views1, byColor),
	}
	shard[rec.key] = rec
	return rec
}

// flatCarrier derives the carrier of the vertex (·, view2): the base
// vertices of every color transitively seen through the two rounds.
func flatCarrier(view2 procs.Set, views1 []procs.Set, byColor []sc.VertexID) sc.Simplex {
	var cs procs.Set
	view2.ForEach(func(q procs.ID) { cs = cs.Union(views1[q]) })
	carrier := make(sc.Simplex, 0, cs.Size())
	cs.ForEach(func(x procs.ID) { carrier = append(carrier, byColor[x]) })
	return sc.NewSimplex(carrier...)
}

// internRec interns one shard record into the global table, assigning
// IDs in merge order — identical to the serial first-seen order.
func (it *Iterated) internRec(rec *vertexRec) sc.VertexID {
	if id, ok := it.interns[rec.key]; ok {
		return id
	}
	return it.register(rec.key, int(rec.color), rec.carrier)
}

// register assigns the next vertex ID to a fresh (key, carrier) pair.
func (it *Iterated) register(key string, color int, carrier sc.Simplex) sc.VertexID {
	id := sc.VertexID(len(it.carrier))
	it.carrier = append(it.carrier, carrier)
	// The key is binary; label with the (unique) ID and the carrier,
	// which is what diagnostics actually read.
	label := fmt.Sprintf("c%d#%d@%v", color, id, carrier)
	_ = it.Complex.AddVertex(id, color, label)
	it.interns[key] = id
	return id
}

// appendIterKey canonically serializes a subdivision vertex as a compact
// binary string: the base vertex, then per member of its round-2 view in
// increasing color order — the member's base vertex, its round-1 view
// length, and the view's base vertices in increasing color order. Every
// byte derives from the vertex's content alone (each base vertex's color
// is fixed by the chromatic base complex), so the encoding is canonical
// across faces; the prefix-decodable layout makes it injective.
func appendIterKey(buf []byte, baseV sc.VertexID, view2 procs.Set,
	views1 []procs.Set, byColor []sc.VertexID) []byte {
	buf = appendVertexID(buf, baseV)
	view2.ForEach(func(q procs.ID) {
		view := views1[q]
		buf = appendVertexID(buf, byColor[q])
		buf = append(buf, byte(view.Size()))
		view.ForEach(func(x procs.ID) { buf = appendVertexID(buf, byColor[x]) })
	})
	return buf
}

func appendVertexID(buf []byte, v sc.VertexID) []byte {
	return append(buf, byte(v), byte(uint32(v)>>8), byte(uint32(v)>>16), byte(uint32(v)>>24))
}

// Carrier returns the carrier of a subdivision vertex in the base
// complex (the set of base vertices whose knowledge it transitively
// contains).
func (it *Iterated) Carrier(v sc.VertexID) sc.Simplex { return it.carrier[v] }

// Tower is an iterated application L^ℓ(I): level 0 is the input complex,
// each extension applies an affine task (or full Chr²) to the top.
//
// Towers come only from TowerCache.Acquire and grow only through
// CachedTower.EnsureHeightTables, which serializes extensions. Each
// level is built together with its root-carrier table and never written
// once published, so a Tower may be shared by concurrent readers; level
// access is mutex-guarded.
type Tower struct {
	Input  *sc.Complex
	Levels []*Iterated

	workers int
	mu      sync.Mutex
}

// newTower starts a tower over the given input complex whose extensions
// run on workers goroutines, resolved by par.Workers.
func newTower(input *sc.Complex, workers int) *Tower {
	return &Tower{Input: input, workers: workers}
}

// Top returns the current top complex (the input when no levels exist).
func (t *Tower) Top() *sc.Complex {
	return t.LevelComplex(t.Height())
}

// LevelComplex returns the complex at the given level: the input at
// level 0, L^level(I) above.
func (t *Tower) LevelComplex(level int) *sc.Complex {
	t.mu.Lock()
	defer t.mu.Unlock()
	if level == 0 {
		return t.Input
	}
	return t.Levels[level-1].Complex
}

// extend applies one round of the affine task, given by its
// membership-table provider, to the top of the tower, and builds the
// new level's root-carrier table before publishing the level: level 1's
// base is the input, so its carriers are its root carriers; above, a
// vertex's root carrier is the union of the root carriers of its
// carrier's vertices one level down.
func (t *Tower) extend(tables MemberTables) error {
	it, err := ApplyAffineTables(t.Top(), tables, t.workers)
	if err != nil {
		return err
	}
	it.root = it.carrier
	if below := t.RootCarriers(t.Height()); below != nil {
		it.root = make([]sc.Simplex, len(it.carrier))
		for v, c := range it.carrier {
			for _, u := range c {
				it.root[v] = it.root[v].Union(below[u])
			}
		}
	}
	t.mu.Lock()
	t.Levels = append(t.Levels, it)
	t.mu.Unlock()
	return nil
}

// ApproxBytes estimates the resident size of the tower: the input
// complex plus every built level. The estimate is deliberately cheap
// (derived from vertex/simplex counts, not by walking the maps) — it is
// the weight the TowerCache byte budget uses for LRU eviction, where
// relative size between towers matters more than absolute accuracy.
func (t *Tower) ApproxBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := complexApproxBytes(t.Input)
	for _, it := range t.Levels {
		b += it.ApproxBytes()
	}
	return b
}

// ApproxBytes estimates the resident size of one built level: its
// complex plus the carrier and intern tables keyed per vertex.
func (it *Iterated) ApproxBytes() int64 {
	nv := int64(it.Complex.NumVertices())
	n := int64(it.Complex.Colors())
	// Per vertex: intern key + label, carrier slice, and the per-color
	// key payload.
	return complexApproxBytes(it.Complex) + nv*(160+96*n)
}

// complexApproxBytes estimates a complex's resident size from its
// vertex and simplex counts.
func complexApproxBytes(c *sc.Complex) int64 {
	return int64(c.NumVertices())*96 + int64(c.NumSimplices())*112
}

// Height returns the number of affine-task applications.
func (t *Tower) Height() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Levels)
}

// RootCarriers returns the root-carrier table of the level-`level`
// complex, indexed by VertexID: entry v is the carrier of vertex v in
// the input complex. The table is read-only and may be kept after the
// call. Level 0, the input itself, has no table and returns nil: an
// input vertex is its own root carrier.
func (t *Tower) RootCarriers(level int) []sc.Simplex {
	if level == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Levels[level-1].root
}
