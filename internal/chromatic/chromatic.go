// Package chromatic implements the standard chromatic subdivision Chr of
// Section 2 and Appendix A: Chr s for the standard simplex, the second
// subdivision Chr² s (whose facets are 2-round IIS runs), iterated and
// generic subdivisions with carrier tracking, and the geometric
// coordinates of Appendix A used for rendering the paper's figures.
//
// Combinatorial identities used throughout:
//
//   - A facet of Chr s with participation P is exactly an ordered
//     partition of P (a one-round IS schedule); the vertex of process p
//     is (p, view) where view is the union of p's block and all earlier
//     blocks.
//   - A facet of Chr² s is a pair of ordered partitions (R1, R2) of Π:
//     R1 orders the first IS, R2 the second. The vertex of p is
//     (p, σ) where σ = {(q, View¹(q)) : q ∈ View²(p)} ∈ Chr s,
//     View¹(q) is q's round-1 view under R1 and View²(p) is p's round-2
//     prefix under R2.
package chromatic

import (
	"fmt"
	"sync"

	"repro/internal/procs"
	"repro/internal/sc"
)

// V1ID deterministically encodes a vertex (color, view) of Chr s as a
// vertex ID. Stable across complexes, so Chr-s sub-complexes built
// independently are directly comparable.
func V1ID(color procs.ID, view procs.Set) sc.VertexID {
	return sc.VertexID(int32(color)<<20 | int32(view))
}

// V1Label renders a Chr-s vertex in the paper's style, e.g. "p2:{p1,p2}".
func V1Label(color procs.ID, view procs.Set) string {
	return fmt.Sprintf("%v:%v", color, view)
}

// BuildChr1 constructs Chr s for an n-process system as an explicit
// complex: all facets given by ordered partitions of every face of s
// (so boundary simplices with partial participation are included).
func BuildChr1(n int) *sc.Complex {
	c := sc.NewComplex(n)
	full := procs.FullSet(n)
	for _, ground := range procs.NonemptySubsets(full) {
		for _, op := range procs.EnumerateOrderedPartitions(ground) {
			views := op.Views()
			ids := make([]sc.VertexID, 0, ground.Size())
			ground.ForEach(func(p procs.ID) {
				id := V1ID(p, views[p])
				// Errors impossible: colors in range, consistent labels.
				_ = c.AddVertex(id, int(p), V1Label(p, views[p]))
				ids = append(ids, id)
			})
			_ = c.AddSimplex(ids...)
		}
	}
	return c
}

// Vertex2 is the structured datum of a Chr² s vertex.
type Vertex2 struct {
	Color procs.ID
	// View1 is carrier(v', s) for the same-colored vertex v' of the
	// carrier in Chr s: the process's own first-round view.
	View1 procs.Set
	// View2 is χ(carrier(v, Chr s)): the processes seen in round 2.
	View2 procs.Set
	// Carrier is χ(carrier(v, s)): the union of View1(q) over q ∈ View2 —
	// the full participation witnessed through both rounds.
	Carrier procs.Set
	// Content maps each q ∈ View2 to View¹(q): the simplex of Chr s that
	// this vertex saw in its second immediate snapshot.
	Content map[procs.ID]procs.Set
}

// Universe interns Chr² s vertices into stable vertex IDs so that all
// sub-complexes of Chr² s for a given n share a vertex identity space:
// an affine task's closure complex, Algorithm 1 outputs, the μ_Q
// checks, figures and simplex agreement's output complex. The decision
// path interns nothing into it (affine tasks answer membership from
// their facet runs, and the subdivision engine keys its own vertices).
// Safe for concurrent use, so models of one system size can share a
// universe; an ID depends on the order vertices were first interned.
type Universe struct {
	n    int
	mu   sync.RWMutex
	ids  map[string]sc.VertexID
	data []Vertex2
}

// NewUniverse creates an empty interner for an n-process system.
func NewUniverse(n int) *Universe {
	return &Universe{n: n, ids: make(map[string]sc.VertexID)}
}

// N returns the number of processes.
func (u *Universe) N() int { return u.n }

// NumVertices returns the number of interned vertices.
func (u *Universe) NumVertices() int {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return len(u.data)
}

// appendContentKey appends the canonical binary serialization of
// (color, content) to buf: the color, the round-2 view bitset, then the
// round-1 views of its members in increasing process order. The round-2
// view both disambiguates the entry set and drives ordered iteration,
// so no sorting (and no fmt formatting) happens on this path — it is
// the interning hot key of R_A^ℓ construction.
func appendContentKey(buf []byte, color procs.ID, content map[procs.ID]procs.Set) []byte {
	var view2 procs.Set
	for q := range content {
		view2 = view2.Add(q)
	}
	buf = append(buf, byte(color),
		byte(view2), byte(view2>>8), byte(view2>>16), byte(view2>>24))
	view2.ForEach(func(q procs.ID) {
		v := content[q]
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	})
	return buf
}

// Intern returns the vertex ID for (color, content), creating it if
// needed. content maps each process seen in round 2 to its round-1 view;
// it must include color itself (self-inclusion).
func (u *Universe) Intern(color procs.ID, content map[procs.ID]procs.Set) sc.VertexID {
	var arr [5 + 4*procs.MaxProcs]byte
	key := appendContentKey(arr[:0], color, content)
	u.mu.RLock()
	id, ok := u.ids[string(key)]
	u.mu.RUnlock()
	if ok {
		return id
	}
	v2 := Vertex2{Color: color, Content: make(map[procs.ID]procs.Set, len(content))}
	for q, view := range content {
		v2.Content[q] = view
		v2.View2 = v2.View2.Add(q)
		v2.Carrier = v2.Carrier.Union(view)
	}
	v2.View1 = content[color]
	u.mu.Lock()
	defer u.mu.Unlock()
	if id, ok := u.ids[string(key)]; ok {
		return id
	}
	id = sc.VertexID(len(u.data))
	u.data = append(u.data, v2)
	u.ids[string(key)] = id
	return id
}

// Vertex returns the structured datum of an interned vertex.
func (u *Universe) Vertex(id sc.VertexID) Vertex2 {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.data[int(id)]
}

// Label renders a Chr²-s vertex: "p1:V1{..}V2{..}".
func (u *Universe) Label(id sc.VertexID) string {
	v := u.Vertex(id)
	return fmt.Sprintf("%v:V1%v,V2%v", v.Color, v.View1, v.View2)
}

// Run2 is a 2-round IIS run over a ground set: a facet of Chr²(σ) where
// σ is the face of s with χ(σ) = ground. Both rounds are ordered
// partitions of the same ground (full-information IIS: everyone moves in
// both rounds).
type Run2 struct {
	R1, R2 procs.OrderedPartition
}

// Validate checks both rounds partition the same ground set.
func (r Run2) Validate(ground procs.Set) error {
	if err := r.R1.Validate(ground); err != nil {
		return fmt.Errorf("round 1: %w", err)
	}
	if err := r.R2.Validate(ground); err != nil {
		return fmt.Errorf("round 2: %w", err)
	}
	return nil
}

// Ground returns the participating set of the run.
func (r Run2) Ground() procs.Set { return r.R1.Ground() }

// RunKey is the compact comparable identity of a Run2: the packed-nibble
// encodings of both rounds (procs.OrderedPartition.PackedKey). It is the
// membership hot-path key — two runs over grounds within
// procs.PackedKeyMaxProcs are equal iff their RunKeys are — and replaces
// the fmt-built string keys the affine-task membership maps used before.
type RunKey struct{ R1, R2 uint64 }

// Key returns the binary key of the run.
func (r Run2) Key() RunKey {
	return RunKey{R1: r.R1.PackedKey(), R2: r.R2.PackedKey()}
}

// Less orders run keys lexicographically (R1, then R2) for deterministic
// iteration over key sets.
func (k RunKey) Less(o RunKey) bool {
	if k.R1 != o.R1 {
		return k.R1 < o.R1
	}
	return k.R2 < o.R2
}

// AppendBytes appends the 16-byte little-endian serialization of the
// key, for hashing task signatures.
func (k RunKey) AppendBytes(buf []byte) []byte {
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(k.R1>>(8*i)))
	}
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(k.R2>>(8*i)))
	}
	return buf
}

// String renders the run as "R1: ... | R2: ...".
func (r Run2) String() string {
	return fmt.Sprintf("R1: %v | R2: %v", r.R1, r.R2)
}

// ContentOf returns the second-snapshot content of process p in this
// run: q -> View¹(q) for every q in p's round-2 prefix.
func (r Run2) ContentOf(p procs.ID) map[procs.ID]procs.Set {
	view2, ok := r.R2.ViewOf(p)
	if !ok {
		return nil
	}
	views1 := r.R1.Views()
	content := make(map[procs.ID]procs.Set, view2.Size())
	view2.ForEach(func(q procs.ID) { content[q] = views1[q] })
	return content
}

// VertexOf interns and returns the Chr²-s vertex of process p in the run.
func (r Run2) VertexOf(u *Universe, p procs.ID) sc.VertexID {
	return u.Intern(p, r.ContentOf(p))
}

// FacetIDs interns the whole facet (one vertex per participating
// process), in increasing process order.
func (r Run2) FacetIDs(u *Universe) []sc.VertexID {
	views1 := r.R1.Views()
	ground := r.Ground()
	out := make([]sc.VertexID, 0, ground.Size())
	ground.ForEach(func(p procs.ID) {
		view2, _ := r.R2.ViewOf(p)
		content := make(map[procs.ID]procs.Set, view2.Size())
		view2.ForEach(func(q procs.ID) { content[q] = views1[q] })
		out = append(out, u.Intern(p, content))
	})
	return out
}

// ForEachRun2 enumerates every 2-round run over the given ground set
// (from the cached partition table — see ForEachRun2Keyed for the form
// that also yields precomputed run keys). Stops early if f returns
// false.
func ForEachRun2(ground procs.Set, f func(Run2) bool) {
	parts := partitionsFor(ground).parts
	for _, r1 := range parts {
		for _, r2 := range parts {
			if !f(Run2{R1: r1, R2: r2}) {
				return
			}
		}
	}
}

// BuildChr2 constructs the full Chr² s complex for n processes,
// including all boundary simplices (runs over every non-empty face of
// s), interning vertices into u.
func BuildChr2(u *Universe) *sc.Complex {
	n := u.n
	c := sc.NewComplex(n)
	for _, ground := range procs.NonemptySubsets(procs.FullSet(n)) {
		ForEachRun2(ground, func(r Run2) bool {
			ids := r.FacetIDs(u)
			for _, id := range ids {
				v := u.Vertex(id)
				_ = c.AddVertex(id, int(v.Color), u.Label(id))
			}
			_ = c.AddSimplex(ids...)
			return true
		})
	}
	return c
}

// AddFacetToComplex registers the facet of run r into complex c,
// creating vertices as needed.
func AddFacetToComplex(u *Universe, c *sc.Complex, r Run2) []sc.VertexID {
	ids := r.FacetIDs(u)
	for _, id := range ids {
		v := u.Vertex(id)
		_ = c.AddVertex(id, int(v.Color), u.Label(id))
	}
	_ = c.AddSimplex(ids...)
	return ids
}
