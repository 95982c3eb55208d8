package affine

// The affine-task container: a pure sub-complex of Chr² s given by its
// facets (2-round runs), with the membership tables chromatic's towers
// read to build iterated models L^m, and the simplicial complex
// realization and Membership predicate of the paper-side checks
// (Section 2, "Simplex agreement and affine tasks").

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/sc"
)

// ErrEmptyTask is returned when a construction selects no facet: the
// affine task would be empty, which Definition 9 excludes.
var ErrEmptyTask = errors.New("affine task has no facets")

// Task is an affine task L ⊆ Chr² s: a pure non-empty sub-complex of the
// second chromatic subdivision, identified by its top-dimensional facets
// (2-round IIS runs over the full process set).
type Task struct {
	Name string

	n      int
	u      *chromatic.Universe
	facets []chromatic.Run2

	keys map[chromatic.RunKey]bool // binary run keys of the facets

	cplxOnce sync.Once
	cplx     *sc.Complex // lazy closure of the facets

	sigOnce sync.Once
	sig     string

	tabMu  sync.Mutex
	tables map[procs.Set]*chromatic.MembershipTable

	restMu     sync.Mutex
	restricted map[procs.Set][]chromatic.Run2
}

// NewTask builds an affine task from explicit facet runs.
func NewTask(name string, u *chromatic.Universe, facets []chromatic.Run2) (*Task, error) {
	if len(facets) == 0 {
		return nil, ErrEmptyTask
	}
	t := &Task{
		Name:   name,
		n:      u.N(),
		u:      u,
		facets: facets,
		keys:   make(map[chromatic.RunKey]bool, len(facets)),
	}
	full := procs.FullSet(u.N())
	for _, r := range facets {
		if err := r.Validate(full); err != nil {
			return nil, err
		}
		t.keys[r.Key()] = true
	}
	return t, nil
}

// N returns the number of processes.
func (t *Task) N() int { return t.n }

// Universe returns the vertex interner shared by the task's complexes.
func (t *Task) Universe() *chromatic.Universe { return t.u }

// NumFacets returns the number of top-dimensional facets.
func (t *Task) NumFacets() int { return len(t.facets) }

// Facets returns a copy of the facet runs. The runs' schedules may be
// chromatic's cached ordered partitions, shared process-wide, so callers
// must treat them as read-only.
func (t *Task) Facets() []chromatic.Run2 {
	out := make([]chromatic.Run2, len(t.facets))
	copy(out, t.facets)
	return out
}

// ContainsRun reports whether the full-participation run is a facet.
func (t *Task) ContainsRun(r chromatic.Run2) bool { return t.keys[r.Key()] }

// Complex materializes the task as a simplicial complex (the closure of
// its facets, including all boundary faces). Cached after first call.
func (t *Task) Complex() *sc.Complex {
	t.cplxOnce.Do(func() {
		c := sc.NewComplex(t.n)
		for _, r := range t.facets {
			chromatic.AddFacetToComplex(t.u, c, r)
		}
		t.cplx = c
	})
	return t.cplx
}

// Signature returns a deterministic identifier of the task's membership
// semantics: a digest of the system size and the sorted binary facet run
// keys. Two tasks with equal signatures accept exactly the same runs, so
// the signature keys the iterated-subdivision cache
// (chromatic.TowerCache).
func (t *Task) Signature() string {
	t.sigOnce.Do(func() {
		keys := make([]chromatic.RunKey, 0, len(t.keys))
		for k := range t.keys {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		h := sha256.New()
		fmt.Fprintf(h, "affine:%d;", t.n)
		buf := make([]byte, 0, 16)
		for _, k := range keys {
			h.Write(k.AppendBytes(buf[:0]))
		}
		t.sig = hex.EncodeToString(h.Sum(nil))
	})
	return t.sig
}

// MembershipTable returns the task's precomputed rank-indexed
// membership bitset over the given non-empty ground set — affine.Task
// natively implements chromatic.MemberTables, so the task itself is the
// fast path of ApplyAffineTables / CachedTower.EnsureHeightTables.
//
// One rule answers every ground P. An immediate-snapshot view never
// holds a process scheduled after it, so a run (R1, R2) over P is a
// face of the task exactly when some facet schedules P first in both
// rounds and agrees with the run there: (R1++X, R2++Y) is a facet for
// some ordered partitions X, Y of Π∖P. On the full ground X = Y = ()
// and the rule is the facet check itself. The probes read only the
// facet key set. Tables are built once per (task, ground); safe for
// concurrent use.
func (t *Task) MembershipTable(ground procs.Set) *chromatic.MembershipTable {
	t.tabMu.Lock()
	mt, ok := t.tables[ground]
	t.tabMu.Unlock()
	if ok {
		return mt
	}
	rest := procs.FullSet(t.n).Diff(ground)
	var tails []chromatic.RunKey // the keys of every run (X, Y) over rest
	chromatic.ForEachRun2Keyed(rest, func(_ chromatic.Run2, k chromatic.RunKey) bool {
		tails = append(tails, k)
		return true
	})
	// A PackedKey nibble holds a 1-based block index, so appending X to
	// R1's blocks adds len(R1) to the nibble of every member of rest.
	var spread uint64
	rest.ForEach(func(p procs.ID) { spread |= 1 << (4 * uint(p)) })
	mt = chromatic.NewMembershipTable(ground, func(r chromatic.Run2, key chromatic.RunKey) bool {
		shift1, shift2 := uint64(len(r.R1))*spread, uint64(len(r.R2))*spread
		for _, tail := range tails {
			if t.keys[chromatic.RunKey{R1: key.R1 + shift1 + tail.R1, R2: key.R2 + shift2 + tail.R2}] {
				return true
			}
		}
		return false
	})
	t.tabMu.Lock()
	if prior, ok := t.tables[ground]; ok {
		mt = prior
	} else {
		if t.tables == nil {
			t.tables = make(map[procs.Set]*chromatic.MembershipTable)
		}
		t.tables[ground] = mt
	}
	t.tabMu.Unlock()
	return mt
}

// RestrictedFacets enumerates the runs over the participating set whose
// simplices belong to the task: the facets of L ∩ Chr²(P). Derived from
// the rank-indexed membership table, memoized per participant set and
// shared by every simulation over this task; safe for concurrent use.
func (t *Task) RestrictedFacets(p procs.Set) []chromatic.Run2 {
	t.restMu.Lock()
	runs, ok := t.restricted[p]
	t.restMu.Unlock()
	if ok {
		return runs
	}
	mt := t.MembershipTable(p)
	parts := chromatic.OrderedPartitionsOf(p)
	rank := chromatic.RunRank(0)
	for i := range parts {
		for j := range parts {
			if mt.Contains(rank) {
				runs = append(runs, chromatic.Run2{R1: parts[i], R2: parts[j]})
			}
			rank++
		}
	}
	t.restMu.Lock()
	if prior, ok := t.restricted[p]; ok {
		runs = prior
	} else {
		if t.restricted == nil {
			t.restricted = make(map[procs.Set][]chromatic.Run2)
		}
		t.restricted[p] = runs
	}
	t.restMu.Unlock()
	return runs
}

// ContainsSimplex reports whether the interned vertex set is a simplex
// of the task (a face of some facet).
func (t *Task) ContainsSimplex(ids []sc.VertexID) bool {
	if len(ids) == 0 {
		return false
	}
	return t.Complex().Has(ids...)
}

// Membership returns the task's structural predicate: a 2-round run
// over a ground set of colors is accepted iff its simplex belongs to
// the task. The run key the enumerators precompute indexes the facet
// map directly, so the full-ground path is a single map read.
//
// The engine consumes the task as a chromatic.MemberTables provider
// (MembershipTable); the predicate is the oracle the table-equivalence
// tests check those tables against. It is safe for concurrent use: the
// task complex is materialized eagerly here, so evaluations only read
// it (and intern through the lock-protected Universe).
func (t *Task) Membership() chromatic.Membership {
	t.Complex()
	full := procs.FullSet(t.n)
	return func(r chromatic.Run2, key chromatic.RunKey) bool {
		if r.Ground() == full {
			return t.keys[key]
		}
		return t.ContainsSimplex(r.FacetIDs(t.u))
	}
}

// Equal reports whether two tasks have the same facet set.
func (t *Task) Equal(other *Task) bool {
	if t.n != other.n || len(t.facets) != len(other.facets) {
		return false
	}
	for k := range t.keys {
		if !other.keys[k] {
			return false
		}
	}
	return true
}

// MissingFrom returns facets of t absent from other (diagnostics for
// equality experiments). Sorted by run key.
func (t *Task) MissingFrom(other *Task) []chromatic.Run2 {
	var out []chromatic.Run2
	for _, r := range t.facets {
		if !other.keys[r.Key()] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key().Less(out[j].Key()) })
	return out
}

// VertexCensus returns the number of distinct vertices used by the
// task's facets.
func (t *Task) VertexCensus() int {
	seen := make(map[sc.VertexID]bool)
	for _, r := range t.facets {
		for _, id := range r.FacetIDs(t.u) {
			seen[id] = true
		}
	}
	return len(seen)
}
