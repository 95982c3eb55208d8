// Package tasks implements the distributed-task formalism of Section 2:
// a task (I, O, Δ) with chromatic input/output complexes and a carrier
// map Δ, plus the concrete tasks used by the FACT experiments
// (k-set consensus, consensus, simplex agreement).
package tasks

import (
	"errors"
	"fmt"

	"repro/internal/procs"
	"repro/internal/sc"
)

// Task is a colored task (I, O, Δ). Δ is presented in the "locally
// determined" form the solver exploits:
//
//   - VertexAllowed(σ, o): may an output vertex o be decided by a
//     process whose accumulated knowledge (root carrier in I) is σ?
//   - SimplexAllowed(σ, img): may the simplex img (already a simplex of
//     Output, possibly partial) be jointly decided by processes whose
//     combined carrier is σ? It must be monotone: shrinking img or
//     growing σ cannot turn an allowed pair into a forbidden one. The
//     solver passes img in a reused buffer, so it must not be retained.
//
// For such Δ, a vertex map is carried by Δ iff every vertex satisfies
// VertexAllowed and every facet image satisfies SimplexAllowed — the
// intermediate faces follow by monotonicity and inclusion-closure of
// the output complex. All tasks in this package have this form.
type Task struct {
	Name   string
	N      int
	Input  *sc.Complex
	Output *sc.Complex

	VertexAllowed  func(carrier sc.Simplex, o sc.VertexID) bool
	SimplexAllowed func(carrier sc.Simplex, img sc.Simplex) bool
}

// ErrBadTask reports an inconsistent task definition.
var ErrBadTask = errors.New("invalid task definition")

// Validate performs structural checks: chromatic complexes of matching
// color counts.
func (t *Task) Validate() error {
	if t.Input == nil || t.Output == nil {
		return fmt.Errorf("%w: missing complex", ErrBadTask)
	}
	if t.Input.Colors() != t.N || t.Output.Colors() != t.N {
		return fmt.Errorf("%w: color counts differ", ErrBadTask)
	}
	if !t.Input.IsChromatic() || !t.Output.IsChromatic() {
		return fmt.Errorf("%w: complexes must be chromatic", ErrBadTask)
	}
	if t.VertexAllowed == nil || t.SimplexAllowed == nil {
		return fmt.Errorf("%w: Δ not provided", ErrBadTask)
	}
	return nil
}

// StandardInput returns the standard (n-1)-simplex as an input complex:
// vertex i (color i) is process p_{i+1} with its fixed distinct input.
func StandardInput(n int) *sc.Complex {
	c := sc.NewComplex(n)
	ids := make([]sc.VertexID, n)
	for i := 0; i < n; i++ {
		ids[i] = sc.VertexID(i)
		// Errors impossible: colors in range by construction.
		_ = c.AddVertex(ids[i], i, fmt.Sprintf("%v:in=%d", procs.ID(i), i))
	}
	_ = c.AddSimplex(ids...)
	return c
}

// outVertexID encodes the output vertex (color, value) for an n-process
// value domain.
func outVertexID(n, color, value int) sc.VertexID {
	return sc.VertexID(color*n + value)
}

// KSetConsensus builds the k-set consensus task with distinct inputs:
// process p_i proposes value i; outputs are proposals of participating
// processes with at most k distinct values overall. This "simplex
// agreement flavored" instance is the standard one used in topological
// arguments; its solvability in a model M is equivalent to general
// k-set consensus solvability in M.
func KSetConsensus(n, k int) *Task {
	out := sc.NewComplex(n)
	for c := 0; c < n; c++ {
		for v := 0; v < n; v++ {
			_ = out.AddVertex(outVertexID(n, c, v), c, fmt.Sprintf("%v:dec=%d", procs.ID(c), v))
		}
	}
	// Facets: total assignments with at most k distinct values.
	var rec func(assign []int, pos int)
	rec = func(assign []int, pos int) {
		if pos == n {
			distinct := map[int]bool{}
			for _, v := range assign {
				distinct[v] = true
			}
			if len(distinct) <= k {
				ids := make([]sc.VertexID, n)
				for c, v := range assign {
					ids[c] = outVertexID(n, c, v)
				}
				_ = out.AddSimplex(ids...)
			}
			return
		}
		for v := 0; v < n; v++ {
			assign[pos] = v
			rec(assign, pos+1)
		}
	}
	rec(make([]int, n), 0)

	input := StandardInput(n)
	value := func(o sc.VertexID) int { return int(o) % n }
	return &Task{
		Name:   fmt.Sprintf("%d-set-consensus(n=%d)", k, n),
		N:      n,
		Input:  input,
		Output: out,
		VertexAllowed: func(carrier sc.Simplex, o sc.VertexID) bool {
			// Validity: the decided value is the input of a process in
			// the carrier (inputs are the vertex ids of I).
			return carrier.Contains(sc.VertexID(value(o)))
		},
		SimplexAllowed: func(_ sc.Simplex, img sc.Simplex) bool {
			distinct := map[int]bool{}
			for _, o := range img {
				distinct[value(o)] = true
			}
			return len(distinct) <= k
		},
	}
}

// Consensus is 1-set consensus.
func Consensus(n int) *Task {
	t := KSetConsensus(n, 1)
	t.Name = fmt.Sprintf("consensus(n=%d)", n)
	return t
}

// TrivialIdentity is the task in which every process must output its own
// input — solvable in every model without communication; used as a
// positive control for the solver.
func TrivialIdentity(n int) *Task {
	input := StandardInput(n)
	out := StandardInput(n)
	return &Task{
		Name:   fmt.Sprintf("identity(n=%d)", n),
		N:      n,
		Input:  input,
		Output: out,
		VertexAllowed: func(_ sc.Simplex, _ sc.VertexID) bool {
			return true
		},
		SimplexAllowed: func(_ sc.Simplex, _ sc.Simplex) bool { return true },
	}
}
