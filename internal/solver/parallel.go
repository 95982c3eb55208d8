package solver

// Parallel map search. The backtracking tree is split at a deterministic
// frontier: the root branch is expanded — always replacing a branch by
// its children, in value order, in place — until there are enough
// independent subtrees to feed the worker pool. Workers then run the
// serial backtracker on each subtree. Because the frontier preserves the
// serial visit order and subtrees are disjoint, the lowest-indexed
// successful subtree holds exactly the witness the serial search would
// have returned first — so on instances decided within the node budget,
// decisions and witnesses are identical for every worker count. (The
// budget itself is per subtree, so an instance the serial budget cannot
// decide may still be decided when split — see Options.NodeLimit.) A
// branch is cancelled early once a lower-indexed branch has found a
// witness or exhausted its budget: the result is the first of those in
// serial order, so branches above either can never change it.

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sc"
)

// branchFactor scales the frontier target: workers * branchFactor
// subtrees give the pool headroom against uneven subtree sizes.
const branchFactor = 4

// branch is one node of the search frontier: a partial assignment with
// the forward-checked domains that remain under it, both indexed by
// VertexID.
type branch struct {
	assign  []sc.VertexID
	domains [][]sc.VertexID
	// solved marks a complete assignment discovered during expansion.
	solved bool
}

// clone copies the branch state. Domain value slices are shared: the
// searcher never writes them once set (pruning carves new ones).
func (b *branch) clone() *branch {
	return &branch{assign: slices.Clone(b.assign), domains: slices.Clone(b.domains)}
}

// winnerState tracks the lowest index that decided a fan-out's result —
// in the map search, the branch that found a witness or exhausted its
// node budget; in the witness check, the simplex of the first violation
// — and the error found there, nil for a witness.
type winnerState struct {
	idx atomic.Int64 // read lock-free by beaten
	mu  sync.Mutex   // serializes record
	err error
}

func newWinnerState(n int) *winnerState {
	w := &winnerState{}
	w.idx.Store(int64(n))
	return w
}

// beaten reports whether a lower index has already decided the result.
func (w *winnerState) beaten(i int) bool {
	return w.idx.Load() < int64(i)
}

// record lowers the winner index to i, with err as the outcome found
// there, if that improves it.
func (w *winnerState) record(i int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if int64(i) < w.idx.Load() {
		w.idx.Store(int64(i))
		w.err = err
	}
}

// expandBranch develops one branch: it picks the MRV variable and
// produces a child per surviving value, in value order — mirroring one
// level of the serial search. A branch with no unassigned variables is
// marked solved and gets no children.
func expandBranch(ctx *searchCtx, br *branch) []*branch {
	s := newSearcher(ctx, br)
	v, any := s.pickVar()
	if !any {
		br.solved = true
		return nil
	}
	var kids []*branch
	for _, o := range br.domains[v] {
		if !s.admits(v, o) {
			continue
		}
		child := br.clone()
		child.assign[v] = o
		if newSearcher(ctx, child).forwardCheck(v) {
			kids = append(kids, child)
		}
	}
	return kids
}

// expandFrontier grows the frontier from the root until it holds at
// least `target` branches (or nothing expandable remains). Expansion
// replaces a branch by its children in place, so the frontier always
// lists disjoint subtrees in serial visit order.
func expandFrontier(ctx *searchCtx, root *branch, target int) []*branch {
	frontier := []*branch{root}
	next := 0
	for len(frontier) < target {
		idx := -1
		for off := 0; off < len(frontier); off++ {
			j := (next + off) % len(frontier)
			if !frontier[j].solved {
				idx = j
				break
			}
		}
		if idx < 0 {
			break
		}
		br := frontier[idx]
		kids := expandBranch(ctx, br)
		if br.solved {
			next = idx + 1
			continue
		}
		spliced := make([]*branch, 0, len(frontier)-1+len(kids))
		spliced = append(spliced, frontier[:idx]...)
		spliced = append(spliced, kids...)
		spliced = append(spliced, frontier[idx+1:]...)
		frontier = spliced
		if len(frontier) == 0 {
			break
		}
		next = idx + len(kids)
	}
	return frontier
}

// searchParallel fans the frontier out through par.For and returns the
// lowest-indexed witness assignment — the serial search's answer.
func searchParallel(ctx *searchCtx, root *branch, workers int) ([]sc.VertexID, bool, error) {
	frontier := expandFrontier(ctx, root, workers*branchFactor)
	if len(frontier) == 0 {
		return nil, false, nil
	}
	witnesses := make([][]sc.VertexID, len(frontier))
	winner := newWinnerState(len(frontier))
	par.For(len(frontier), workers, func(_, i int) {
		if winner.beaten(i) {
			return
		}
		br := frontier[i]
		if br.solved {
			witnesses[i] = br.assign
			winner.record(i, nil)
			return
		}
		s := newSearcher(ctx, br)
		s.winner, s.branch = winner, i
		solved, err := s.solve()
		switch {
		case err == errCancelled:
			// A lower-indexed branch decided; this subtree is moot.
		case err != nil:
			winner.record(i, err)
		case solved:
			witnesses[i] = s.assign
			winner.record(i, nil)
		}
	})
	// The winner is the first branch, in serial visit order, to find a
	// witness or fail: an error before the first witness is what the
	// serial search would have hit first.
	i := int(winner.idx.Load())
	if i == len(frontier) {
		return nil, false, nil
	}
	if winner.err != nil {
		return nil, false, winner.err
	}
	return witnesses[i], true, nil
}
