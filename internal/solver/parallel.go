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

// winnerState tracks the lowest branch index that found a witness or
// exhausted its node budget.
type winnerState struct {
	idx atomic.Int64
}

func newWinnerState(n int) *winnerState {
	w := &winnerState{}
	w.idx.Store(int64(n))
	return w
}

// beaten reports whether a lower-indexed branch has already decided the
// result.
func (w *winnerState) beaten(branch int) bool {
	return w.idx.Load() < int64(branch)
}

// record lowers the winner index to branch if it improves it.
func (w *winnerState) record(branch int) {
	for {
		cur := w.idx.Load()
		if int64(branch) >= cur || w.idx.CompareAndSwap(cur, int64(branch)) {
			return
		}
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

// searchParallel fans the frontier out over the worker pool and returns
// the lowest-indexed witness assignment — the serial search's answer.
func searchParallel(ctx *searchCtx, root *branch, workers int) ([]sc.VertexID, bool, error) {
	frontier := expandFrontier(ctx, root, workers*branchFactor)
	if len(frontier) == 0 {
		return nil, false, nil
	}
	type outcome struct {
		assign []sc.VertexID
		ok     bool
		err    error
	}
	results := make([]outcome, len(frontier))
	winner := newWinnerState(len(frontier))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				if winner.beaten(i) {
					continue
				}
				br := frontier[i]
				if br.solved {
					results[i] = outcome{assign: br.assign, ok: true}
					winner.record(i)
					continue
				}
				s := newSearcher(ctx, br)
				s.winner, s.branch = winner, i
				solved, err := s.solve()
				switch {
				case err == errCancelled:
					// A lower-indexed branch decided; this subtree is moot.
				case err != nil:
					results[i] = outcome{err: err}
					winner.record(i)
				case solved:
					results[i] = outcome{assign: s.assign, ok: true}
					winner.record(i)
				}
			}
		}()
	}
	wg.Wait()
	// Scan in serial visit order: an error before the first witness is
	// what the serial search would have hit first.
	for i := range results {
		if results[i].err != nil {
			return nil, false, results[i].err
		}
		if results[i].ok {
			return results[i].assign, true, nil
		}
	}
	return nil, false, nil
}
