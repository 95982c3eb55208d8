package store

// Range scans: ordered iteration over the stored entries of an index
// window, the substrate of the /v1/entries API. Blocks are inflated
// lazily in index order through the same cache point lookups use, and
// duplicate indices across overlapping blocks (PutNew appends beside
// merged ranges) fold to one line, so a scan sees exactly the store's
// logical entry sequence.

import (
	"bytes"
	"container/heap"
	"fmt"
)

// RangePage is one page of a range scan.
type RangePage struct {
	// Lines are copies of the raw stored JSON lines (no trailing
	// newline), in strictly increasing index order.
	Lines [][]byte
	// Indices[i] is the enumeration index of Lines[i].
	Indices []uint64
	// Next is the index to resume from; More reports whether entries
	// at Next and beyond may remain in [Next, to).
	Next uint64
	More bool
}

// Range returns up to limit stored entries with from <= index < to.
// limit <= 0 selects DefaultBlockEntries. The page's lines are copies:
// callers own them beyond the store's locks. A scan of an orbit store
// yields the stored canonical representatives (with their orbit
// sizes), not the rehydrated full domain.
func (s *Store) Range(from, to uint64, limit int) (RangePage, error) {
	if limit <= 0 {
		limit = DefaultBlockEntries
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	page := RangePage{Next: to}
	if from >= to || len(s.man.Blocks) == 0 {
		return page, nil
	}

	// Candidate blocks: those whose [First, Last] can intersect
	// [from, to). prefixMaxLast is monotone, so the first candidate is
	// a binary search; the last is bounded by First < to.
	blocks := s.man.Blocks
	lo, hi := 0, len(s.prefixMaxLast)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.prefixMaxLast[mid] < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}

	// Sweep candidates in index order: activate each block (inflate,
	// position its cursor) only once the scan reaches its First, pop
	// the smallest current index across active blocks. A page-limited
	// scan therefore inflates just the blocks it actually reads.
	var h scanHeap
	next := lo
	// activateOne admits the next candidate block, skipping those that
	// cannot intersect the window; false means no candidates remain.
	activateOne := func() (bool, error) {
		for next < len(blocks) && blocks[next].First < to {
			j := next
			next++
			if blocks[j].Last < from {
				continue
			}
			entries, err := s.parsedBlockLocked(j)
			if err != nil {
				return false, err
			}
			pos := 0
			for pos < len(entries) && entries[pos].idx < from {
				pos++
			}
			if pos < len(entries) && entries[pos].idx < to {
				heap.Push(&h, &scanCursor{entries: entries, pos: pos})
			}
			return true, nil
		}
		return false, nil
	}
	var last uint64
	var lastLine []byte
	haveLast := false
	for {
		if h.Len() == 0 {
			more, err := activateOne()
			if err != nil {
				return RangePage{}, err
			}
			if !more && h.Len() == 0 {
				break
			}
			continue
		}
		// Every block that could hold an entry below the current top
		// must be active before the top is emitted.
		for next < len(blocks) && blocks[next].First <= h[0].entries[h[0].pos].idx {
			if _, err := activateOne(); err != nil {
				return RangePage{}, err
			}
		}
		cur := h[0]
		be := cur.entries[cur.pos]
		cur.pos++
		if cur.pos < len(cur.entries) && cur.entries[cur.pos].idx < to {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		if haveLast && be.idx == last {
			// Duplicate across overlapping blocks: the store invariant
			// says the bytes agree (merge and PutNew both enforce it),
			// so disagreement here is corruption, not a choice.
			if !bytes.Equal(be.line, lastLine) {
				return RangePage{}, fmt.Errorf("%w: blocks disagree on index %d", ErrCorrupt, be.idx)
			}
			continue
		}
		if haveLast && be.idx < last {
			return RangePage{}, fmt.Errorf("%w: unordered scan at index %d", ErrCorrupt, be.idx)
		}
		if len(page.Lines) >= limit {
			// One entry beyond the page proves there is more.
			page.Next, page.More = be.idx, true
			return page, nil
		}
		page.Lines = append(page.Lines, append([]byte(nil), be.line...))
		page.Indices = append(page.Indices, be.idx)
		last, lastLine, haveLast = be.idx, be.line, true
	}
	return page, nil
}

type scanCursor struct {
	entries []blockEntry
	pos     int
}

type scanHeap []*scanCursor

func (h scanHeap) Len() int { return len(h) }
func (h scanHeap) Less(i, j int) bool {
	return h[i].entries[h[i].pos].idx < h[j].entries[h[j].pos].idx
}
func (h scanHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x any)   { *h = append(*h, x.(*scanCursor)) }
func (h *scanHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
