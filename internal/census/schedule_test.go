package census

import (
	"bytes"
	"path/filepath"
	"testing"
)

// makeBlocks builds sequential test blocks whose weight is the given
// per-block total (one representative carrying the whole weight).
func makeBlocks(weights ...uint64) []orbitBlock {
	out := make([]orbitBlock, len(weights))
	for i, w := range weights {
		out[i] = orbitBlock{seq: uint64(i), reps: []canonRep{{idx: uint64(i), size: w}}}
	}
	return out
}

// runScheduler feeds the blocks through scheduleBigOrbitFirst with the
// given lookahead and returns the dispatch order (sequence numbers).
func runScheduler(t *testing.T, blocks []orbitBlock, lookahead uint64) []uint64 {
	t.Helper()
	in := make(chan orbitBlock)
	out := make(chan orbitBlock)
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		defer close(in)
		for _, b := range blocks {
			in <- b
		}
	}()
	go scheduleBigOrbitFirst(in, out, quit, lookahead)
	var order []uint64
	for b := range out {
		order = append(order, b.seq)
	}
	return order
}

// TestScheduleBigOrbitFirstOrder pins the dispatch policy: within the
// lookahead the heaviest block goes first, ties break to the lower
// sequence number, and every block is dispatched exactly once.
func TestScheduleBigOrbitFirstOrder(t *testing.T) {
	order := runScheduler(t, makeBlocks(1, 5, 3, 5, 2, 9), 6)
	want := []uint64{5, 1, 3, 2, 4, 0}
	if len(order) != len(want) {
		t.Fatalf("dispatched %d blocks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestScheduleBigOrbitFirstLookahead pins the liveness invariant: no
// block is dispatched once its sequence number would run `lookahead` or
// more past the lowest still-undispatched one — the bound that keeps
// every scheduled worker inside the emitter's reorder window.
func TestScheduleBigOrbitFirstLookahead(t *testing.T) {
	const lookahead = 4
	// Block 0 is the lightest everywhere: without the sequence-window
	// bound the scheduler would defer it indefinitely.
	weights := make([]uint64, 32)
	for i := range weights {
		weights[i] = uint64(2 + i%7)
	}
	weights[0] = 1
	order := runScheduler(t, makeBlocks(weights...), lookahead)
	if len(order) != len(weights) {
		t.Fatalf("dispatched %d blocks, want %d", len(order), len(weights))
	}
	dispatched := make([]bool, len(weights))
	lowest := uint64(0)
	for _, s := range order {
		if s >= lowest+lookahead {
			t.Fatalf("dispatched seq %d with lowest undispatched %d (lookahead %d)", s, lowest, lookahead)
		}
		if dispatched[s] {
			t.Fatalf("seq %d dispatched twice", s)
		}
		dispatched[s] = true
		for int(lowest) < len(dispatched) && dispatched[lowest] {
			lowest++
		}
	}
}

// TestOrbitSolveScheduledByteIdentical is the big-orbit-first
// acceptance test: solve-mode orbit sweeps — the only mode that runs
// through the scheduler — produce byte-identical streams at one worker
// and at eight, and match the scheduler-free classify-shaped totals.
func TestOrbitSolveScheduledByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := func(workers int) Options {
		return Options{Orbits: true, Task: "kset:k=1", MaxRounds: 1, Workers: workers, ShardSize: 2}
	}
	w1 := filepath.Join(dir, "w1.jsonl")
	w8 := filepath.Join(dir, "w8.jsonl")
	rep1 := runJSONL(t, 3, opts(1), w1)
	rep8 := runJSONL(t, 3, opts(8), w8)
	if !bytes.Equal(readFile(t, w1), readFile(t, w8)) {
		t.Fatal("scheduled solve-mode orbit stream differs between 1 and 8 workers")
	}
	if rep1.Summary.Total != rep8.Summary.Total ||
		rep1.Summary.Solved != rep8.Summary.Solved ||
		rep1.Summary.Solvable != rep8.Summary.Solvable ||
		rep1.Summary.Orbits != rep8.Summary.Orbits {
		t.Fatalf("scheduled solve summaries differ: %+v vs %+v", rep1.Summary, rep8.Summary)
	}
}
