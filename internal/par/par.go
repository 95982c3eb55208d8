// Package par is the FACT decision path's one index fan-out: For splits
// n independent indices over a bounded set of goroutines, and Workers
// is the one rule that resolves how many.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker count: w ≤ 0 selects one worker per
// available CPU, runtime.GOMAXPROCS(0); any other w is returned as is.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// For calls f(worker, i) exactly once for every i in [0, n) and returns
// after the last call has returned.
//
// When Workers(workers) is 1 or n ≤ 1, f runs on the calling goroutine
// in increasing index order and no goroutine starts. Otherwise
// min(Workers(workers), n) goroutines take increasing indices from one
// shared cursor. worker names the calling goroutine and lies in
// [0, that count), so f may keep per-worker state in a slice indexed by
// it without further synchronisation. Calls for different indices may
// then run concurrently; f makes its own early exits, for example by
// returning at once for indices it no longer needs.
func For(n, workers int, f func(worker, i int)) {
	w := min(Workers(workers), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for worker := range w {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(worker, i)
			}
		}()
	}
	wg.Wait()
}
