package par

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ w, want int }{{-1, procs}, {0, procs}, {1, 1}, {3, 3}, {64, 64}} {
		if got := Workers(c.w); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.w, got, c.want)
		}
	}
}

// TestForCallsEveryIndexOnce checks the contract over a grid of sizes
// and worker counts. calls and perWorker are written without atomics:
// under -race, a second call for one index, a worker id shared by two
// goroutines, or a return before the last call finished is a reported
// race as well as a wrong count.
func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, n + 5} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				bound := min(Workers(workers), n)
				calls := make([]int, n)
				perWorker := make([]int, Workers(workers))
				For(n, workers, func(worker, i int) {
					if worker < 0 || worker >= bound {
						t.Errorf("index %d got worker id %d, outside [0, %d)", i, worker, bound)
						return
					}
					calls[i]++
					perWorker[worker]++
				})
				for i, c := range calls {
					if c != 1 {
						t.Fatalf("index %d called %d times", i, c)
					}
				}
				total := 0
				for _, c := range perWorker {
					total += c
				}
				if total != n {
					t.Fatalf("per-worker counts sum to %d, want %d", total, n)
				}
			})
		}
	}
}

// TestForOneWorkerRunsInline: with one resolved worker, or at most one
// index, f runs on the caller's goroutine in index order.
func TestForOneWorkerRunsInline(t *testing.T) {
	caller := goroutineID()
	for _, c := range []struct{ n, workers int }{{0, 1}, {1, 1}, {7, 1}, {1000, 1}, {1, 8}, {1, 0}} {
		var order []int
		For(c.n, c.workers, func(worker, i int) {
			if id := goroutineID(); id != caller || worker != 0 {
				t.Errorf("n=%d workers=%d: index %d ran as worker %d on goroutine %d, want worker 0 on the caller's %d",
					c.n, c.workers, i, worker, id, caller)
			}
			order = append(order, i)
		})
		if len(order) != c.n {
			t.Fatalf("n=%d workers=%d: %d calls", c.n, c.workers, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: call %d was index %d, want index order", c.n, c.workers, i, got)
			}
		}
	}
}

// goroutineID reads the current goroutine's id from the first line of
// its stack trace, "goroutine N [running]:".
func goroutineID() uint64 {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line = bytes.TrimPrefix(line, []byte("goroutine "))
	id, err := strconv.ParseUint(string(line[:bytes.IndexByte(line, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}
