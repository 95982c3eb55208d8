package main

// Span recording for the traced run. Spans come from the benchmark's own
// code, placed around each call it makes into a layer of the pipeline;
// nothing inside the program is instrumented. A span's self time is its
// duration minus the part of its interval that its child spans cover,
// so per-layer busy times add up without counting nested calls twice.

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one recorded call (or batch of calls) into a layer.
type span struct {
	name       string // "<layer>.<op>"
	parent     int    // index of the parent span; -1 for a root span
	start, end time.Duration
	calls      int    // layer calls the span covers: 1 unless batched
	alloc      uint64 // heap bytes allocated while the span was open
}

// tracer records spans in memory. A disabled tracer records nothing, so
// the same replay code runs traced and untraced and the difference in
// wall time is the tracing overhead.
type tracer struct {
	on     bool
	allocs bool // read the heap allocation counter at span boundaries
	epoch  time.Time

	mu     sync.Mutex
	spans  []span
	lanes  time.Duration // summed wall time of the traced lanes
	sample []metrics.Sample
}

// newTracer returns a tracer. allocs should be set only where spans
// open and close on one goroutine at a time: the allocation counter is
// process-wide.
func newTracer(on, allocs bool) *tracer {
	return &tracer{
		on:     on,
		allocs: allocs,
		epoch:  time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heapAllocs reads the cumulative heap allocation counter. Callers hold
// t.mu.
func (t *tracer) heapAllocs() uint64 {
	if !t.allocs {
		return 0
	}
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span covering calls layer calls under parent (-1 for a
// root span) and returns its id. A disabled tracer returns -1.
func (t *tracer) begin(name string, parent, calls int) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name:   name,
		parent: parent,
		calls:  calls,
		alloc:  t.heapAllocs(),
		start:  time.Since(t.epoch),
	})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	s.alloc = t.heapAllocs() - s.alloc
}

// lane runs f as one traced lane: a stretch of wall time on one
// goroutine that the lane's spans should cover. The summed lane time is
// the denominator of the unattributed share.
func (t *tracer) lane(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	t.addLane(d)
	return d, err
}

// addLane records the wall time of a lane timed by the caller.
func (t *tracer) addLane(d time.Duration) {
	t.mu.Lock()
	t.lanes += d
	t.mu.Unlock()
}

// recorded returns a copy of the spans and the summed lane time.
func (t *tracer) recorded() ([]span, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.lanes
}

// alternate runs replay untraced, traced, traced and untraced, each from
// a collected heap; alternating cancels drift such as caches warming over
// the run. The first traced replay records into rec, the second into a
// tracer that is dropped. replay returns the wall time of its lane. The
// result is the traced wall time over the untraced, minus one.
func alternate(rec *tracer, replay func(tr *tracer, i int) (time.Duration, error)) (float64, error) {
	var off, on time.Duration
	for i, traced := range []bool{false, true, true, false} {
		tr := newTracer(false, false)
		switch {
		case traced && i == 1:
			tr = rec
		case traced:
			tr = newTracer(true, rec.allocs)
		}
		runtime.GC()
		wall, err := replay(tr, i)
		if err != nil {
			return 0, err
		}
		if traced {
			on += wall
		} else {
			off += wall
		}
	}
	return on.Seconds()/off.Seconds() - 1, nil
}

// selfTimes returns, per span, its duration minus the union of its
// children's intervals clipped to its own.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type interval struct{ lo, hi time.Duration }
		var ivs []interval
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		for _, iv := range ivs {
			lo := max(iv.lo, reach)
			if iv.hi > lo {
				covered += iv.hi - lo
			}
			reach = max(reach, iv.hi)
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// opStats aggregates the spans of one "<layer>.<op>" name.
type opStats struct {
	calls int
	busy  time.Duration // summed self time
	alloc uint64        // summed self allocation
	durs  []float64     // each span's full duration, in seconds
}

// aggregate folds spans into per-name statistics. Self allocation is a
// span's allocation minus its children's, which holds for spans that
// open and close on one goroutine.
func aggregate(spans []span) map[string]*opStats {
	self := selfTimes(spans)
	childAlloc := make([]uint64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childAlloc[s.parent] += s.alloc
		}
	}
	ops := make(map[string]*opStats)
	for i, s := range spans {
		st := ops[s.name]
		if st == nil {
			st = &opStats{}
			ops[s.name] = st
		}
		st.calls += s.calls
		st.busy += self[i]
		if s.alloc > childAlloc[i] {
			st.alloc += s.alloc - childAlloc[i]
		}
		st.durs = append(st.durs, (s.end - s.start).Seconds())
	}
	return ops
}

// unattributed returns the share of the lanes' wall time that no span's
// self time accounts for: 1 − Σ self ÷ Σ lane wall.
func unattributed(spans []span, lanes time.Duration) float64 {
	if lanes <= 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		sum += d
	}
	return 1 - sum.Seconds()/lanes.Seconds()
}
