package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/adversary"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of %v = %g, want %g", c.p, xs, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{10000, 99.9, true}, // 10 beyond rank 9990
		{9999, 99, true},    // p99.9 leaves 9
		{1000, 99, true},    // 10 beyond rank 990
		{999, 95, true},     // p99 leaves 9
		{200, 95, true},     // 10 beyond rank 190
		{100, 90, true},
		{20, 50, true},
		{19, 0, false}, // even the median leaves 9
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, ok := tail(xs)
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: tail at p%g (ok %v), want p%g (ok %v)", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if ok {
			if beyond := c.n - int(v); beyond < 10 {
				t.Errorf("n=%d: tail %g has %d samples beyond it", c.n, v, beyond)
			}
		}
	}
	l := summarize([]float64{3, 1, 2})
	if l.N != 3 || l.P50 != 2 || l.TailP != 100 || l.Tail != 3 {
		t.Errorf("summarize of 3 samples = %+v, want n=3 p50=2 and the maximum at p100", l)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v = %g, want 2.5", xs, got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5,1,3 = %g, want 3", got)
	}
}

// ms builds a span over [lo, hi) milliseconds.
func ms(name string, parent, lo, hi int) span {
	return span{name: name, parent: parent, calls: 1,
		start: time.Duration(lo) * time.Millisecond, end: time.Duration(hi) * time.Millisecond}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		ms("root", -1, 0, 100),
		ms("a", 0, 10, 40),
		ms("b", 0, 30, 60), // overlaps a: the union 10..60 counts once
		ms("a.child", 1, 15, 20),
		ms("c", 0, 90, 120), // runs past its parent: clipped to 90..100
	}
	want := []time.Duration{40, 25, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i]*time.Millisecond)
		}
	}
	// Self times of a serial tree, every child inside its parent, sum to
	// the root's duration.
	serial := []span{
		ms("root", -1, 0, 100),
		ms("a", 0, 10, 40),
		ms("a.child", 1, 15, 20),
		ms("b", 0, 50, 60),
	}
	var sum time.Duration
	for _, d := range selfTimes(serial) {
		sum += d
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestAggregateAndUnattributed(t *testing.T) {
	spans := []span{
		ms("census.sweep_range", -1, 0, 50),
		ms("adversary.classify", 0, 0, 20),
		ms("adversary.classify", -1, 50, 90),
	}
	spans[0].alloc, spans[1].alloc, spans[2].alloc = 300, 100, 50
	spans[2].calls = 4096
	ops := aggregate(spans)
	cl := ops["adversary.classify"]
	if cl.calls != 4097 || len(cl.durs) != 2 || cl.busy != 60*time.Millisecond || cl.alloc != 150 {
		t.Errorf("classify stats = %+v, want 4097 calls in 2 spans, 60ms busy, 150 bytes", cl)
	}
	sw := ops["census.sweep_range"]
	if sw.busy != 30*time.Millisecond || sw.alloc != 200 {
		t.Errorf("sweep_range self = %v and %d bytes, want 30ms and 200", sw.busy, sw.alloc)
	}
	if got := unattributed(spans, 100*time.Millisecond); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unattributed = %g, want 0.1 (90ms of spans in a 100ms lane)", got)
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	off := newTracer(false, true)
	if id := off.begin("x.y", -1, 1); id != -1 {
		t.Fatalf("disabled tracer returned span %d", id)
	}
	off.end(-1)
	if spans, _ := off.recorded(); len(spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(spans))
	}
	on := newTracer(true, true)
	wall, err := on.lane(func() error {
		outer := on.begin("x.outer", -1, 1)
		inner := on.begin("x.inner", outer, 1)
		sink = make([]byte, 1<<20)
		on.end(inner)
		on.end(outer)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spans, lanes := on.recorded()
	if len(spans) != 2 || spans[1].parent != 0 || lanes != wall {
		t.Fatalf("recorded %+v over %v of lanes, want two nested spans over %v", spans, lanes, wall)
	}
	if spans[1].alloc < 1<<20 {
		t.Errorf("inner span allocated %d bytes, want at least 1 MiB", spans[1].alloc)
	}
}

var sink []byte

func TestWriteAmp(t *testing.T) {
	// Each merge rewrites the whole store: three merges growing it by a
	// third each write 100+200+300 bytes for a 300-byte store.
	if got := writeAmp([]int64{100, 200, 300}, 300); got != 2 {
		t.Errorf("write_amp = %g, want 2", got)
	}
	if got := writeAmp([]int64{300}, 300); got != 1 {
		t.Errorf("one merge: write_amp = %g, want 1", got)
	}
	if got := writeAmp(nil, 0); got != 0 {
		t.Errorf("empty store: write_amp = %g, want 0", got)
	}
}

func TestGenRequestsSeeded(t *testing.T) {
	a := genRequests(7, serveRequests, ingestWindow)
	b := genRequests(7, serveRequests, ingestWindow)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if reflect.DeepEqual(a, genRequests(8, serveRequests, ingestWindow)) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

func TestGenRequestsMix(t *testing.T) {
	const count = 1000
	reqs := genRequests(3, count, ingestWindow)
	if len(reqs) != count {
		t.Fatalf("%d requests, want %d", len(reqs), count)
	}
	var groups [numGroups]int
	orbits := adversary.NewOrbits(coldN)
	misses := make(map[uint64]bool)
	for _, q := range reqs {
		groups[q.group]++
		want := 1
		if q.batch() {
			want = batchSize
		}
		if len(q.indices) != want {
			t.Fatalf("%s request with %d indices, want %d", groupNames[q.group], len(q.indices), want)
		}
		for _, idx := range q.indices {
			switch {
			case !q.cold() && idx >= adversary.CensusSize(hotN):
				t.Fatalf("hot index %d outside the n=4 domain", idx)
			case q.cold() && idx >= ingestWindow:
				if q.group != coldGet || !orbits.IsCanonical(idx) || misses[idx] {
					t.Fatalf("index %d past the cold window in a %s request (canonical %v, repeated %v)",
						idx, groupNames[q.group], orbits.IsCanonical(idx), misses[idx])
				}
				misses[idx] = true
			}
		}
	}
	// 75 % single GETs and 25 % batches, half of each to either mount,
	// and 0.5 % of cold GETs past the window.
	if want := [numGroups]int{hotGet: 375, hotBatch: 125, coldGet: 375, coldBatch: 125}; groups != want {
		t.Errorf("group counts %v, want %v", groups, want)
	}
	if len(misses) != 2 || countMisses(reqs) != 2 {
		t.Errorf("%d distinct misses (%d counted), want round(0.005 × 375) = 2", len(misses), countMisses(reqs))
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, command prints %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the command's catalogue:\n%+v\n%+v", spec.PerLayer, perLayer())
	}
}
