package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRegistryOrderAndDuplicates(t *testing.T) {
	r := NewRegistry()
	a := NewCounter("aaa_total", "a")
	b := NewCounter("bbb_total", "b")
	r.MustRegister("b", b)
	r.MustRegister("a", a)
	if err := r.Register("a", a); err == nil {
		t.Fatal("duplicate name accepted")
	}
	a.Add(3)
	b.Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, "aaa_total 3\n") || !strings.Contains(out, "bbb_total 1\n") {
		t.Fatalf("missing samples:\n%s", out)
	}
	// Registration order, not name order, is exposition order.
	if strings.Index(out, "bbb_total") > strings.Index(out, "aaa_total") {
		t.Fatalf("exposition not in registration order:\n%s", out)
	}
	r.Unregister("b")
	buf.Reset()
	r.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "bbb_total") {
		t.Fatalf("unregistered collector still written:\n%s", buf.String())
	}
}

func TestRegistryInclude(t *testing.T) {
	shared := NewRegistry()
	shared.MustRegister("c", NewCounter("shared_total", "shared"))
	r1 := NewRegistry()
	r2 := NewRegistry()
	r1.Include(shared)
	r2.Include(shared) // two instances including one global must not collide
	var buf bytes.Buffer
	r1.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "shared_total 0") {
		t.Fatalf("included registry not written:\n%s", buf.String())
	}
}

func TestGaugeExposition(t *testing.T) {
	g := NewGauge("depth", "Window depth.")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge value = %d, want 5", g.Value())
	}
	var buf bytes.Buffer
	g.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "# TYPE depth gauge\ndepth 5\n") {
		t.Fatalf("bad gauge exposition:\n%s", buf.String())
	}
}

func TestTracerRingAndParents(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("root", 0, "kind", "test")
	child := tr.Start("child", root.ID())
	child.SetAttr("unit", "3")
	child.End()
	child.End() // double End records once
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Spans record at End: child first, then root.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, root id = %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Attrs["unit"] != "3" || spans[1].Attrs["kind"] != "test" {
		t.Fatalf("attrs lost: %v %v", spans[0].Attrs, spans[1].Attrs)
	}
	if spans[0].EndNS < spans[0].StartNS {
		t.Fatal("span ends before it starts")
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Start("s", 0).End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d, want 3", len(spans))
	}
	if tr.Recorded() != 5 {
		t.Fatalf("recorded = %d, want 5", tr.Recorded())
	}
	// Oldest first: ids 3, 4, 5 survive.
	if spans[0].ID != 3 || spans[2].ID != 5 {
		t.Fatalf("ring kept ids %d..%d, want 3..5", spans[0].ID, spans[2].ID)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", 0)
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	s.SetAttr("a", "b")
	s.End()
	if s.Child("y") != nil {
		t.Fatal("nil span returned non-nil child")
	}
	if s.ID() != 0 {
		t.Fatal("nil span has nonzero id")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer has spans: %v", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
}

func TestTracerJSONLExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr := NewTracer(8)
	if err := tr.ExportTo(path); err != nil {
		t.Fatal(err)
	}
	root := tr.Start("campaign", 0, "n", "4")
	tr.Start("lease", root.ID(), "unit", "0").End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sp)
	}
	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	if spans[0].Name != "lease" || spans[0].Parent != spans[1].ID {
		t.Fatalf("export lost nesting: %+v", spans)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.Start("w", 0)
				s.SetAttr("i", "1")
				s.End()
			}
		}()
	}
	wg.Wait()
	if tr.Recorded() != 400 {
		t.Fatalf("recorded = %d, want 400", tr.Recorded())
	}
}

func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter("debug_test_total", "x")
	c.Add(9)
	reg.MustRegister("c", c)
	tr := NewTracer(8)
	tr.Start("op", 0).End()
	mux := DebugMux(reg, tr)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "debug_test_total 9") {
		t.Fatalf("/metrics: %d %s", code, body)
	}
	if code, body := get("/debug/trace"); code != 200 || !strings.Contains(body, `"name":"op"`) {
		t.Fatalf("/debug/trace: %d %s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: %d %s", code, body)
	}
}

func TestStartDebug(t *testing.T) {
	addr, stop, err := StartDebug("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if addr == "" || !strings.Contains(addr, ":") {
		t.Fatalf("bad bound addr %q", addr)
	}
}

func TestDefaultRegistryRuntimeGauges(t *testing.T) {
	var buf bytes.Buffer
	Default.WritePrometheus(&buf)
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "process_uptime_seconds"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Default registry missing %s:\n%s", want, buf.String())
		}
	}
}
