package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/tasks"
)

// newTestServer builds a server over a store merged from one shard.
func newTestServer(t *testing.T, n int, shardOpts census.Options, srvOpts ServerOptions) (*Server, *Store) {
	t.Helper()
	dir := t.TempDir()
	shard, _ := censusJSONL(t, dir, "shard.jsonl", n, shardOpts)
	st, err := Create(filepath.Join(dir, "store"), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := st.Merge([]string{shard}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	return registryServer(t, st, srvOpts), st
}

// registryServer mounts one store in a fresh registry and builds the
// serving layer over it — the canonical construction path.
func registryServer(tb testing.TB, st *Store, srvOpts ServerOptions) *Server {
	tb.Helper()
	reg := NewRegistry()
	if err := reg.Mount("store", st); err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(reg, srvOpts)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeClassifyMatchesCensus: every /v1/classify answer — whether
// served from the store, rehydrated from an orbit representative, or
// computed live — equals the direct census entry byte-for-byte.
func TestServeClassifyMatchesCensus(t *testing.T) {
	srv, _ := newTestServer(t, 3, census.Options{Workers: 1, Orbits: true}, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := census.Run(3, census.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]int{}
	for i := range rep.Entries {
		want := &rep.Entries[i]
		var got classifyResponse
		code := getJSON(t, fmt.Sprintf("%s/v1/classify?n=3&index=%d", ts.URL, want.Index), &got)
		if code != http.StatusOK {
			t.Fatalf("classify %d: HTTP %d", want.Index, code)
		}
		if mustJSON(t, got.Entry) != mustJSON(t, want) {
			t.Fatalf("index %d (%s): served %s != census %s",
				want.Index, got.Source, mustJSON(t, got.Entry), mustJSON(t, want))
		}
		sources[got.Source]++
	}
	if sources["store"] == 0 || sources["store-rehydrated"] == 0 {
		t.Errorf("expected both direct and rehydrated answers, got %v", sources)
	}
}

// TestServeSummaryMatchesCensus: /v1/summary over a full-sweep store
// equals the census summary exactly.
func TestServeSummaryMatchesCensus(t *testing.T) {
	srv, _ := newTestServer(t, 3, census.Options{Workers: 1}, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := census.Run(3, census.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got summaryResponse
	if code := getJSON(t, ts.URL+"/v1/summary?n=3", &got); code != http.StatusOK {
		t.Fatalf("summary: HTTP %d", code)
	}
	if mustJSON(t, got.Summary) != mustJSON(t, rep.Summary) {
		t.Errorf("served summary %s != census %s", mustJSON(t, got.Summary), mustJSON(t, rep.Summary))
	}
	if got.Store.Entries != uint64(len(rep.Entries)) {
		t.Errorf("store stats report %d entries, want %d", got.Store.Entries, len(rep.Entries))
	}
}

// TestServeMissComputesAndPersists pins the acceptance criterion: a
// query the store cannot answer falls back to live computation and the
// answer lands durably in the store — a fresh server over the same
// store answers it without computing.
func TestServeMissComputesAndPersists(t *testing.T) {
	// A partial orbit sweep: the first 64 indices only, so most of the
	// domain misses.
	srv, st := newTestServer(t, 3,
		census.Options{Workers: 1, Orbits: true, ShardSize: 16, MaxIndices: 64},
		ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := census.Run(3, census.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Index 100 is beyond the swept frontier: must be computed live.
	want := &rep.Entries[100]
	var got classifyResponse
	getJSON(t, ts.URL+"/v1/classify?n=3&index=100", &got)
	if got.Source != "computed" {
		t.Fatalf("expected a live-computed answer, got source %q", got.Source)
	}
	if mustJSON(t, got.Entry) != mustJSON(t, want) {
		t.Fatalf("computed %s != census %s", mustJSON(t, got.Entry), mustJSON(t, want))
	}
	// Second query: the entry LRU answers.
	getJSON(t, ts.URL+"/v1/classify?n=3&index=100", &got)
	if got.Source != "cache" {
		t.Errorf("second query source %q, want cache", got.Source)
	}

	// A fresh server over the same store must find the persisted
	// answer without recomputing (the write-back stored the canonical
	// representative, so index 100 resolves through its orbit).
	srv2 := registryServer(t, st, ServerOptions{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	getJSON(t, ts2.URL+"/v1/classify?n=3&index=100", &got)
	if got.Source != "store" && got.Source != "store-rehydrated" {
		t.Fatalf("persisted answer not found by fresh server: source %q", got.Source)
	}
	if mustJSON(t, got.Entry) != mustJSON(t, want) {
		t.Fatalf("persisted %s != census %s", mustJSON(t, got.Entry), mustJSON(t, want))
	}
}

// TestServeSolve drives the live /v1/solve path: the 1-obstruction-free
// adversary at n=3 has setcon 1, so 1-set consensus is solvable.
func TestServeSolve(t *testing.T) {
	srv, _ := newTestServer(t, 3, census.Options{Workers: 1}, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Find the 1-OF adversary's enumeration index: live sets = all
	// singletons, masks {1, 2, 4} → index bits of the first three
	// domain positions... resolved robustly via the census entries.
	rep, err := census.Run(3, census.Options{Workers: 1, Solve: true})
	if err != nil {
		t.Fatal(err)
	}
	var idx uint64
	found := false
	for i := range rep.Entries {
		e := &rep.Entries[i]
		if e.Fair && e.Setcon == 1 && e.Solved && e.Solvable != nil && *e.Solvable {
			idx, found = e.Index, true
			break
		}
	}
	if !found {
		t.Fatal("no solvable setcon-1 adversary in the n=3 census")
	}
	var got solveResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/solve?n=3&index=%d&ktask=1", ts.URL, idx), &got); code != http.StatusOK {
		t.Fatalf("solve: HTTP %d", code)
	}
	if got.Solvable == nil || !*got.Solvable {
		t.Fatalf("solve response %+v: want solvable", got)
	}
}

// TestServeSolveExaminerKept: /v1/solve builds one examiner per (n,
// task, rounds), so a repeated request reuses the first one's, and
// both answer byte-identically.
func TestServeSolveExaminerKept(t *testing.T) {
	srv, _ := newTestServer(t, 3, census.Options{Workers: 1}, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec, err := tasks.ParseSpec("simplex-agreement")
	if err != nil {
		t.Fatal(err)
	}
	key := solveKey{n: 3, spec: spec.String(), rounds: 1}
	var bodies [2][]byte
	var kept *census.Examiner
	for i := range bodies {
		resp, err := http.Get(ts.URL + "/v1/solve?n=3&index=100&task=simplex-agreement")
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d, %v: %s", i, resp.StatusCode, err, bodies[i])
		}
		srv.solversMu.Lock()
		ex, built := srv.solvers[key], len(srv.solvers)
		srv.solversMu.Unlock()
		if ex == nil || built != 1 || (kept != nil && ex != kept) {
			t.Fatalf("after request %d: %d examiners kept, key's %p, first %p", i, built, ex, kept)
		}
		kept = ex
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("repeated solve answered differently:\n%s\n%s", bodies[0], bodies[1])
	}
	var got solveResponse
	if err := json.Unmarshal(bodies[0], &got); err != nil || !got.Solved || got.Task != spec.String() {
		t.Fatalf("solve response %s (%v): want a decided %s", bodies[0], err, spec)
	}
}

// TestServeBadRequests: parameter validation covers n mismatch, missing
// and out-of-domain indices, and non-GET methods.
func TestServeBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, 3, census.Options{Workers: 1}, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/classify?n=4&index=0", http.StatusNotFound}, // n not mounted
		{"/v1/classify?index=0", http.StatusBadRequest},   // missing n
		{"/v1/classify?n=3", http.StatusBadRequest},       // missing index
		{"/v1/classify?n=3&index=128", http.StatusBadRequest},
		{"/v1/solve?n=3&index=0&ktask=9", http.StatusBadRequest},
		{"/v1/solve?n=3&index=0&rounds=99", http.StatusBadRequest},
		{"/v1/summary?n=2", http.StatusNotFound}, // n not mounted
		{"/v1/entries?n=3&from=5&to=1", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error struct {
				Code      int    `json:"code"`
				Message   string `json:"message"`
				RequestID string `json:"request_id"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: HTTP %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
		if err != nil || env.Error.Code != tc.want || env.Error.Message == "" || env.Error.RequestID == "" {
			t.Errorf("GET %s: bad error envelope (err %v): %+v", tc.url, err, env)
		}
		if got := resp.Header.Get("X-Request-Id"); got != env.Error.RequestID {
			t.Errorf("GET %s: X-Request-Id header %q != envelope request_id %q", tc.url, got, env.Error.RequestID)
		}
	}
	// POST is the batch form now — a non-JSON body is a 400, and the
	// unsupported method on an endpoint stays 405.
	resp, err := http.Post(ts.URL+"/v1/classify", "text/plain", strings.NewReader("nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST classify (bad body): HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/summary?n=3", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST summary: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestServeConcurrent hammers the handler from many goroutines across
// hits, rehydrations, misses (with write-back) and summaries — the
// -race correctness satellite.
func TestServeConcurrent(t *testing.T) {
	srv, _ := newTestServer(t, 3,
		census.Options{Workers: 1, Orbits: true, ShardSize: 16, MaxIndices: 64},
		ServerOptions{CacheEntries: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := census.Run(3, census.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Serial kset:k=K verdicts of the even indices the workers query.
	// Index 127, whose k=2 search runs to the node limit, is odd.
	verdict := func(solvable *bool, undecided bool) string {
		if solvable == nil {
			return fmt.Sprintf("solvable=nil undecided=%v", undecided)
		}
		return fmt.Sprintf("solvable=%v undecided=%v", *solvable, undecided)
	}
	var want [4][128]string
	for k := 1; k <= 3; k++ {
		x, err := census.NewExaminer(3, census.Options{Task: fmt.Sprintf("kset:k=%d", k)})
		if err != nil {
			t.Fatal(err)
		}
		for idx := uint64(0); idx < 128; idx += 2 {
			e, err := x.Examine(idx)
			if err != nil {
				t.Fatal(err)
			}
			want[k][idx] = verdict(e.Solvable, e.Undecided)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				idx := uint64((i*workers + w) * 2 % 128)
				// Live decisions share the server's one TowerCache.
				for k := 1; k <= 3; k++ {
					var got solveResponse
					resp, err := http.Get(fmt.Sprintf("%s/v1/solve?n=3&index=%d&ktask=%d", ts.URL, idx, k))
					if err != nil {
						errs <- err
						return
					}
					if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
						resp.Body.Close()
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("solve index %d k=%d: status %d", idx, k, resp.StatusCode)
						return
					}
					if v := verdict(got.Solvable, got.Undecided); v != want[k][idx] {
						errs <- fmt.Errorf("solve index %d k=%d: %s, serial %s", idx, k, v, want[k][idx])
						return
					}
				}
				var got classifyResponse
				resp, err := http.Get(fmt.Sprintf("%s/v1/classify?n=3&index=%d", ts.URL, idx))
				if err != nil {
					errs <- err
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					resp.Body.Close()
					errs <- err
					return
				}
				resp.Body.Close()
				if mustJSON(t, got.Entry) != mustJSON(t, &rep.Entries[idx]) {
					errs <- fmt.Errorf("index %d: %s != %s", idx, mustJSON(t, got.Entry), mustJSON(t, &rep.Entries[idx]))
					return
				}
				if i%16 == 0 {
					var sum summaryResponse
					resp, err := http.Get(ts.URL + "/v1/summary?n=3")
					if err != nil {
						errs <- err
						return
					}
					if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
						resp.Body.Close()
						errs <- err
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
