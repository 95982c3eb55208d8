package store

// Tests for the v1 serving layer redesign: multi-store registry
// routing, batch classify, range pagination, API-key auth and rate
// limiting, and graceful drain of in-flight requests.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/census"
)

// buildStore merges one census shard into a fresh store under dir.
func buildStore(t *testing.T, dir string, n int, opts census.Options) (*Store, []census.Entry) {
	t.Helper()
	shard, entries := censusJSONL(t, dir, fmt.Sprintf("shard-n%d.jsonl", n), n, opts)
	st, err := Create(filepath.Join(dir, fmt.Sprintf("store-n%d", n)), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := st.Merge([]string{shard}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	return st, entries
}

// newTwoMountServer builds a registry serving n=3 (full) and n=4
// (orbit-reduced, bounded sweep) from one process.
func newTwoMountServer(t *testing.T, srvOpts ServerOptions) (*Server, []census.Entry, []census.Entry) {
	t.Helper()
	dir := t.TempDir()
	st3, ent3 := buildStore(t, dir, 3, census.Options{Workers: 1})
	st4, ent4 := buildStore(t, dir, 4, census.Options{Workers: 1, Orbits: true, ShardSize: 64, MaxIndices: 256})
	reg := NewRegistry()
	if err := reg.Mount("n3", st3); err != nil {
		t.Fatal(err)
	}
	if err := reg.Mount("n4", st4); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(reg, srvOpts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ent3, ent4
}

// TestRegistryMounts: one mount per n is enforced, lookups route by n,
// and /v1/stores lists every mount.
func TestRegistryMounts(t *testing.T) {
	srv, _, ent4 := newTwoMountServer(t, ServerOptions{})

	// A second store of an already-mounted n is a configuration error.
	dir := t.TempDir()
	dup, err := Create(filepath.Join(dir, "dup"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	if err := srv.reg.Mount("dup", dup); err == nil {
		t.Fatal("mounting a second n=3 store succeeded")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var stores storesResponse
	if code := getJSON(t, ts.URL+"/v1/stores", &stores); code != http.StatusOK {
		t.Fatalf("stores: HTTP %d", code)
	}
	if len(stores.Stores) != 2 || stores.Stores[0].N != 3 || stores.Stores[1].N != 4 {
		t.Fatalf("stores = %+v, want n=3 and n=4", stores.Stores)
	}
	if stores.Stores[0].Kind != "full" || stores.Stores[1].Kind != "orbit" {
		t.Fatalf("kinds = %q/%q, want full/orbit", stores.Stores[0].Kind, stores.Stores[1].Kind)
	}

	// Both mounts answer classifies from one process; the n=4 queries
	// target stored canonical indices, so they are store hits.
	var c3 classifyResponse
	if code := getJSON(t, ts.URL+"/v1/classify?n=3&index=5", &c3); code != http.StatusOK || c3.N != 3 {
		t.Fatalf("classify n=3: HTTP %d %+v", code, c3)
	}
	idx4 := ent4[len(ent4)/2].Index
	var c4 classifyResponse
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/classify?n=4&index=%d", idx4), &c4); code != http.StatusOK || c4.N != 4 {
		t.Fatalf("classify n=4: HTTP %d %+v", code, c4)
	}
	var health healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if len(health.Mounts) != 2 {
		t.Fatalf("healthz mounts = %v, want [3 4]", health.Mounts)
	}
	// The counters sum over n: one store hit on each mount.
	if health.Requests != 3 || health.StoreHits != 2 ||
		health.CacheHits+health.Rehydrated+health.Computed+health.Persisted != 0 {
		t.Fatalf("healthz counters %+v, want 3 requests and 2 store hits only", health)
	}
}

// TestRegistryConcurrent hammers both mounts from many goroutines —
// the cross-mount -race test: shared tower cache, per-mount LRUs and
// presence filters, lazy state, all under concurrent load.
func TestRegistryConcurrent(t *testing.T) {
	srv, ent3, ent4 := newTwoMountServer(t, ServerOptions{CacheEntries: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var url string
				switch i % 4 {
				case 0:
					url = fmt.Sprintf("%s/v1/classify?n=3&index=%d", ts.URL, ent3[(w*13+i)%len(ent3)].Index)
				case 1:
					url = fmt.Sprintf("%s/v1/classify?n=4&index=%d", ts.URL, ent4[(w*7+i)%len(ent4)].Index)
				case 2:
					url = ts.URL + "/v1/stores"
				default:
					url = ts.URL + "/healthz"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServeBatchClassify: a POST batch answers exactly what N single
// GETs answer, entry for entry, byte for byte.
func TestServeBatchClassify(t *testing.T) {
	srv, _ := newTestServer(t, 3,
		census.Options{Workers: 1, Orbits: true, ShardSize: 16, MaxIndices: 64},
		ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Mix of store hits, rehydrations, and live-computed misses.
	indices := []uint64{0, 1, 5, 17, 40, 63, 90, 126}

	type rawClassify struct {
		N      int             `json:"n"`
		Index  uint64          `json:"index"`
		Source string          `json:"source"`
		Entry  json.RawMessage `json:"entry"`
	}
	single := make([]rawClassify, len(indices))
	for i, idx := range indices {
		if code := getJSON(t, fmt.Sprintf("%s/v1/classify?n=3&index=%d", ts.URL, idx), &single[i]); code != http.StatusOK {
			t.Fatalf("GET classify %d: HTTP %d", idx, code)
		}
	}

	body, _ := json.Marshal(batchClassifyRequest{N: 3, Indices: indices})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		N       int           `json:"n"`
		Results []rawClassify `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST classify: HTTP %d err %v", resp.StatusCode, err)
	}
	if batch.N != 3 || len(batch.Results) != len(indices) {
		t.Fatalf("batch: n=%d results=%d, want n=3 results=%d", batch.N, len(batch.Results), len(indices))
	}
	for i, idx := range indices {
		got, want := batch.Results[i], single[i]
		if got.Index != idx || got.N != 3 {
			t.Errorf("batch[%d]: index=%d n=%d, want index=%d n=3", i, got.Index, got.N, idx)
		}
		var g, w bytes.Buffer
		json.Compact(&g, got.Entry)
		json.Compact(&w, want.Entry)
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Errorf("batch[%d] index %d: entry differs from single GET\n batch: %s\n single: %s",
				i, idx, g.Bytes(), w.Bytes())
		}
	}

	// Oversized batches are rejected up front.
	big := make([]uint64, 0, 2000)
	for i := 0; i < 2000; i++ {
		big = append(big, uint64(i%127))
	}
	body, _ = json.Marshal(batchClassifyRequest{N: 3, Indices: big})
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestServeEntriesPagination: the range scan pages cover the store
// exactly once across block boundaries, the empty window is empty, and
// the JSONL stream equals the paginated walk.
func TestServeEntriesPagination(t *testing.T) {
	srv, st := newTestServer(t, 3, census.Options{Workers: 1, ShardSize: 16}, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	total := st.Stats().Entries // 127 entries over 8 blocks

	// Page through the full domain with a limit that straddles blocks.
	var (
		got  []uint64
		from = uint64(0)
	)
	for {
		var page entriesResponse
		url := fmt.Sprintf("%s/v1/entries?n=3&from=%d&limit=10", ts.URL, from)
		if code := getJSON(t, url, &page); code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", url, code)
		}
		if page.Count != len(page.Entries) {
			t.Fatalf("page count %d != %d entries", page.Count, len(page.Entries))
		}
		if !page.More && page.NextFrom != 0 {
			t.Fatalf("final page has next_from=%d", page.NextFrom)
		}
		for _, raw := range page.Entries {
			var e struct {
				Index uint64 `json:"index"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			got = append(got, e.Index)
		}
		if !page.More {
			break
		}
		if page.NextFrom <= from {
			t.Fatalf("next_from %d did not advance past %d", page.NextFrom, from)
		}
		from = page.NextFrom
	}
	if uint64(len(got)) != total {
		t.Fatalf("paginated walk saw %d entries, store holds %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("unordered or duplicated index %d after %d", got[i], got[i-1])
		}
	}

	// A sub-window returns exactly the entries inside it.
	var window entriesResponse
	if code := getJSON(t, ts.URL+"/v1/entries?n=3&from=20&to=53&limit=100", &window); code != http.StatusOK {
		t.Fatalf("window: HTTP %d", code)
	}
	if window.Count != 33 || window.More {
		t.Fatalf("window [20,53): count=%d more=%v, want 33 false", window.Count, window.More)
	}

	// The empty window is a valid, empty page.
	var empty entriesResponse
	if code := getJSON(t, ts.URL+"/v1/entries?n=3&from=5&to=5", &empty); code != http.StatusOK {
		t.Fatalf("empty window: HTTP %d", code)
	}
	if empty.Count != 0 || empty.More {
		t.Fatalf("empty window: count=%d more=%v", empty.Count, empty.More)
	}

	// The JSONL stream yields the same sequence in one response.
	resp, err := http.Get(ts.URL + "/v1/entries?n=3&format=jsonl&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("jsonl content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte{'\n'})
	if uint64(len(lines)) != total {
		t.Fatalf("jsonl stream has %d lines, want %d", len(lines), total)
	}
	var first struct {
		Index uint64 `json:"index"`
	}
	if err := json.Unmarshal(lines[0], &first); err != nil || first.Index != got[0] {
		t.Fatalf("jsonl first line index=%d err=%v, want %d", first.Index, err, got[0])
	}
}

// TestServeAuth: unknown keys get 401, over-limit keys get 429 with a
// Retry-After, good keys pass, and probe endpoints stay open.
func TestServeAuth(t *testing.T) {
	auth, err := api.NewAuthConfig([]api.APIKey{
		{Name: "ci", Key: "open-sesame"},
		{Name: "throttled", Key: "slow-key", RatePerSec: 0.0001, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, 3, census.Options{Workers: 1}, ServerOptions{Auth: auth})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(key, header string) *http.Response {
		req, err := http.NewRequest("GET", ts.URL+"/v1/classify?n=3&index=0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set(header, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := get("", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: HTTP %d, want 401", resp.StatusCode)
	}
	if resp := get("wrong", "X-API-Key"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key: HTTP %d, want 401", resp.StatusCode)
	}
	if resp := get("Bearer open-sesame", "Authorization"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer key: HTTP %d, want 200", resp.StatusCode)
	}
	if resp := get("open-sesame", "X-API-Key"); resp.StatusCode != http.StatusOK {
		t.Fatalf("header key: HTTP %d, want 200", resp.StatusCode)
	}

	// The throttled key has burst 1 and a negligible refill: the first
	// request drains the bucket, the second is rate-limited.
	if resp := get("slow-key", "X-API-Key"); resp.StatusCode != http.StatusOK {
		t.Fatalf("throttled first: HTTP %d, want 200", resp.StatusCode)
	}
	resp := get("slow-key", "X-API-Key")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled second: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// The other key's budget is untouched.
	if resp := get("open-sesame", "X-API-Key"); resp.StatusCode != http.StatusOK {
		t.Fatalf("unthrottled key after 429: HTTP %d, want 200", resp.StatusCode)
	}

	// Probes and scrapers are exempt.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without key: HTTP %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestServeDrain: SetDraining flips /readyz to 503 while in-flight
// requests run to completion under http.Server.Shutdown.
func TestServeDrain(t *testing.T) {
	srv, _ := newTestServer(t, 3, census.Options{Workers: 1}, ServerOptions{})

	release := make(chan struct{})
	started := make(chan struct{})
	inner := srv.Handler()
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("slow") != "" {
			close(started)
			<-release // hold the request in flight across the drain
		}
		inner.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: slow}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	var ready map[string]string
	if code := getJSON(t, base+"/readyz", &ready); code != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("readyz before drain: HTTP %d %v", code, ready)
	}

	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/v1/classify?n=3&index=7&slow=1")
		if err != nil {
			inflight <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight request: HTTP %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	<-started

	// Drain: readiness flips immediately, the in-flight request keeps
	// running, and Shutdown returns once it completes.
	srv.SetDraining(true)
	if code := getJSON(t, base+"/readyz", &ready); code != http.StatusServiceUnavailable || ready["status"] != "draining" {
		t.Fatalf("readyz during drain: HTTP %d %v, want 503 draining", code, ready)
	}

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- hs.Shutdown(ctx) }()

	// Shutdown must not complete while the request is held open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed across drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServeMetrics: the Prometheus exposition carries the store
// hit/miss counters and latency histograms after traffic.
func TestServeMetrics(t *testing.T) {
	srv, _ := newTestServer(t, 3,
		census.Options{Workers: 1, Orbits: true, ShardSize: 16, MaxIndices: 64},
		ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, idx := range []uint64{0, 0, 5, 90, 126} { // cache hit, store hits, computes
		resp, err := http.Get(fmt.Sprintf("%s/v1/classify?n=3&index=%d", ts.URL, idx))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d err %v", resp.StatusCode, err)
	}
	text := string(body)
	for _, want := range []string{
		"factool_requests_total",
		"factool_store_hits_total",
		"factool_store_misses_total",
		"factool_entry_cache_hits_total",
		"factool_request_seconds_bucket",
		"factool_request_seconds_count",
		"factool_store_entries",
		"factool_inflight_requests",
		// The process-global families: the port serves the same one
		// registry as a -debug-addr surface.
		"factool_census_indices_examined_total",
		"go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	var reg strings.Builder
	srv.Registry().WritePrometheus(&reg)
	if got, want := typeLines(text), typeLines(reg.String()); !slices.Equal(got, want) {
		t.Errorf("/metrics families differ from Registry():\n%v\n%v", got, want)
	}
}

// typeLines returns the "# TYPE" lines of an exposition, in order.
func typeLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			out = append(out, line)
		}
	}
	return out
}
