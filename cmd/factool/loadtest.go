// factool loadtest: a self-contained load generator for the serve
// layer. It drives a configurable mix of single classifies, batch
// classifies, and live solves against a running `factool serve`,
// measures client-side latency quantiles, and exits non-zero when the
// run breaches its SLO (any 5xx, any transport error, or p99 over the
// -slo-p99 budget). CI uses it as the serve-load smoke gate.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/tasks"
)

// ltStats is one worker's tally, merged after the run.
type ltStats struct {
	lat       []time.Duration // latency of every successful request
	byStatus  map[int]int
	transport int // client-side failures (dial, timeout, bad body)
}

// ltResult is the merged, reported outcome.
type ltResult struct {
	Requests   int            `json:"requests"`
	Errors5xx  int            `json:"errors_5xx"`
	Errors4xx  int            `json:"errors_4xx"`
	Transport  int            `json:"transport_errors"`
	Duration   float64        `json:"duration_sec"`
	Throughput float64        `json:"requests_per_sec"`
	P50Ms      float64        `json:"p50_ms"`
	P90Ms      float64        `json:"p90_ms"`
	P99Ms      float64        `json:"p99_ms"`
	MaxMs      float64        `json:"max_ms"`
	SLOP99Ms   float64        `json:"slo_p99_ms,omitempty"`
	SLOOK      bool           `json:"slo_ok"`
	ByStatus   map[string]int `json:"by_status"`
	byStatus   map[int]int    `json:"-"`
	p99        time.Duration  `json:"-"`
}

func cmdLoadtest(args []string) error {
	fs := newFlagSet("loadtest")
	baseURL := fs.String("url", "", "base URL of a running factool serve (required; e.g. http://127.0.0.1:8080)")
	n := fs.Int("n", 0, "system size to target (required; must be mounted on the server)")
	duration := fs.Duration("duration", 10*time.Second, "wall-clock length of the run")
	concurrency := fs.Int("concurrency", 8, "concurrent client workers")
	batch := fs.Int("batch", 16, "indices per batch classify request")
	solveFrac := fs.Float64("solve-frac", 0.05, "fraction of requests that are live /v1/solve calls")
	batchFrac := fs.Float64("batch-frac", 0.25, "fraction of requests that are batch classifies")
	ktask := fs.Int("ktask", 1, "k for the /v1/solve k-set consensus queries when -task is empty: the CLI spelling of -task kset:k=K")
	task := fs.String("task", "", "task spec for the /v1/solve queries (e.g. loop-agreement, approx:eps=1); overrides -ktask")
	seed := fs.Int64("seed", 1, "RNG seed (per-worker streams derive from it; runs are reproducible)")
	apikey := fs.String("apikey", "", "API key sent as a Bearer token (when the server has -apikeys)")
	sloP99 := fs.Duration("slo-p99", 0, "p99 latency budget; breach fails the run (0 = no latency SLO)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON on stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *baseURL == "" {
		return usagef(fs, "loadtest: -url is required")
	}
	if *n <= 0 {
		return usagef(fs, "loadtest: -n is required")
	}
	if *concurrency <= 0 || *batch <= 0 {
		return usagef(fs, "loadtest: -concurrency and -batch must be positive")
	}
	if *solveFrac < 0 || *batchFrac < 0 || *solveFrac+*batchFrac > 1 {
		return usagef(fs, "loadtest: -solve-frac and -batch-frac must be non-negative and sum to at most 1")
	}
	if *task != "" {
		if _, err := tasks.ParseSpec(*task); err != nil {
			return usagef(fs, "loadtest: %v", err)
		}
	}
	base := strings.TrimRight(*baseURL, "/")
	domain := adversary.CensusSize(*n)
	if domain == 0 {
		return usagef(fs, "loadtest: n=%d has an empty census domain", *n)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	authorize := func(req *http.Request) {
		if *apikey != "" {
			req.Header.Set("Authorization", "Bearer "+*apikey)
		}
	}

	// Preflight: the target n must be mounted, so a misconfigured run
	// fails fast instead of producing a wall of 404s.
	req, err := http.NewRequest("GET", base+"/v1/stores", nil)
	if err != nil {
		return err
	}
	authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("loadtest: preflight %s/v1/stores: %w", base, err)
	}
	var stores struct {
		Stores []struct {
			N int `json:"n"`
		} `json:"stores"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stores)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadtest: preflight %s/v1/stores: status %d (err %v)", base, resp.StatusCode, err)
	}
	mounted := false
	for _, s := range stores.Stores {
		if s.N == *n {
			mounted = true
		}
	}
	if !mounted {
		return fmt.Errorf("loadtest: n=%d is not mounted on %s", *n, base)
	}

	fmt.Fprintf(os.Stderr, "loadtest: %s n=%d domain=%d for %s with %d workers (batch=%d solve-frac=%.2f batch-frac=%.2f)\n",
		base, *n, domain, *duration, *concurrency, *batch, *solveFrac, *batchFrac)

	deadline := time.Now().Add(*duration)
	stats := make([]ltStats, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.byStatus = make(map[int]int)
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				var (
					status int
					err    error
				)
				start := time.Now()
				switch p := rng.Float64(); {
				case p < *solveFrac:
					idx := uint64(rng.Int63n(int64(domain)))
					status, err = ltGet(client, authorize, base+solveQuery(*n, idx, *task, *ktask))
				case p < *solveFrac+*batchFrac:
					idxs := make([]uint64, *batch)
					for i := range idxs {
						idxs[i] = uint64(rng.Int63n(int64(domain)))
					}
					status, err = ltBatch(client, authorize, base, *n, idxs)
				default:
					idx := uint64(rng.Int63n(int64(domain)))
					status, err = ltGet(client, authorize,
						fmt.Sprintf("%s/v1/classify?n=%d&index=%d", base, *n, idx))
				}
				if err != nil {
					st.transport++
					continue
				}
				st.byStatus[status]++
				st.lat = append(st.lat, time.Since(start))
			}
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)

	res := mergeLtStats(stats, elapsed, *sloP99)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	} else {
		fmt.Printf("loadtest: %d requests in %.1fs (%.1f req/s)\n", res.Requests, res.Duration, res.Throughput)
		var codes []int
		for c := range res.byStatus {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Printf("  status %d: %d\n", c, res.byStatus[c])
		}
		if res.Transport > 0 {
			fmt.Printf("  transport errors: %d\n", res.Transport)
		}
		fmt.Printf("  latency p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
			res.P50Ms, res.P90Ms, res.P99Ms, res.MaxMs)
	}
	switch {
	case res.Errors5xx > 0:
		return fmt.Errorf("loadtest: SLO breach: %d server errors (5xx)", res.Errors5xx)
	case res.Transport > 0:
		return fmt.Errorf("loadtest: SLO breach: %d transport errors", res.Transport)
	case res.Errors4xx > 0:
		return fmt.Errorf("loadtest: SLO breach: %d client errors (4xx) — check -apikey and the target n", res.Errors4xx)
	case !res.SLOOK:
		return fmt.Errorf("loadtest: SLO breach: p99 %.2fms exceeds budget %.2fms", res.P99Ms, res.SLOP99Ms)
	case res.Requests == 0:
		return fmt.Errorf("loadtest: no requests completed")
	}
	return nil
}

// solveQuery renders the /v1/solve query string: the task spec when
// one was given, the kset compat parameter otherwise.
func solveQuery(n int, idx uint64, task string, ktask int) string {
	if task != "" {
		return fmt.Sprintf("/v1/solve?n=%d&index=%d&task=%s", n, idx, url.QueryEscape(task))
	}
	return fmt.Sprintf("/v1/solve?n=%d&index=%d&ktask=%d", n, idx, ktask)
}

// ltGet issues one GET, draining the body so the connection is reused.
func ltGet(client *http.Client, authorize func(*http.Request), url string) (int, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, err
	}
	authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// ltBatch issues one POST /v1/classify with the given index list.
func ltBatch(client *http.Client, authorize func(*http.Request), base string, n int, idxs []uint64) (int, error) {
	body, err := json.Marshal(struct {
		N       int      `json:"n"`
		Indices []uint64 `json:"indices"`
	}{N: n, Indices: idxs})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest("POST", base+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// mergeLtStats folds the per-worker tallies into the reported result.
func mergeLtStats(stats []ltStats, elapsed time.Duration, sloP99 time.Duration) ltResult {
	res := ltResult{byStatus: make(map[int]int), Duration: elapsed.Seconds(), SLOOK: true}
	var lat []time.Duration
	for i := range stats {
		st := &stats[i]
		res.Transport += st.transport
		for code, cnt := range st.byStatus {
			res.byStatus[code] += cnt
			res.Requests += cnt
			switch {
			case code >= 500:
				res.Errors5xx += cnt
			case code >= 400:
				res.Errors4xx += cnt
			}
		}
		lat = append(lat, st.lat...)
	}
	// String keys: JSON objects cannot key on ints, and jq-driven CI
	// reads these counts structurally (e.g. .by_status["200"]).
	res.ByStatus = make(map[string]int, len(res.byStatus))
	for code, cnt := range res.byStatus {
		res.ByStatus[strconv.Itoa(code)] = cnt
	}
	if res.Duration > 0 {
		res.Throughput = float64(res.Requests) / res.Duration
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		q := func(p float64) time.Duration {
			i := int(p * float64(len(lat)-1))
			return lat[i]
		}
		res.P50Ms = float64(q(0.50)) / float64(time.Millisecond)
		res.P90Ms = float64(q(0.90)) / float64(time.Millisecond)
		res.p99 = q(0.99)
		res.P99Ms = float64(res.p99) / float64(time.Millisecond)
		res.MaxMs = float64(lat[len(lat)-1]) / float64(time.Millisecond)
	}
	if sloP99 > 0 {
		res.SLOP99Ms = float64(sloP99) / float64(time.Millisecond)
		res.SLOOK = res.p99 <= sloP99
	}
	return res
}
