package main

// serve: store.NewServer over a Registry with two mounts, on a loopback
// listener with API-key auth, driven closed-loop by two client
// connections. The hot mount is the n=4 orbit store, small enough for
// the store's cache of inflated blocks, queried over the whole n=4
// domain so most answers are rehydrated. The cold mount is an n=5 store
// built from ingest's window, with far more blocks than that cache; a
// few of its single GETs fall just past the window, miss, are
// classified live and are written back through Store.PutNew.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/api"
	"repro/internal/census"
	"repro/internal/store"
)

const (
	hotN  = 4
	coldN = ingestN

	// serveRequests is the fixed request count of one repetition.
	serveRequests = 1000
	batchSize     = 16
	batchShare    = 0.25  // POST /v1/classify batches; the rest are single GETs
	missShare     = 0.005 // cold single GETs that fall just past the window

	apiKey     = "pipebench"
	spanHeader = "X-Pipebench-Span"
)

// Request groups, by mount and kind.
const (
	hotGet = iota
	hotBatch
	coldGet
	coldBatch
	numGroups
)

var groupNames = [numGroups]string{"hot_get", "hot_batch", "cold_get", "cold_batch"}

// request is one generated client request.
type request struct {
	group   int
	indices []uint64
}

func (q request) cold() bool  { return q.group == coldGet || q.group == coldBatch }
func (q request) batch() bool { return q.group == hotBatch || q.group == coldBatch }

// missIndices returns the first count canonical n=5 indices at or past
// the cold window. The server answers a stored orbit's other indices by
// rehydration, so only an index whose orbit has no stored member is a
// true miss, and a canonical index past the window is one.
func missIndices(count int) []uint64 {
	var out []uint64
	adversary.NewOrbits(coldN).ForEachCanonicalFrom(ingestWindow, func(idx, _ uint64) bool {
		out = append(out, idx)
		return len(out) < count
	})
	return out
}

// genRequests returns the request stream of a seed: exactly the mix's
// share of each group in a seeded order, hot indices uniform over the
// n=4 domain, cold indices uniform over [0, coldWindow), and the miss
// share of cold GETs at the distinct indices of missIndices.
func genRequests(seed int64, count int, coldWindow uint64) []request {
	rng := rand.New(rand.NewSource(seed))
	batches := int(math.Round(batchShare * float64(count)))
	gets := count - batches
	counts := [numGroups]int{hotGet: gets / 2, coldGet: gets - gets/2, hotBatch: batches / 2, coldBatch: batches - batches/2}
	misses := int(math.Round(missShare * float64(counts[coldGet])))

	groups := make([]int, 0, count)
	for g, c := range counts {
		for range c {
			groups = append(groups, g)
		}
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	// Which cold GETs miss: a seeded choice of exactly `misses` of them.
	missAt := make(map[int]bool, misses)
	coldGets := counts[coldGet]
	for _, k := range rng.Perm(coldGets)[:misses] {
		missAt[k] = true
	}

	missIdx := missIndices(misses)
	hotSpace := adversary.CensusSize(hotN)
	reqs := make([]request, 0, count)
	var coldGetSeen, missSeen int
	for _, g := range groups {
		q := request{group: g}
		size := 1
		if q.batch() {
			size = batchSize
		}
		for range size {
			if q.cold() {
				q.indices = append(q.indices, uint64(rng.Int63n(int64(coldWindow))))
			} else {
				q.indices = append(q.indices, uint64(rng.Int63n(int64(hotSpace))))
			}
		}
		if g == coldGet {
			if missAt[coldGetSeen] {
				q.indices[0] = missIdx[missSeen]
				missSeen++
			}
			coldGetSeen++
		}
		reqs = append(reqs, q)
	}
	return reqs
}

// served is one entry a response carried.
type served struct {
	cold   bool
	index  uint64
	source string
	entry  json.RawMessage
}

// traffic is what one closed-loop pass observed.
type traffic struct {
	wall     time.Duration
	lat      [numGroups][]float64 // milliseconds
	failures int
	results  []served
}

// classifyResult is the part of a /v1/classify answer the client reads.
type classifyResult struct {
	Index  uint64          `json:"index"`
	Source string          `json:"source"`
	Entry  json.RawMessage `json:"entry"`
}

// drive sends reqs closed-loop over two client connections to base and
// waits for every answer. With a recording tracer each request is an
// api.request span whose id travels in spanHeader, and each client
// goroutine is a lane.
func drive(base string, reqs []request, tr *tracer) (traffic, error) {
	var out traffic
	var mu sync.Mutex
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t0 := time.Now()
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: time.Minute}
			laneStart := time.Now()
			defer func() { tr.addLane(time.Since(laneStart)) }()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				id := tr.begin("api.request", -1, 1)
				start := time.Now()
				status, body, err := send(client, base, q, id)
				lat := time.Since(start)
				tr.end(id)
				if err != nil {
					errs[c] = err
					return
				}
				id = tr.begin("client.decode", -1, 1)
				results, derr := decode(q, status, body)
				tr.end(id)
				mu.Lock()
				out.lat[q.group] = append(out.lat[q.group], 1e3*lat.Seconds())
				if derr != nil {
					out.failures++
				}
				for k, res := range results {
					out.results = append(out.results, served{q.cold(), q.indices[k], res.Source, res.Entry})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(t0)
	return out, errors.Join(errs...)
}

// send issues one request and reads its whole body.
func send(client *http.Client, base string, q request, span int) (int, []byte, error) {
	n := hotN
	if q.cold() {
		n = coldN
	}
	var req *http.Request
	var err error
	if q.batch() {
		body, _ := json.Marshal(map[string]any{"n": n, "indices": q.indices})
		req, err = http.NewRequest(http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
	} else {
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/classify?n=%d&index=%d", base, n, q.indices[0]), nil)
	}
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", apiKey)
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// decode returns the entries of a successful answer, in request order.
func decode(q request, status int, body []byte) ([]classifyResult, error) {
	if status/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", status, body)
	}
	if !q.batch() {
		var res classifyResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, err
		}
		return []classifyResult{res}, nil
	}
	var res struct {
		Results []classifyResult `json:"results"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	if len(res.Results) != len(q.indices) {
		return nil, fmt.Errorf("batch of %d answered with %d results", len(q.indices), len(res.Results))
	}
	return res.Results, nil
}

// traceHandler records an api.handler span around each request, nested
// under the client span named in spanHeader.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		id := tr.begin("api.handler", parent, 1)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// serveOn serves h on a loopback listener while drive runs, then shuts
// the listener down and waits for it.
func serveOn(h http.Handler, reqs []request, tr *tracer) (traffic, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return traffic{}, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 30 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	out, err := drive("http://"+ln.Addr().String(), reqs, tr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return out, err
}

// serveStores builds the two stores every repetition copies: the n=4
// orbit store over the whole domain and the n=5 store of ingest's
// window. It returns their directories.
func serveStores(r *run) (hotDir, coldDir string, err error) {
	dir, err := r.scratch("serve-golden")
	if err != nil {
		return "", "", err
	}
	hotDir = filepath.Join(dir, "hot")
	shard := filepath.Join(dir, "hot.jsonl.gz")
	sink, err := census.NewJSONLSinkCompressed(shard)
	if err != nil {
		return "", "", err
	}
	_, err = census.SweepRange(hotN, census.Options{Orbits: true, Workers: 2}, sink, 0, adversary.CensusSize(hotN))
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", "", fmt.Errorf("hot store sweep: %w", err)
	}
	hot, err := store.Create(hotDir, hotN)
	if err != nil {
		return "", "", err
	}
	if _, err := hot.Merge([]string{shard}, store.MergeOptions{}); err != nil {
		hot.Close()
		return "", "", err
	}
	r.inputs["hot_store"] = hot.Stats()
	if err := hot.Close(); err != nil {
		return "", "", err
	}

	cold, err := ingestOnce(filepath.Join(dir, "cold"), 2)
	if err != nil {
		return "", "", fmt.Errorf("cold store: %w", err)
	}
	r.inputs["cold_store"] = cold.st.Stats()
	if err := cold.st.Close(); err != nil {
		return "", "", err
	}
	return hotDir, filepath.Join(dir, "cold", "store"), nil
}

// mounted is one repetition's serving stack.
type mounted struct {
	reg       *store.Registry
	srv       *store.Server
	hot, cold *store.Store
}

// copyStores gives a repetition fresh copies of both stores.
func copyStores(r *run, name, hotGolden, coldGolden string) (hotDir, coldDir string, err error) {
	dir, err := r.scratch(name)
	if err != nil {
		return "", "", err
	}
	hotDir, coldDir = filepath.Join(dir, "hot"), filepath.Join(dir, "cold")
	if err := copyDir(hotGolden, hotDir); err != nil {
		return "", "", err
	}
	return hotDir, coldDir, copyDir(coldGolden, coldDir)
}

// mount opens both stores and builds the server over them. With a
// recording tracer the presence filters are loaded explicitly inside
// store.load_presence spans and the server skips rebuilding them.
func mount(hotDir, coldDir string, tr *tracer) (*mounted, error) {
	m := &mounted{reg: store.NewRegistry()}
	id := tr.begin("store.open", -1, 2)
	hot, err := store.Open(hotDir)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	cold, err := store.Open(coldDir)
	tr.end(id)
	if err != nil {
		hot.Close()
		return nil, err
	}
	m.hot, m.cold = hot, cold
	if err := m.build(tr); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// build mounts both open stores and creates the server over them.
func (m *mounted) build(tr *tracer) error {
	if err := m.reg.Mount("hot", m.hot); err != nil {
		return err
	}
	if err := m.reg.Mount("cold", m.cold); err != nil {
		return err
	}
	if tr.on {
		for _, st := range []*store.Store{m.hot, m.cold} {
			id := tr.begin("store.load_presence", -1, 1)
			err := st.LoadPresence()
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	auth, err := api.NewAuthConfig([]api.APIKey{{Name: "pipebench", Key: apiKey}})
	if err != nil {
		return err
	}
	id := tr.begin("api.new_server", -1, 1)
	m.srv, err = store.NewServer(m.reg, store.ServerOptions{Auth: auth, SkipPresence: tr.on})
	tr.end(id)
	return err
}

// close closes both stores; closing twice is harmless.
func (m *mounted) close() error {
	return errors.Join(m.hot.Close(), m.cold.Close())
}

// checkServed compares a seeded sample of served entries, plus every
// live-computed one, byte for byte with census.Examiner.Examine.
func checkServed(r *run, results []served) error {
	hot, err := census.NewExaminer(hotN, census.Options{})
	if err != nil {
		return err
	}
	cold, err := census.NewExaminer(coldN, census.Options{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	pick := make(map[int]bool)
	for _, k := range rng.Perm(len(results))[:min(64, len(results))] {
		pick[k] = true
	}
	checked := 0
	for k, res := range results {
		if !pick[k] && res.source != "computed" {
			continue
		}
		ex := hot
		if res.cold {
			ex = cold
		}
		e, err := ex.Examine(res.index)
		if err != nil {
			return err
		}
		want, err := json.Marshal(&e)
		if err != nil {
			return err
		}
		got, err := compactJSON(res.entry)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			r.checkf("serve: entry %d (%s) is %s, census examines %s", res.index, res.source, got, want)
		}
		checked++
	}
	r.extra["entries_checked"] = checked
	return nil
}

func serveE2E(r *run) error {
	hotGolden, coldGolden, err := serveStores(r)
	if err != nil {
		return err
	}
	reqs := genRequests(r.seed, serveRequests, ingestWindow)
	misses := countMisses(reqs)
	var walls, setups []float64
	var lat [numGroups][]float64
	sources := make(map[string]int)
	err = r.repeat(2, 100, func(rep int) error {
		hotDir, coldDir, err := copyStores(r, "serve-rep", hotGolden, coldGolden)
		if err != nil {
			return err
		}
		off := newTracer(false, false)
		t0 := time.Now()
		m, err := mount(hotDir, coldDir, off)
		if err != nil {
			return err
		}
		setup := time.Since(t0)
		defer m.close()
		tf, err := serveOn(m.srv.Handler(), reqs, off)
		r.attempted += len(reqs)
		if err != nil {
			r.failed += len(reqs) - sumLens(tf.lat)
			return err
		}
		r.failed += tf.failures
		if tf.failures > 0 {
			r.checkf("serve: %d of %d requests failed", tf.failures, len(reqs))
		}
		computed := 0
		for _, res := range tf.results {
			if res.source == "computed" {
				computed++
			}
		}
		if got := m.cold.Stats().Entries; computed != misses || got != ingestWindow+uint64(misses) {
			r.checkf("serve: %d answers computed live and the cold store holds %d entries; want %d and %d",
				computed, got, misses, ingestWindow+uint64(misses))
		}
		if rep == 0 {
			if err := checkServed(r, tf.results); err != nil {
				return err
			}
		}
		for g := range lat {
			lat[g] = append(lat[g], tf.lat[g]...)
		}
		for _, res := range tf.results {
			sources[res.source]++
		}
		walls = append(walls, seconds(tf.wall))
		setups = append(setups, seconds(setup))
		r.reps = append(r.reps, map[string]any{"wall_s": seconds(tf.wall), "setup_s": seconds(setup)})
		return m.close()
	})
	if err != nil {
		return err
	}
	for len(setups) < minSetups {
		hotDir, coldDir, err := copyStores(r, "serve-setup", hotGolden, coldGolden)
		if err != nil {
			return err
		}
		t0 := time.Now()
		m, err := mount(hotDir, coldDir, newTracer(false, false))
		if err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		if err := m.close(); err != nil {
			return err
		}
	}

	r.metrics["wall_s"] = median(walls)
	r.metrics["setup_s"] = median(setups)
	for g, name := range groupNames {
		l := summarize(lat[g])
		r.extra[name] = l
		fmt.Fprintf(r.log, "%s_p50_ms %.4g   %s tail p%g %.4g ms   (n=%d)\n", name, l.P50, name, l.TailP, l.Tail, l.N)
	}
	r.extra["sources"] = sources
	r.extra["setup_samples_s"] = setups
	r.inputs["requests"] = len(reqs)
	r.inputs["connections"] = 2
	r.inputs["mix"] = map[string]any{"batch_share": batchShare, "batch_size": batchSize, "miss_share_of_cold_gets": missShare, "misses": misses}
	r.inputs["hot"] = map[string]any{"n": hotN, "indices": []uint64{0, adversary.CensusSize(hotN)}}
	r.inputs["cold"] = map[string]any{"n": coldN, "window": []uint64{0, ingestWindow}}
	return nil
}

// countMisses counts the requests that fall past the cold window.
func countMisses(reqs []request) int {
	n := 0
	for _, q := range reqs {
		if q.cold() && q.indices[0] >= ingestWindow {
			n++
		}
	}
	return n
}

func sumLens(xs [numGroups][]float64) int {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	return n
}

// serveReplay counts what a direct replay of the index stream did.
type serveReplay struct {
	gets  int
	skips uint64
}

// replayServe opens fresh copies of both stores and replays the index
// stream straight through the store and adversary layers, one span per
// call: Store.Get, Orbits.CanonicalWithWitness, store.Rehydrate, and on
// a miss census.Examiner.Examine and Store.PutNew. Only the replay loop
// is the lane.
func replayServe(r *run, tr *tracer, name, hotGolden, coldGolden string, reqs []request) (serveReplay, time.Duration, error) {
	var out serveReplay
	hotDir, coldDir, err := copyStores(r, name, hotGolden, coldGolden)
	if err != nil {
		return out, 0, err
	}
	hot, err := store.Open(hotDir)
	if err != nil {
		return out, 0, err
	}
	defer hot.Close()
	cold, err := store.Open(coldDir)
	if err != nil {
		return out, 0, err
	}
	defer cold.Close()
	type mountSide struct {
		st     *store.Store
		n      int
		orbits *adversary.Orbits
		ex     *census.Examiner
	}
	var sides [2]mountSide
	for i, st := range []*store.Store{hot, cold} {
		if err := st.LoadPresence(); err != nil {
			return out, 0, err
		}
		ex, err := census.NewExaminer(st.N(), census.Options{})
		if err != nil {
			return out, 0, err
		}
		sides[i] = mountSide{st, st.N(), adversary.NewOrbits(st.N()), ex}
	}
	skips0 := hot.PresenceSkips() + cold.PresenceSkips()

	get := func(st *store.Store, idx uint64) (*census.Entry, bool, error) {
		out.gets++
		id := tr.begin("store.lookup", -1, 1)
		e, ok, err := st.Get(idx)
		tr.end(id)
		return e, ok, err
	}
	wall, err := tr.lane(func() error {
		for _, q := range reqs {
			side := sides[0]
			if q.cold() {
				side = sides[1]
			}
			for _, idx := range q.indices {
				// Store.Lookup: the index itself, else its orbit's
				// representative rehydrated for it.
				if _, ok, err := get(side.st, idx); err != nil || ok {
					if err != nil {
						return err
					}
					continue
				}
				id := tr.begin("adversary.canonical", -1, 1)
				canon, size, _ := side.orbits.CanonicalWithWitness(idx)
				tr.end(id)
				if canon != idx {
					ce, ok, err := get(side.st, canon)
					if err != nil {
						return err
					}
					if ok {
						id := tr.begin("adversary.rehydrate", -1, 1)
						_, err := store.Rehydrate(side.n, ce, idx, side.orbits)
						tr.end(id)
						if err != nil {
							return err
						}
						continue
					}
				}
				// A miss: classify live and write back the form the
				// store's kind holds, as the server does.
				examine := idx
				if side.st.Orbits() {
					examine = canon
				}
				id = tr.begin("census.examine", -1, 1)
				e, err := side.ex.Examine(examine)
				tr.end(id)
				if err != nil {
					return err
				}
				if side.st.Orbits() {
					e.OrbitSize = size
				}
				id = tr.begin("store.put_new", -1, 1)
				_, err = side.st.PutNew(&e)
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	out.skips = hot.PresenceSkips() + cold.PresenceSkips() - skips0
	return out, wall, err
}

func serveTraced(r *run) error {
	hotGolden, coldGolden, err := serveStores(r)
	if err != nil {
		return err
	}
	reqs := genRequests(r.seed, serveRequests, ingestWindow)

	tr := newTracer(true, false)
	hotDir, coldDir, err := copyStores(r, "serve-traced", hotGolden, coldGolden)
	if err != nil {
		return err
	}
	var m *mounted
	if _, err := tr.lane(func() error { var err error; m, err = mount(hotDir, coldDir, tr); return err }); err != nil {
		return err
	}
	defer m.close()
	tf, err := serveOn(traceHandler(tr, m.srv.Handler()), reqs, tr)
	r.attempted += len(reqs)
	if err != nil {
		return err
	}
	r.failed += tf.failures
	if tf.failures > 0 {
		r.checkf("serve: %d of %d traced requests failed", tf.failures, len(reqs))
	}
	if err := m.close(); err != nil {
		return err
	}

	var rs serveReplay
	overhead, err := alternate(tr, func(rt *tracer, i int) (time.Duration, error) {
		out, wall, err := replayServe(r, rt, fmt.Sprintf("serve-replay-%d", i), hotGolden, coldGolden, reqs)
		if i == 1 {
			rs = out
		}
		return wall, err
	})
	if err != nil {
		return err
	}

	spans, lanes := tr.recorded()
	ops := aggregate(spans)
	putOps(r, ops, "adversary.canonical", "calls", "busy_s")
	putOps(r, ops, "adversary.rehydrate", "calls", "busy_s")
	putOps(r, ops, "store.lookup", "calls", "busy_s", "p99_us")
	putOps(r, ops, "store.put_new", "calls", "busy_s", "p99_ms")
	putOps(r, ops, "census.examine", "calls", "busy_s")
	putOps(r, ops, "api.handler", "busy_s", "p50_ms", "p99_ms")
	putOps(r, ops, "store.load_presence", "busy_s")
	if st := ops["api.request"]; st != nil {
		r.metrics["api.wait.busy_s"] = st.busy.Seconds()
	} else {
		r.metrics["api.wait.busy_s"] = 0
	}
	r.metrics["store.presence.skip_ratio"] = float64(rs.skips) / float64(max(rs.gets, 1))
	sources := make(map[string]int)
	for _, res := range tf.results {
		sources[res.source]++
	}
	total := len(tf.results)
	for metric, source := range map[string]string{
		"api.source.cache.share":      "cache",
		"api.source.store.share":      "store",
		"api.source.rehydrated.share": "store-rehydrated",
		"api.source.computed.share":   "computed",
	} {
		r.metrics[metric] = ratio(sources[source], total)
	}
	r.metrics["trace.unattributed_frac"] = unattributed(spans, lanes)
	r.metrics["trace.overhead_frac"] = overhead

	r.inputs["requests"] = len(reqs)
	r.extra["sources"] = sources
	r.extra["traffic_wall_s"] = seconds(tf.wall)
	return nil
}
