package store

// The v1 HTTP serving layer over a registry of census stores: one
// process mounts a store per (n, task) and answers the whole API for
// all of them. Queries resolve store-first through a per-mount entry
// LRU and presence filter; a miss falls back to live computation on
// the census examination path (all mounts share one byte-budgeted
// TowerCache; each mount shares chromatic.SharedUniverse(n)) and
// persists the computed answer back to its store. Read queries take an
// optional task=<spec> parameter routing to the mount answering that
// task; without it the task-neutral (or sole) mount of the n answers.
//
//	GET  /v1/classify?n=N&index=I[&task=S]  one adversary's census entry
//	POST /v1/classify                   bulk: {"n":N,"indices":[...]}
//	GET  /v1/entries?n=N&from=A&to=B    range scan (paginated JSON, or
//	                                    format=jsonl streaming)
//	GET  /v1/summary?n=N                aggregate over a mounted store
//	GET  /v1/solve?n=N&index=I&task=S[&rounds=L]  live FACT decision
//	                                    (ktask=K selects kset:k=K)
//	GET  /v1/stores                     the mounted stores + task specs
//	GET  /healthz                       liveness + counters
//	GET  /readyz                        readiness (503 while draining)
//	GET  /metrics                       Prometheus text exposition
//
// Every response carries an X-Request-Id; errors use one JSON envelope
//
//	{"error":{"code":400,"message":"...","request_id":"..."}}
//
// while success bodies for /v1/classify entries stay byte-identical to
// `factool census -json` entries whatever store kind backs them.
// Optional API-key auth (ServerOptions.Auth) answers 401 for unknown
// keys and 429 for over-limit ones; /healthz, /readyz and /metrics
// stay open for probes and scrapers. Handlers are safe for arbitrary
// concurrency.

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/api"
	"repro/internal/census"
	"repro/internal/chromatic"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// ServerOptions tune the serving layer.
type ServerOptions struct {
	// CacheEntries bounds each mount's in-memory entry LRU. <= 0
	// selects 4096.
	CacheEntries int

	// CacheBytes budgets the live-solve tower cache shared by every
	// mount (LRU eviction). <= 0 means unbounded.
	CacheBytes int64

	// MaxRounds bounds /v1/solve searches when the request does not
	// pass rounds=. <= 0 selects 1.
	MaxRounds int

	// ReadOnly disables the write-back of computed entries.
	ReadOnly bool

	// Auth, when non-nil, requires a valid API key on every /v1
	// request and rate-limits per key. Nil serves openly.
	Auth *api.AuthConfig

	// AccessLog, when non-nil, receives one structured JSON line per
	// request.
	AccessLog io.Writer

	// SkipPresence skips building the per-mount presence filters (a
	// full block walk per store at startup).
	SkipPresence bool
}

// Caps on client input: the indices of one bulk classify and the limit
// parameter of one /v1/entries page.
const (
	maxBatch      = 1024
	maxRangeLimit = 4096
)

// maxSolvers caps the /v1/solve examiners a server keeps. Clients pick
// the key, so past the cap a request builds an examiner for itself
// alone.
const maxSolvers = 64

// solveKey identifies a /v1/solve examiner: system size, canonical task
// spec and round bound.
type solveKey struct {
	n      int
	spec   string
	rounds int
}

// Server answers census queries for every store mounted in a registry.
// Create with NewServer over a Registry (mount one store per n), and
// mount Handler on any mux or http.Server.
type Server struct {
	reg    *Registry
	opts   ServerOptions
	tcache *chromatic.TowerCache
	m      *metrics
	mw     *api.Middleware
	// telemetry is the one exposition /metrics writes and Registry
	// returns.
	telemetry *obs.Registry

	mu     sync.RWMutex
	states map[mountKey]*mountState

	// solvers holds the /v1/solve examiners built so far, at most
	// maxSolvers of them.
	solversMu sync.Mutex
	solvers   map[solveKey]*census.Examiner

	started time.Time

	draining atomic.Bool

	// requests counts API calls for /healthz; every other /healthz
	// counter sums a per-n family of m.
	requests atomic.Uint64
}

// mountState is the per-mount serving machinery.
type mountState struct {
	mount    *Mount
	nLabel   string
	orbits   *adversary.Orbits
	classify *census.Examiner
	universe *chromatic.Universe
	lru      *entryLRU
}

// NewServer builds the serving layer over a registry. Presence filters
// are built per mount (one block walk each) unless SkipPresence; the
// registry may gain mounts later, which lazily get their serving state
// (and presence) on first query.
func NewServer(reg *Registry, opts ServerOptions) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("store: nil registry")
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 4096
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1
	}
	s := &Server{
		reg:     reg,
		opts:    opts,
		tcache:  chromatic.NewTowerCacheWithBudget(opts.CacheBytes),
		m:       newMetrics(),
		states:  make(map[mountKey]*mountState),
		solvers: make(map[solveKey]*census.Examiner),
		started: time.Now(),
	}
	s.mw = api.NewMiddleware(api.MiddlewareOptions{
		Metrics:   s.m.http,
		Auth:      opts.Auth,
		AccessLog: opts.AccessLog,
	})
	s.telemetry = s.newTelemetry()
	for _, mt := range reg.Mounts() {
		if _, err := s.state(mt.N(), mt.Task()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// state returns (building lazily) the serving state of the mount for
// (n, canonical task spec); an empty task selects the registry's
// defaulting (the task-neutral or sole mount of that n).
func (s *Server) state(n int, task string) (*mountState, error) {
	mt, ok := s.reg.GetTask(n, task)
	if !ok {
		return nil, nil
	}
	// Key by the mount's own identity: the defaulted lookup for task ""
	// may resolve to a task-specific mount.
	key := mountKey{n: mt.N(), task: mt.Task()}
	s.mu.RLock()
	ms, ok := s.states[key]
	s.mu.RUnlock()
	if ok {
		return ms, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ms, ok := s.states[key]; ok {
		return ms, nil
	}
	universe := chromatic.SharedUniverse(n)
	classify, err := census.NewExaminer(n, census.Options{Universe: universe, Cache: s.tcache})
	if err != nil {
		return nil, err
	}
	if !s.opts.SkipPresence {
		if err := mt.Store().LoadPresence(); err != nil {
			return nil, err
		}
	}
	ms = &mountState{
		mount:    mt,
		nLabel:   strconv.Itoa(n),
		orbits:   adversary.NewOrbits(n),
		classify: classify,
		universe: universe,
		lru:      newEntryLRU(s.opts.CacheEntries),
	}
	s.states[key] = ms
	return ms, nil
}

// Registry returns the server's telemetry registry — its own families
// plus the included process-global ones, exactly what /metrics writes —
// so a -debug-addr surface can serve the same exposition.
func (s *Server) Registry() *obs.Registry { return s.telemetry }

// SetDraining flips readiness: /readyz answers 503 while true, so load
// balancers stop routing before the listener drains.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the HTTP handler serving the API, wrapped in the
// request-id / metrics / logging / auth middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/entries", s.handleEntries)
	mux.HandleFunc("/v1/summary", s.handleSummary)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/stores", s.handleStores)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.mw.Wrap(mux)
}

// mountFor routes a request's (n, optional task) parameters to its
// serving state, answering the envelope for missing/invalid/unmounted
// combinations. The task spec is canonicalized before lookup, so
// "kset" and "kset:k=1" route to the same mount.
func (s *Server) mountFor(w http.ResponseWriter, r *http.Request, nStr, taskStr string) (*mountState, bool) {
	if nStr == "" {
		api.Error(w, r, http.StatusBadRequest, "missing n parameter (mounted: n=%v)", s.reg.Ns())
		return nil, false
	}
	n, err := strconv.Atoi(nStr)
	if err != nil {
		api.Error(w, r, http.StatusBadRequest, "bad n %q", nStr)
		return nil, false
	}
	task := ""
	if taskStr != "" {
		spec, err := tasks.ParseSpec(taskStr)
		if err != nil {
			api.Error(w, r, http.StatusBadRequest, "bad task %q: %v", taskStr, err)
			return nil, false
		}
		task = spec.String()
	}
	ms, err := s.state(n, task)
	if err != nil {
		api.Error(w, r, http.StatusInternalServerError, "mount n=%d: %v", n, err)
		return nil, false
	}
	if ms == nil {
		if task != "" {
			api.Error(w, r, http.StatusNotFound, "n=%d task %s not mounted (mounted: n=%v)", n, task, s.reg.Ns())
			return nil, false
		}
		api.Error(w, r, http.StatusNotFound, "n=%d not mounted (mounted: n=%v)", n, s.reg.Ns())
		return nil, false
	}
	return ms, true
}

// parseIndex validates one index against the mount's domain.
func (ms *mountState) parseIndex(w http.ResponseWriter, r *http.Request, idxStr string) (uint64, bool) {
	if idxStr == "" {
		api.Error(w, r, http.StatusBadRequest, "missing index parameter")
		return 0, false
	}
	idx, err := strconv.ParseUint(idxStr, 10, 64)
	if err != nil || idx >= adversary.CensusSize(ms.mount.N()) {
		api.Error(w, r, http.StatusBadRequest, "index %s outside the n=%d domain [0, %d)",
			idxStr, ms.mount.N(), adversary.CensusSize(ms.mount.N()))
		return 0, false
	}
	return idx, true
}

// classifyResponse is the GET /v1/classify envelope.
type classifyResponse struct {
	N      int           `json:"n"`
	Index  uint64        `json:"index"`
	Source string        `json:"source"` // cache | store | store-rehydrated | computed
	Entry  *census.Entry `json:"entry"`
}

// batchClassifyRequest is the POST /v1/classify body. Task optionally
// routes to the mount answering that spec, like GET's task parameter.
type batchClassifyRequest struct {
	N       int      `json:"n"`
	Task    string   `json:"task,omitempty"`
	Indices []uint64 `json:"indices"`
}

// batchClassifyResponse is the POST /v1/classify envelope: results in
// request order, each result exactly the GET envelope for that index.
type batchClassifyResponse struct {
	N       int                `json:"n"`
	Results []classifyResponse `json:"results"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		ms, ok := s.mountFor(w, r, r.URL.Query().Get("n"), r.URL.Query().Get("task"))
		if !ok {
			return
		}
		idx, ok := ms.parseIndex(w, r, r.URL.Query().Get("index"))
		if !ok {
			return
		}
		e, source, err := s.classifyIndex(ms, idx)
		if err != nil {
			api.Error(w, r, http.StatusInternalServerError, "classify %d: %v", idx, err)
			return
		}
		api.WriteJSON(w, classifyResponse{N: ms.mount.N(), Index: idx, Source: source, Entry: e})
	case http.MethodPost:
		var req batchClassifyRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<22)).Decode(&req); err != nil {
			api.Error(w, r, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		ms, ok := s.mountFor(w, r, strconv.Itoa(req.N), req.Task)
		if !ok {
			return
		}
		if len(req.Indices) == 0 {
			api.Error(w, r, http.StatusBadRequest, "empty indices")
			return
		}
		if len(req.Indices) > maxBatch {
			api.Error(w, r, http.StatusBadRequest, "%d indices exceed the batch cap %d", len(req.Indices), maxBatch)
			return
		}
		domain := adversary.CensusSize(ms.mount.N())
		for _, idx := range req.Indices {
			if idx >= domain {
				api.Error(w, r, http.StatusBadRequest, "index %d outside the n=%d domain [0, %d)", idx, ms.mount.N(), domain)
				return
			}
		}
		resp := batchClassifyResponse{N: ms.mount.N(), Results: make([]classifyResponse, len(req.Indices))}
		for i, idx := range req.Indices {
			e, source, err := s.classifyIndex(ms, idx)
			if err != nil {
				api.Error(w, r, http.StatusInternalServerError, "classify %d: %v", idx, err)
				return
			}
			resp.Results[i] = classifyResponse{N: ms.mount.N(), Index: idx, Source: source, Entry: e}
		}
		api.WriteJSON(w, resp)
	default:
		api.Error(w, r, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// classifyIndex resolves one index: LRU, store (presence-filtered,
// orbit-aware), then live computation with write-back.
func (s *Server) classifyIndex(ms *mountState, idx uint64) (*census.Entry, string, error) {
	if e, ok := ms.lru.get(idx); ok {
		s.m.cacheHits.With(ms.nLabel).Add(1)
		return e, "cache", nil
	}
	st := ms.mount.Store()
	e, src, err := st.Lookup(idx, ms.orbits)
	if err != nil {
		return nil, "", err
	}
	switch src {
	case LookupDirect:
		s.m.storeHits.With(ms.nLabel).Add(1)
		e = stripOrbitSize(e)
		ms.lru.put(idx, e)
		return e, "store", nil
	case LookupRehydrated:
		s.m.rehydrated.With(ms.nLabel).Add(1)
		ms.lru.put(idx, e)
		return e, "store-rehydrated", nil
	}
	// Miss: compute live, persist the canonical form the store's kind
	// expects, answer for the queried index. Solve-mode stores get no
	// write-back: the sweep's (k, rounds) configuration is not
	// recoverable, so a classify-only entry would conflict with the
	// completed sweep's bytes on a later merge.
	s.m.storeMisses.With(ms.nLabel).Add(1)
	s.m.computed.With(ms.nLabel).Add(1)
	t0 := time.Now()
	e, persist, err := s.computeEntry(ms, idx)
	if err != nil {
		return nil, "", err
	}
	s.m.computeSeconds.Observe(time.Since(t0).Seconds())
	if !s.opts.ReadOnly && !st.SolveMode() {
		if added, err := st.PutNew(persist); err != nil {
			return nil, "", err
		} else if added {
			s.m.persisted.With(ms.nLabel).Add(1)
		}
	}
	ms.lru.put(idx, e)
	return e, "computed", nil
}

// computeEntry classifies idx on the live path. For orbit stores the
// persisted form is the orbit's canonical representative (carrying its
// orbit size, so store aggregates stay orbit-weighted); the response
// entry is always the queried index's own.
func (s *Server) computeEntry(ms *mountState, idx uint64) (respond, persist *census.Entry, err error) {
	n := ms.mount.N()
	if ms.mount.Store().Orbits() {
		canon, size, perm := ms.orbits.CanonicalWithWitness(idx)
		ce, err := ms.classify.Examine(canon)
		if err != nil {
			return nil, nil, err
		}
		ce.OrbitSize = size
		persist = &ce
		if canon == idx {
			return stripOrbitSize(&ce), persist, nil
		}
		respond, err = rehydrateWith(n, persist, idx, perm)
		if err != nil {
			return nil, nil, err
		}
		return respond, persist, nil
	}
	e, err := ms.classify.Examine(idx)
	if err != nil {
		return nil, nil, err
	}
	return &e, &e, nil
}

// entriesResponse is the paginated JSON form of /v1/entries. Entries
// are the raw stored census lines (orbit stores: canonical
// representatives with their orbit sizes).
type entriesResponse struct {
	N        int               `json:"n"`
	From     uint64            `json:"from"`
	To       uint64            `json:"to"`
	Count    int               `json:"count"`
	Entries  []json.RawMessage `json:"entries"`
	More     bool              `json:"more"`
	NextFrom uint64            `json:"next_from,omitempty"`
}

// handleEntries is the range scan: stored entries with from <= index
// < to, paginated (JSON, limit + next_from) or streamed (format=jsonl,
// page-buffered so the store lock is never held across client writes).
func (s *Server) handleEntries(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		api.Error(w, r, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	q := r.URL.Query()
	ms, ok := s.mountFor(w, r, q.Get("n"), q.Get("task"))
	if !ok {
		return
	}
	domain := adversary.CensusSize(ms.mount.N())
	from, to := uint64(0), domain
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseUint(v, 10, 64); err != nil {
			api.Error(w, r, http.StatusBadRequest, "bad from %q", v)
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseUint(v, 10, 64); err != nil {
			api.Error(w, r, http.StatusBadRequest, "bad to %q", v)
			return
		}
	}
	if from > domain || to > domain || from > to {
		api.Error(w, r, http.StatusBadRequest, "range [%d, %d) outside the n=%d domain [0, %d]",
			from, to, ms.mount.N(), domain)
		return
	}
	limit := DefaultBlockEntries
	if v := q.Get("limit"); v != "" {
		l, err := strconv.Atoi(v)
		if err != nil || l < 1 {
			api.Error(w, r, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		if l > maxRangeLimit {
			l = maxRangeLimit
		}
		limit = l
	}
	st := ms.mount.Store()
	if q.Get("format") == "jsonl" {
		// Stream the window page by page: the store lock is taken per
		// page, never across a client write.
		w.Header().Set("Content-Type", "application/x-ndjson")
		wrote := false
		for {
			page, err := st.Range(from, to, limit)
			if err != nil {
				// Before the first byte the envelope still works; after,
				// the only honest signal is cutting the stream short.
				if !wrote {
					api.Error(w, r, http.StatusInternalServerError, "range: %v", err)
				}
				return
			}
			for _, line := range page.Lines {
				w.Write(line)
				w.Write([]byte{'\n'})
				wrote = true
			}
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			if !page.More {
				return
			}
			from = page.Next
		}
	}
	page, err := st.Range(from, to, limit)
	if err != nil {
		api.Error(w, r, http.StatusInternalServerError, "range: %v", err)
		return
	}
	resp := entriesResponse{
		N:       ms.mount.N(),
		From:    from,
		To:      to,
		Count:   len(page.Lines),
		Entries: make([]json.RawMessage, len(page.Lines)),
		More:    page.More,
	}
	for i, line := range page.Lines {
		resp.Entries[i] = json.RawMessage(line)
	}
	if page.More {
		resp.NextFrom = page.Next
	}
	api.WriteJSON(w, resp)
}

// summaryResponse is the /v1/summary envelope.
type summaryResponse struct {
	N       int            `json:"n"`
	Summary census.Summary `json:"summary"`
	Store   Stats          `json:"store"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		api.Error(w, r, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	ms, ok := s.mountFor(w, r, r.URL.Query().Get("n"), r.URL.Query().Get("task"))
	if !ok {
		return
	}
	sum, err := ms.mount.Store().Summary()
	if err != nil {
		api.Error(w, r, http.StatusInternalServerError, "summary: %v", err)
		return
	}
	api.WriteJSON(w, summaryResponse{N: ms.mount.N(), Summary: sum, Store: ms.mount.Store().Stats()})
}

// solveResponse is the /v1/solve envelope. KTask is set for kset
// decisions (the pre-spec surface); Task carries the canonical spec of
// every non-kset decision.
type solveResponse struct {
	N         int    `json:"n"`
	Index     uint64 `json:"index"`
	Adversary string `json:"adversary"`
	Fair      bool   `json:"fair"`
	Setcon    int    `json:"setcon"`
	KTask     int    `json:"k_task,omitempty"`
	Task      string `json:"task,omitempty"`
	MaxRounds int    `json:"max_rounds"`
	Solved    bool   `json:"solved"`
	Solvable  *bool  `json:"solvable,omitempty"`
	Rounds    int    `json:"rounds,omitempty"`
	RAFacets  int    `json:"ra_facets,omitempty"`
	Undecided bool   `json:"undecided,omitempty"`
	Source    string `json:"source"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		api.Error(w, r, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	q := r.URL.Query()
	// The mount only supplies the n-domain and universe: /v1/solve is a
	// live decision of any registered task, so the task parameter does
	// not route mounts here.
	ms, ok := s.mountFor(w, r, q.Get("n"), "")
	if !ok {
		return
	}
	idx, ok := ms.parseIndex(w, r, q.Get("index"))
	if !ok {
		return
	}
	n := ms.mount.N()
	spec := tasks.KSetSpec(1)
	if v := q.Get("task"); v != "" {
		if q.Get("ktask") != "" {
			api.Error(w, r, http.StatusBadRequest, "task and ktask are mutually exclusive")
			return
		}
		var err error
		if spec, err = tasks.ParseSpec(v); err != nil {
			api.Error(w, r, http.StatusBadRequest, "bad task %q: %v", v, err)
			return
		}
		if k := spec.Param("k"); spec.IsKSet() && k > n {
			api.Error(w, r, http.StatusBadRequest, "task %q: k=%d outside [1, %d]", v, k, n)
			return
		}
	} else if v := q.Get("ktask"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 1 || k > n {
			api.Error(w, r, http.StatusBadRequest, "ktask %q outside [1, %d]", v, n)
			return
		}
		spec = tasks.KSetSpec(k)
	}
	maxRounds := s.opts.MaxRounds
	if v := q.Get("rounds"); v != "" {
		l, err := strconv.Atoi(v)
		if err != nil || l < 1 || l > 4 {
			api.Error(w, r, http.StatusBadRequest, "rounds %q outside [1, 4]", v)
			return
		}
		maxRounds = l
	}
	// Always a live decision over the shared universe and tower cache:
	// store entries only memoize the census' own solve configuration,
	// while /v1/solve answers for any (task, rounds).
	ex, err := s.solver(ms, spec.String(), maxRounds)
	if err != nil {
		api.Error(w, r, http.StatusInternalServerError, "solve: %v", err)
		return
	}
	s.m.computed.With(ms.nLabel).Add(1)
	t0 := time.Now()
	e, err := ex.Examine(idx)
	if err != nil {
		api.Error(w, r, http.StatusInternalServerError, "solve %d: %v", idx, err)
		return
	}
	s.m.computeSeconds.Observe(time.Since(t0).Seconds())
	resp := solveResponse{
		N: n, Index: idx, Adversary: e.Adversary,
		Fair: e.Fair, Setcon: e.Setcon,
		MaxRounds: maxRounds,
		Solved:    e.Solved, Solvable: e.Solvable, Rounds: e.Rounds,
		RAFacets: e.RAFacets, Undecided: e.Undecided,
		Source: "computed",
	}
	if spec.IsKSet() {
		resp.KTask = spec.Param("k")
	} else {
		resp.Task = spec.String()
	}
	api.WriteJSON(w, resp)
}

// solver returns the examiner deciding the canonical spec at the
// mount's n within rounds, built on the first request for that key
// and kept while fewer than maxSolvers are. Building a task's examiner
// builds the task once (simplex agreement takes tens of milliseconds),
// so it is done outside the lock.
func (s *Server) solver(ms *mountState, spec string, rounds int) (*census.Examiner, error) {
	key := solveKey{n: ms.mount.N(), spec: spec, rounds: rounds}
	s.solversMu.Lock()
	ex, ok := s.solvers[key]
	s.solversMu.Unlock()
	if ok {
		return ex, nil
	}
	ex, err := census.NewExaminer(key.n, census.Options{
		Task: spec, MaxRounds: rounds,
		Universe: ms.universe, Cache: s.tcache,
	})
	if err != nil {
		return nil, err
	}
	s.solversMu.Lock()
	defer s.solversMu.Unlock()
	if kept, ok := s.solvers[key]; ok {
		return kept, nil
	}
	if len(s.solvers) < maxSolvers {
		s.solvers[key] = ex
	}
	return ex, nil
}

// storeInfo is one mount in the /v1/stores listing.
type storeInfo struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	Kind   string `json:"kind"` // full | orbit | empty
	Solve  bool   `json:"solve,omitempty"`
	Task   string `json:"task,omitempty"` // canonical spec the store answers
	Domain uint64 `json:"domain"`
	Stats  Stats  `json:"stats"`
}

// storesResponse is the /v1/stores envelope.
type storesResponse struct {
	Stores []storeInfo `json:"stores"`
}

func (s *Server) handleStores(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	resp := storesResponse{Stores: []storeInfo{}}
	for _, mt := range s.reg.Mounts() {
		st := mt.Store()
		kind := "full"
		stats := st.Stats()
		if st.Orbits() {
			kind = "orbit"
		} else if stats.Entries == 0 {
			kind = "empty"
		}
		resp.Stores = append(resp.Stores, storeInfo{
			Name:   mt.Name(),
			N:      mt.N(),
			Kind:   kind,
			Solve:  st.SolveMode(),
			Task:   st.Task(),
			Domain: adversary.CensusSize(mt.N()),
			Stats:  stats,
		})
	}
	api.WriteJSON(w, resp)
}

// healthzResponse is the /healthz envelope: liveness plus the
// counters summed over n (per-n breakdowns live on /metrics).
type healthzResponse struct {
	Status     string `json:"status"`
	Mounts     []int  `json:"mounts"`
	UptimeSec  int64  `json:"uptime_sec"`
	Requests   uint64 `json:"requests"`
	CacheHits  uint64 `json:"cache_hits"`
	StoreHits  uint64 `json:"store_hits"`
	Rehydrated uint64 `json:"rehydrated"`
	Computed   uint64 `json:"computed"`
	Persisted  uint64 `json:"persisted"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, healthzResponse{
		Status:     "ok",
		Mounts:     s.reg.Ns(),
		UptimeSec:  int64(time.Since(s.started).Seconds()),
		Requests:   s.requests.Load(),
		CacheHits:  s.m.cacheHits.Total(),
		StoreHits:  s.m.storeHits.Total(),
		Rehydrated: s.m.rehydrated.Total(),
		Computed:   s.m.computed.Total(),
		Persisted:  s.m.persisted.Total(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		api.WriteJSON(w, map[string]string{"status": "draining"})
		return
	}
	api.WriteJSON(w, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.telemetry.WritePrometheus(w)
}

// stripOrbitSize normalizes a stored entry for query responses: the
// orbit size is sweep metadata of orbit-reduced stores, not part of the
// adversary's census record, so /v1/classify answers are byte-identical
// to a full sweep's entries whatever store kind backs them.
func stripOrbitSize(e *census.Entry) *census.Entry {
	if e.OrbitSize == 0 {
		return e
	}
	cp := e.Clone()
	cp.OrbitSize = 0
	return cp
}

// entryLRU is a bounded index → entry cache. Entries are stored and
// returned as clones, so callers never share mutable state.
type entryLRU struct {
	mu    sync.Mutex
	cap   int
	items map[uint64]*list.Element
	order *list.List // front = most recent
}

type lruItem struct {
	idx uint64
	e   *census.Entry
}

func newEntryLRU(capacity int) *entryLRU {
	return &entryLRU{
		cap:   capacity,
		items: make(map[uint64]*list.Element, capacity),
		order: list.New(),
	}
}

func (l *entryLRU) get(idx uint64) (*census.Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[idx]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem).e.Clone(), true
}

func (l *entryLRU) put(idx uint64, e *census.Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[idx]; ok {
		el.Value.(*lruItem).e = e.Clone()
		l.order.MoveToFront(el)
		return
	}
	l.items[idx] = l.order.PushFront(&lruItem{idx: idx, e: e.Clone()})
	for l.order.Len() > l.cap {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.items, back.Value.(*lruItem).idx)
	}
}
