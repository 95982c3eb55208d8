package fabric

// The coordinator half of the fabric: lease bookkeeping over the unit
// partition, the v1 lease protocol handlers, shard validation, and the
// conflict-checked fold into the store ledger.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/census"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tasks"
)

// CoordinatorOptions tune a campaign coordinator.
type CoordinatorOptions struct {
	// UnitSize is the ranks per unit (orbit mode) or raw indices per
	// unit (full mode). <= 0 selects 2048 ranks / 65536 indices.
	UnitSize uint64

	// TTL is the default lease duration when an acquire does not
	// request one; requested TTLs are capped at 10×. <= 0 selects 60s.
	TTL time.Duration

	// SpoolDir receives uploaded shards before validation and merge.
	// Empty selects the system temp directory.
	SpoolDir string

	// MaxShardBytes caps one uploaded (compressed) shard. <= 0
	// selects 1 GiB.
	MaxShardBytes int64

	// Auth, when non-nil, requires a valid API key on every /v1
	// request. Probe endpoints stay open.
	Auth *api.AuthConfig

	// AccessLog, when non-nil, receives one structured JSON line per
	// request.
	AccessLog io.Writer

	// Log, when non-nil, receives one line per campaign event (lease
	// granted / expired+requeued / completed / conflict).
	Log io.Writer

	// Tracer records the campaign's spans (fabric.campaign →
	// fabric.lease → fabric.merge). Nil selects obs.DefaultTracer.
	Tracer *obs.Tracer

	// now overrides the clock (lease-expiry tests).
	now func() time.Time
}

// unitStatus is the ledger state of one unit.
type unitStatus int

const (
	unitPending unitStatus = iota
	unitLeased
	unitDone
)

// unitState is one unit's ledger row.
type unitState struct {
	Unit
	status   unitStatus
	holder   string // lease id while leased
	attempts int    // leases granted for this unit
	conflict string // non-empty: a completion conflicted with the ledger
}

// lease is one granted lease. Records are kept for the life of the
// process — a completion arriving after expiry (or even after another
// worker completed the unit) still folds in through the
// conflict-checked merge.
type lease struct {
	id       string
	unitID   int
	worker   string
	ttl      time.Duration
	deadline time.Time
	done     bool
	released bool
	expired  bool
	span     *obs.ActiveSpan // fabric.lease, ended at complete/expire/release
}

// workerStat aggregates one worker id's activity for /v1/fabric/status.
type workerStat struct {
	Leases    int   `json:"leases"`
	Completed int   `json:"completed"`
	LastSeen  int64 `json:"last_seen_unix"`
}

// fabricMetrics is the coordinator's metric set.
type fabricMetrics struct {
	http         *api.HTTPMetrics
	leases       *obs.CounterVec // event: granted|renewed|completed|expired|released|conflict
	mergeSeconds *obs.Histogram
	mergedBytes  *obs.Counter
}

func newFabricMetrics() *fabricMetrics {
	return &fabricMetrics{
		http:   api.NewHTTPMetrics("factool_fabric"),
		leases: obs.NewCounterVec("factool_fabric_leases_total", "Lease lifecycle events by kind.", "event"),
		mergeSeconds: obs.NewHistogram("factool_fabric_merge_seconds",
			"Shard validate+merge latency in seconds.", obs.DefaultLatencyBuckets),
		mergedBytes: obs.NewCounter("factool_fabric_merged_bytes_total",
			"Compressed shard bytes folded into the ledger store."),
	}
}

// Coordinator runs one campaign: it leases units to workers and folds
// completed shards into the store. Create with NewCoordinator, serve
// Handler; all methods are safe for concurrent use.
type Coordinator struct {
	st       *store.Store
	camp     Campaign
	opts     CoordinatorOptions
	mw       *api.Middleware
	m        *fabricMetrics
	reg      *obs.Registry
	tracer   *obs.Tracer
	campSpan *obs.ActiveSpan
	started  time.Time

	mu        sync.Mutex
	units     []*unitState
	pending   []int // unit ids awaiting a lease, FIFO (requeues at the front)
	leases    map[string]*lease
	workers   map[string]*workerStat
	leaseSeq  uint64
	epoch     string
	doneUnits int
	requeues  uint64
	conflicts int

	doneOnce sync.Once
	doneCh   chan struct{}
}

// NewCoordinator builds a coordinator over an open store. A non-empty
// store must match the campaign's kind; its resident entries are
// recovered as ledger state (fully-covered units never lease again),
// which is how an interrupted campaign resumes.
func NewCoordinator(st *store.Store, camp Campaign, opts CoordinatorOptions) (*Coordinator, error) {
	if st == nil {
		return nil, errors.New("fabric: nil store")
	}
	if err := camp.normalize(); err != nil {
		return nil, err
	}
	if st.N() != camp.N {
		return nil, fmt.Errorf("fabric: store is n=%d, campaign is n=%d", st.N(), camp.N)
	}
	if st.Stats().Entries > 0 {
		if st.Orbits() != camp.Orbits {
			return nil, fmt.Errorf("fabric: store orbit mode %v, campaign %v", st.Orbits(), camp.Orbits)
		}
		if st.SolveMode() != camp.Solve {
			return nil, fmt.Errorf("fabric: store solve mode %v, campaign %v", st.SolveMode(), camp.Solve)
		}
	}
	// Bind the campaign's task spec into the manifest up front: a store
	// answering a different task refuses here (before any unit leases),
	// and a fresh store records which task its verdicts will answer —
	// `factool store verify` re-derives solve entries from that record.
	if camp.Solve {
		if err := st.BindTaskSpec(camp.Task); err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
	}
	if opts.UnitSize == 0 {
		if camp.Orbits {
			opts.UnitSize = 2048
		} else {
			opts.UnitSize = 1 << 16
		}
	}
	if opts.TTL <= 0 {
		opts.TTL = 60 * time.Second
	}
	if opts.SpoolDir == "" {
		opts.SpoolDir = os.TempDir()
	}
	if opts.MaxShardBytes <= 0 {
		opts.MaxShardBytes = 1 << 30
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	units, err := PartitionUnits(camp, opts.UnitSize)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		st:      st,
		camp:    camp,
		opts:    opts,
		m:       newFabricMetrics(),
		started: opts.now(),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerStat),
		epoch:   fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),
		doneCh:  make(chan struct{}),
	}
	c.mw = api.NewMiddleware(api.MiddlewareOptions{
		Metrics:   c.m.http,
		Auth:      opts.Auth,
		AccessLog: opts.AccessLog,
	})
	c.tracer = opts.Tracer
	if c.tracer == nil {
		c.tracer = obs.DefaultTracer
	}
	// Per-instance registry: the coordinator's own families plus the
	// process-global ones (census, solver, runtime), so one scrape of
	// /metrics sees the whole campaign — and two coordinators in one
	// test process never collide on registration.
	c.reg = obs.NewRegistry()
	c.reg.MustRegister("fabric-http", c.m.http)
	c.reg.MustRegister("fabric-leases", c.m.leases)
	c.reg.MustRegister("fabric-merge-seconds", c.m.mergeSeconds)
	c.reg.MustRegister("fabric-merged-bytes", c.m.mergedBytes)
	c.reg.MustRegister("fabric-campaign", obs.CollectorFunc(c.writeCampaignGauges))
	c.reg.Include(obs.Default)
	c.campSpan = c.tracer.Start("fabric.campaign", 0,
		"n", fmt.Sprint(camp.N),
		"orbits", fmt.Sprint(camp.Orbits),
		"solve", fmt.Sprint(camp.Solve),
		"units", fmt.Sprint(len(units)))
	for _, u := range units {
		c.units = append(c.units, &unitState{Unit: u})
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	for _, us := range c.units {
		if us.status != unitDone {
			c.pending = append(c.pending, us.ID)
		}
	}
	if c.doneUnits == len(c.units) {
		c.markDone()
		c.logf("campaign already complete: %d units resident in the store", c.doneUnits)
	} else {
		c.logf("campaign open: %d/%d units resident, %d to sweep",
			c.doneUnits, len(c.units), len(c.units)-c.doneUnits)
	}
	return c, nil
}

// recover replays the store into the ledger: one range walk counts the
// entries resident in each unit; a unit holding its full complement is
// done. (Partial counts stay pending — the re-sweep's entries merge as
// byte-identical duplicates.)
func (c *Coordinator) recover() error {
	if c.st.Stats().Entries == 0 {
		return nil
	}
	ui := 0
	counts := make([]uint64, len(c.units))
	from := uint64(0)
	for {
		page, err := c.st.Range(from, c.units[len(c.units)-1].Hi, 4096)
		if err != nil {
			return fmt.Errorf("fabric: recovering ledger: %w", err)
		}
		for _, idx := range page.Indices {
			for ui < len(c.units) && idx >= c.units[ui].Hi {
				ui++
			}
			if ui == len(c.units) {
				break
			}
			counts[ui]++
		}
		if !page.More {
			break
		}
		from = page.Next
	}
	for i, us := range c.units {
		if counts[i] == us.Ranks {
			us.status = unitDone
			c.doneUnits++
		}
	}
	return nil
}

// Done is closed once every unit's entries are resident in the store.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// markDone closes the done channel and ends the campaign span, once.
func (c *Coordinator) markDone() {
	c.doneOnce.Do(func() {
		close(c.doneCh)
		c.campSpan.End()
	})
}

// Registry exposes the coordinator's telemetry registry (its own
// families plus the included process-global ones) so a -debug-addr
// surface can serve the same exposition as /metrics.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// logf writes one campaign event line.
func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Log == nil {
		return
	}
	fmt.Fprintf(c.opts.Log, "fabric: "+format+"\n", args...)
}

// Handler returns the coordinator's HTTP surface, wrapped in the
// shared request-id / metrics / logging / auth middleware.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/leases", c.handleAcquire)
	mux.HandleFunc("POST /v1/leases/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/leases/{id}/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/leases/{id}/release", c.handleRelease)
	mux.HandleFunc("GET /v1/fabric/status", c.handleStatus)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c.mw.Wrap(mux)
}

// expireLocked lapses every overdue lease, requeueing units still held
// by one. Requeued units go to the front of the queue so stragglers
// don't starve behind fresh work. Callers hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, l := range c.leases {
		if l.done || l.released || l.expired || now.Before(l.deadline) {
			continue
		}
		l.expired = true
		c.m.leases.With("expired").Add(1)
		l.span.SetAttr("outcome", "expired")
		l.span.End()
		us := c.units[l.unitID]
		if us.status == unitLeased && us.holder == l.id {
			us.status = unitPending
			us.holder = ""
			c.pending = append([]int{us.ID}, c.pending...)
			c.requeues++
			c.logf("lease %s expired; unit %d [%d,%d) requeued (worker %s)",
				l.id, us.ID, us.Lo, us.Hi, l.worker)
		}
	}
}

// acquireRequest is the POST /v1/leases body. Task, when non-empty, is
// the spec the worker expects to sweep — a campaign deciding a
// different task answers 409 instead of leasing.
type acquireRequest struct {
	Worker string `json:"worker"`
	TTLSec int    `json:"ttl_sec,omitempty"`
	Task   string `json:"task,omitempty"`
}

// leaseInfo describes a granted lease to its worker.
type leaseInfo struct {
	ID       string   `json:"id"`
	Unit     Unit     `json:"unit"`
	Campaign Campaign `json:"campaign"`
	TTLSec   int      `json:"ttl_sec"`
}

// leaseResponse is the acquire envelope: a lease, a wait hint, or the
// campaign-done signal.
type leaseResponse struct {
	Status   string     `json:"status"` // lease | wait | done
	RetrySec int        `json:"retry_sec,omitempty"`
	Lease    *leaseInfo `json:"lease,omitempty"`
}

func (c *Coordinator) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		api.Error(w, r, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if req.Worker == "" {
		api.Error(w, r, http.StatusBadRequest, "missing worker id")
		return
	}
	if req.Task != "" {
		spec, err := tasks.ParseSpec(req.Task)
		if err != nil {
			api.Error(w, r, http.StatusBadRequest, "bad task %q: %v", req.Task, err)
			return
		}
		if spec.String() != c.camp.Task {
			campaignTask := c.camp.Task
			if campaignTask == "" {
				campaignTask = "none (classification campaign)"
			}
			api.Error(w, r, http.StatusConflict, "worker %s sweeps task %s, campaign decides %s",
				req.Worker, spec, campaignTask)
			return
		}
	}
	ttl := c.opts.TTL
	if req.TTLSec > 0 {
		ttl = time.Duration(req.TTLSec) * time.Second
		if max := 10 * c.opts.TTL; ttl > max {
			ttl = max
		}
	}
	now := c.opts.now()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	c.touchWorkerLocked(req.Worker, now)
	if len(c.pending) == 0 {
		if c.doneUnits == len(c.units) {
			api.WriteJSON(w, leaseResponse{Status: "done"})
			return
		}
		retry := int(c.opts.TTL / 4 / time.Second)
		if retry < 1 {
			retry = 1
		}
		api.WriteJSON(w, leaseResponse{Status: "wait", RetrySec: retry})
		return
	}
	us := c.units[c.pending[0]]
	c.pending = c.pending[1:]
	c.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("%s-%06d", c.epoch, c.leaseSeq),
		unitID:   us.ID,
		worker:   req.Worker,
		ttl:      ttl,
		deadline: now.Add(ttl),
	}
	l.span = c.tracer.Start("fabric.lease", c.campSpan.ID(),
		"lease", l.id,
		"unit", fmt.Sprint(us.ID),
		"worker", req.Worker,
		"attempt", fmt.Sprint(us.attempts+1))
	c.leases[l.id] = l
	us.status = unitLeased
	us.holder = l.id
	us.attempts++
	c.workers[req.Worker].Leases++
	c.m.leases.With("granted").Add(1)
	c.logf("lease %s: unit %d [%d,%d) %d ranks -> worker %s (ttl %s, attempt %d)",
		l.id, us.ID, us.Lo, us.Hi, us.Ranks, req.Worker, ttl, us.attempts)
	api.WriteJSON(w, leaseResponse{Status: "lease", Lease: &leaseInfo{
		ID:       l.id,
		Unit:     us.Unit,
		Campaign: c.camp,
		TTLSec:   int(ttl / time.Second),
	}})
}

// touchWorkerLocked records worker liveness. Callers hold c.mu.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerStat {
	ws, ok := c.workers[id]
	if !ok {
		ws = &workerStat{}
		c.workers[id] = ws
	}
	ws.LastSeen = now.Unix()
	return ws
}

// leaseByID resolves a path id. Callers hold c.mu.
func (c *Coordinator) leaseByID(w http.ResponseWriter, r *http.Request) (*lease, bool) {
	l, ok := c.leases[r.PathValue("id")]
	if !ok {
		api.Error(w, r, http.StatusNotFound, "unknown lease %q", r.PathValue("id"))
		return nil, false
	}
	return l, true
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	now := c.opts.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leaseByID(w, r)
	if !ok {
		return
	}
	c.touchWorkerLocked(l.worker, now)
	if l.done {
		api.WriteJSON(w, map[string]string{"status": "completed"})
		return
	}
	if l.expired || l.released {
		api.Error(w, r, http.StatusGone, "lease %s is no longer held (expired or released)", l.id)
		return
	}
	l.deadline = now.Add(l.ttl)
	c.m.leases.With("renewed").Add(1)
	api.WriteJSON(w, map[string]any{"status": "ok", "deadline_unix": l.deadline.Unix()})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	now := c.opts.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leaseByID(w, r)
	if !ok {
		return
	}
	c.touchWorkerLocked(l.worker, now)
	if !l.done && !l.released && !l.expired {
		l.released = true
		l.span.SetAttr("outcome", "released")
		l.span.End()
		us := c.units[l.unitID]
		if us.status == unitLeased && us.holder == l.id {
			us.status = unitPending
			us.holder = ""
			c.pending = append([]int{us.ID}, c.pending...)
			c.logf("lease %s released; unit %d requeued (worker %s)", l.id, us.ID, l.worker)
		}
		c.m.leases.With("released").Add(1)
	}
	api.WriteJSON(w, map[string]string{"status": "ok"})
}

// completeResponse acknowledges a folded shard.
type completeResponse struct {
	Status     string `json:"status"`
	Added      uint64 `json:"added"`
	Duplicates uint64 `json:"duplicates"`
	UnitsDone  int    `json:"units_done"`
	UnitsTotal int    `json:"units_total"`
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	l, ok := c.leaseByID(w, r)
	if !ok {
		c.mu.Unlock()
		return
	}
	unit := c.units[l.unitID].Unit
	c.touchWorkerLocked(l.worker, c.opts.now())
	c.mu.Unlock()

	// Spool, validate and merge outside the ledger lock: merges are
	// the slow path and the store serializes them itself.
	spool, shardBytes, err := c.spoolShard(r.Body)
	if spool != "" {
		defer os.Remove(spool)
	}
	if err != nil {
		api.Error(w, r, http.StatusBadRequest, "reading shard: %v", err)
		return
	}
	t0 := time.Now()
	mergeSpan := c.tracer.Start("fabric.merge", l.span.ID(),
		"unit", fmt.Sprint(unit.ID), "bytes", fmt.Sprint(shardBytes))
	if err := validateShard(spool, unit); err != nil {
		mergeSpan.SetAttr("outcome", "invalid")
		mergeSpan.End()
		api.Error(w, r, http.StatusBadRequest, "lease %s unit %d: %v", l.id, unit.ID, err)
		return
	}
	stats, err := c.st.Merge([]string{spool}, store.MergeOptions{})
	c.m.mergeSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		status := http.StatusInternalServerError
		outcome := "error"
		if errors.Is(err, store.ErrConflict) || errors.Is(err, store.ErrKindMismatch) {
			status = http.StatusConflict
			outcome = "conflict"
			c.mu.Lock()
			c.units[l.unitID].conflict = err.Error()
			c.conflicts++
			c.mu.Unlock()
			c.m.leases.With("conflict").Add(1)
			c.logf("lease %s: unit %d CONFLICT: %v", l.id, unit.ID, err)
		}
		mergeSpan.SetAttr("outcome", outcome)
		mergeSpan.End()
		api.Error(w, r, status, "merging unit %d: %v", unit.ID, err)
		return
	}
	c.m.mergedBytes.Add(uint64(shardBytes))
	mergeSpan.SetAttr("added", fmt.Sprint(stats.Added))
	mergeSpan.SetAttr("duplicates", fmt.Sprint(stats.Duplicates))
	mergeSpan.End()

	now := c.opts.now()
	c.mu.Lock()
	l.done = true
	us := c.units[l.unitID]
	if us.status != unitDone {
		us.status = unitDone
		us.holder = ""
		c.doneUnits++
		// The unit may sit in the pending queue (expiry requeued it
		// before this late completion landed) — drop it.
		for i, id := range c.pending {
			if id == us.ID {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
	}
	if ws := c.touchWorkerLocked(l.worker, now); true {
		ws.Completed++
	}
	done, total := c.doneUnits, len(c.units)
	c.mu.Unlock()
	c.m.leases.With("completed").Add(1)
	l.span.SetAttr("outcome", "completed")
	l.span.End()
	c.logf("lease %s: unit %d completed by %s (added %d, duplicates %d) [%d/%d]",
		l.id, unit.ID, l.worker, stats.Added, stats.Duplicates, done, total)
	if done == total {
		c.markDone()
		c.logf("campaign complete: %d units, %d entries in the store", total, c.st.Stats().Entries)
	}
	api.WriteJSON(w, completeResponse{
		Status: "ok", Added: stats.Added, Duplicates: stats.Duplicates,
		UnitsDone: done, UnitsTotal: total,
	})
}

// spoolShard copies an upload to disk, enforcing the size cap. It
// returns the spool path and the compressed byte count received.
func (c *Coordinator) spoolShard(body io.Reader) (string, int64, error) {
	f, err := os.CreateTemp(c.opts.SpoolDir, "fabric-shard-*.jsonl.gz")
	if err != nil {
		return "", 0, err
	}
	n, err := io.Copy(f, io.LimitReader(body, c.opts.MaxShardBytes+1))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return f.Name(), n, err
	}
	if n > c.opts.MaxShardBytes {
		return f.Name(), n, fmt.Errorf("shard exceeds the %d-byte cap", c.opts.MaxShardBytes)
	}
	return f.Name(), n, nil
}

// ErrInvalidShard wraps every reason validateShard rejects an upload.
var ErrInvalidShard = errors.New("fabric: invalid shard")

// validateShard checks an uploaded shard covers its unit exactly:
// strictly increasing indices inside [Lo, Hi), and the unit's full
// complement of entries — a short sweep or a shard for the wrong range
// is rejected before it can poison the ledger. Every line must also be
// a census entry exactly as a sweep's JSONL sink writes it: it decodes
// into census.Entry and json.Marshal re-encodes it to the same bytes.
// Anything looser would merge into the store and then fail every read.
func validateShard(path string, u Unit) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var rd io.Reader = bufio.NewReaderSize(f, 1<<16)
	if br := rd.(*bufio.Reader); true {
		if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
			gz, err := gzip.NewReader(br)
			if err != nil {
				return fmt.Errorf("%w: inflating: %w", ErrInvalidShard, err)
			}
			defer gz.Close()
			rd = gz
		}
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var count uint64
	last := uint64(0)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e census.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("%w: line %d: not a census entry: %v", ErrInvalidShard, count+1, err)
		}
		if canon, err := json.Marshal(&e); err != nil || !bytes.Equal(canon, line) {
			return fmt.Errorf("%w: line %d: not a census entry as a sweep writes it", ErrInvalidShard, count+1)
		}
		if e.Index < u.Lo || e.Index >= u.Hi {
			return fmt.Errorf("%w: entry %d outside the unit range [%d, %d)", ErrInvalidShard, e.Index, u.Lo, u.Hi)
		}
		if count > 0 && e.Index <= last {
			return fmt.Errorf("%w: indices not strictly increasing at %d", ErrInvalidShard, e.Index)
		}
		last = e.Index
		count++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: scanning: %w", ErrInvalidShard, err)
	}
	if count != u.Ranks {
		return fmt.Errorf("%w: holds %d entries, unit needs %d", ErrInvalidShard, count, u.Ranks)
	}
	return nil
}

// StatusResponse is the GET /v1/fabric/status envelope.
type StatusResponse struct {
	Campaign Campaign `json:"campaign"`
	Units    struct {
		Total    int `json:"total"`
		Done     int `json:"done"`
		Leased   int `json:"leased"`
		Pending  int `json:"pending"`
		Conflict int `json:"conflict"`
	} `json:"units"`
	UnitSize     uint64                 `json:"unit_size"`
	Requeues     uint64                 `json:"requeues"`
	StoreEntries uint64                 `json:"store_entries"`
	Workers      map[string]*workerStat `json:"workers"`
	Done         bool                   `json:"done"`
	UptimeSec    int64                  `json:"uptime_sec"`
}

// Status snapshots campaign progress (also the /v1/fabric/status body).
func (c *Coordinator) Status() StatusResponse {
	now := c.opts.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	resp := StatusResponse{
		Campaign:     c.camp,
		UnitSize:     c.opts.UnitSize,
		Requeues:     c.requeues,
		StoreEntries: c.st.Stats().Entries,
		Workers:      make(map[string]*workerStat, len(c.workers)),
		Done:         c.doneUnits == len(c.units),
		UptimeSec:    int64(now.Sub(c.started).Seconds()),
	}
	resp.Units.Total = len(c.units)
	for _, us := range c.units {
		switch us.status {
		case unitDone:
			resp.Units.Done++
		case unitLeased:
			resp.Units.Leased++
		default:
			resp.Units.Pending++
		}
		if us.conflict != "" {
			resp.Units.Conflict++
		}
	}
	for id, ws := range c.workers {
		cp := *ws
		resp.Workers[id] = &cp
	}
	return resp
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, c.Status())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	done, total := c.doneUnits, len(c.units)
	c.mu.Unlock()
	api.WriteJSON(w, map[string]any{
		"status":      "ok",
		"units_done":  done,
		"units_total": total,
		"uptime_sec":  int64(c.opts.now().Sub(c.started).Seconds()),
	})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, map[string]string{"status": "ready"})
}

// writeCampaignGauges derives the campaign progress gauges from one
// Status snapshot at scrape time (registered as a collector in c.reg).
func (c *Coordinator) writeCampaignGauges(w io.Writer) {
	st := c.Status()
	obs.WriteGauge(w, "factool_fabric_units_total", "Work units in the campaign.", int64(st.Units.Total))
	obs.WriteGauge(w, "factool_fabric_units_done", "Work units whose entries are resident in the store.", int64(st.Units.Done))
	obs.WriteGauge(w, "factool_fabric_units_leased", "Work units currently leased.", int64(st.Units.Leased))
	obs.WriteGauge(w, "factool_fabric_units_pending", "Work units awaiting a lease.", int64(st.Units.Pending))
	obs.WriteGauge(w, "factool_fabric_units_conflict", "Work units with a conflicting completion.", int64(st.Units.Conflict))
	obs.WriteGauge(w, "factool_fabric_requeues_total", "Units requeued after lease expiry.", int64(st.Requeues))
	obs.WriteGauge(w, "factool_fabric_store_entries", "Entries resident in the ledger store.", int64(st.StoreEntries))
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.reg.WritePrometheus(w)
}
