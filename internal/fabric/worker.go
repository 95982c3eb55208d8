package fabric

// The worker half of the fabric: an acquire → sweep → upload loop over
// the coordinator's lease protocol, built on census.SweepRange.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/census"
	"repro/internal/chromatic"
	"repro/internal/obs"
)

// WorkerOptions configure one worker process.
type WorkerOptions struct {
	// BaseURL locates the coordinator, e.g. "http://host:8080".
	BaseURL string

	// ID names this worker in leases and status. Empty is rejected —
	// `factool work` defaults it to hostname-pid.
	ID string

	// APIKey, when non-empty, is sent as a Bearer token.
	APIKey string

	// TaskSpec, when non-empty, is the task spec this worker expects
	// the campaign to decide; it is announced on acquire and a
	// coordinator sweeping a different spec rejects the worker instead
	// of handing it units it was not provisioned for.
	TaskSpec string

	// Workers is the sweep worker-pool size per unit (census
	// Options.Workers). <= 0 selects one per CPU.
	Workers int

	// CacheBytes bounds the worker-lifetime tower cache shared across
	// units. <= 0 means unbounded.
	CacheBytes int64

	// TTLSec is the lease TTL this worker requests. <= 0 accepts the
	// coordinator's default.
	TTLSec int

	// TempDir spools shard files mid-sweep. Empty selects the system
	// temp directory.
	TempDir string

	// MaxUnits, when > 0, stops after completing that many units
	// (smoke tests and canary runs).
	MaxUnits int

	// Stop interrupts the worker when closed: the in-flight lease is
	// released and Work returns cleanly.
	Stop <-chan struct{}

	// Log, when non-nil, receives one line per worker event.
	Log io.Writer

	// Client overrides the HTTP client (tests). Nil selects a client
	// with no overall timeout — shard uploads of long units are slow.
	Client *http.Client

	// MaxOutage, when > 0, bounds how long the worker keeps retrying
	// an unreachable coordinator before giving up. 0 retries forever —
	// the durable-campaign default, where workers are expected to ride
	// out coordinator restarts.
	MaxOutage time.Duration

	// AcquireHook, when non-nil, observes every granted lease before
	// its sweep starts (k counts grants, from 1). A non-nil error
	// aborts the worker with the lease still held — the crash-mid-lease
	// hook behind `factool work -crash-after`.
	AcquireHook func(k int, leaseID string, u Unit) error

	// Registry, when non-nil, receives the worker's metric families
	// (units by outcome, uploaded entries/bytes, renew heartbeats,
	// backoff and outage state) — `factool work -debug-addr` passes
	// its debug registry here. Nil skips registration; the families
	// are still counted, just not exposed.
	Registry *obs.Registry

	// Tracer records the worker's spans (fabric.work → fabric.unit →
	// census.sweep → fabric.upload). Nil selects obs.DefaultTracer.
	Tracer *obs.Tracer

	// sleep overrides the wait between acquire attempts (tests that
	// run the coordinator on a shifted clock); false means stopped.
	sleep func(time.Duration) bool
}

// workerMetrics is one Work call's metric set. Instantiated per call
// (not package-global) so concurrent workers in one test process stay
// independent; registration into a Registry is opt-in.
type workerMetrics struct {
	units       *obs.CounterVec // result: completed|lost|stopped
	entries     *obs.Counter
	uploadBytes *obs.Counter
	renews      *obs.Counter
	acquireFail *obs.Counter
	backoffSec  *obs.Gauge
	outage      *obs.Gauge
}

func newWorkerMetrics() *workerMetrics {
	return &workerMetrics{
		units: obs.NewCounterVec("factool_worker_units_total",
			"Leased units by outcome.", "result"),
		entries: obs.NewCounter("factool_worker_entries_total",
			"Census entries uploaded across completed units."),
		uploadBytes: obs.NewCounter("factool_worker_upload_bytes_total",
			"Compressed shard bytes uploaded."),
		renews: obs.NewCounter("factool_worker_renews_total",
			"Successful lease renewal heartbeats."),
		acquireFail: obs.NewCounter("factool_worker_acquire_failures_total",
			"Acquire attempts that failed at the transport."),
		backoffSec: obs.NewGauge("factool_worker_backoff_seconds",
			"Current acquire retry backoff (0 while healthy)."),
		outage: obs.NewGauge("factool_worker_outage",
			"1 while the coordinator is unreachable."),
	}
}

func (m *workerMetrics) register(reg *obs.Registry) {
	reg.MustRegister("worker-units", m.units)
	reg.MustRegister("worker-entries", m.entries)
	reg.MustRegister("worker-upload-bytes", m.uploadBytes)
	reg.MustRegister("worker-renews", m.renews)
	reg.MustRegister("worker-acquire-failures", m.acquireFail)
	reg.MustRegister("worker-backoff", m.backoffSec)
	reg.MustRegister("worker-outage", m.outage)
}

// WorkerStats summarize one Work call.
type WorkerStats struct {
	Units   int    // units completed
	Entries uint64 // entries uploaded across them
}

// maxBackoff caps the transport-error retry backoff.
const maxBackoff = 15 * time.Second

var (
	errStopped   = errors.New("fabric: worker stopped")
	errLeaseLost = errors.New("fabric: lease lost")
)

// Work runs the worker loop until the campaign reports done, Stop
// closes, or MaxUnits is reached. Transport errors back off and retry
// (a coordinator restart is survivable mid-campaign); protocol errors
// — a conflicting or invalid shard — are fatal.
func Work(opts WorkerOptions) (WorkerStats, error) {
	var stats WorkerStats
	if opts.BaseURL == "" {
		return stats, errors.New("fabric: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		return stats, errors.New("fabric: worker needs an id")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Tracer == nil {
		opts.Tracer = obs.DefaultTracer
	}
	w := &worker{opts: opts, m: newWorkerMetrics()}
	if opts.Registry != nil {
		w.m.register(opts.Registry)
	}
	w.workSpan = opts.Tracer.Start("fabric.work", 0, "worker", opts.ID)
	defer w.workSpan.End()
	w.logf("worker %s: joining campaign at %s", opts.ID, opts.BaseURL)

	backoff := time.Second
	var outageStart time.Time
	grants := 0
	for {
		select {
		case <-opts.Stop:
			return stats, nil
		default:
		}
		resp, err := w.acquire()
		if err != nil {
			w.m.acquireFail.Inc()
			w.m.outage.Set(1)
			w.m.backoffSec.Set(int64(backoff / time.Second))
			if outageStart.IsZero() {
				outageStart = time.Now()
			}
			if opts.MaxOutage > 0 && time.Since(outageStart) > opts.MaxOutage {
				return stats, fmt.Errorf("fabric: coordinator unreachable for %s: %w", opts.MaxOutage, err)
			}
			w.logf("worker %s: acquire failed (%v); retrying in %s", opts.ID, err, backoff)
			if !w.sleep(backoff) {
				return stats, nil
			}
			backoff = min(backoff*2, maxBackoff)
			continue
		}
		backoff = time.Second
		outageStart = time.Time{}
		w.m.outage.Set(0)
		w.m.backoffSec.Set(0)
		switch resp.Status {
		case "done":
			w.logf("worker %s: campaign complete (%d units, %d entries this worker)",
				opts.ID, stats.Units, stats.Entries)
			return stats, nil
		case "wait":
			retry := time.Duration(resp.RetrySec) * time.Second
			if retry <= 0 {
				retry = time.Second
			}
			if !w.sleep(retry) {
				return stats, nil
			}
			continue
		case "lease":
		default:
			return stats, fmt.Errorf("fabric: unknown acquire status %q", resp.Status)
		}

		l := resp.Lease
		grants++
		if opts.AcquireHook != nil {
			if err := opts.AcquireHook(grants, l.ID, l.Unit); err != nil {
				return stats, err
			}
		}
		entries, campaignDone, err := w.runUnit(l)
		switch {
		case err == nil:
			w.m.units.With("completed").Add(1)
			w.m.entries.Add(entries)
			stats.Units++
			stats.Entries += entries
			if campaignDone {
				// This upload finished the campaign: exit now rather
				// than racing an -exit-on-complete coordinator's drain.
				w.logf("worker %s: campaign complete (%d units, %d entries this worker)",
					opts.ID, stats.Units, stats.Entries)
				return stats, nil
			}
			if opts.MaxUnits > 0 && stats.Units >= opts.MaxUnits {
				w.logf("worker %s: unit budget reached (%d)", opts.ID, stats.Units)
				return stats, nil
			}
		case errors.Is(err, errStopped):
			w.m.units.With("stopped").Add(1)
			return stats, nil
		case errors.Is(err, errLeaseLost):
			w.m.units.With("lost").Add(1)
			// Expired under us, or the upload 404'd after a coordinator
			// restart: the unit is someone else's now, just re-acquire.
			w.logf("worker %s: lease %s lost; re-acquiring", opts.ID, l.ID)
		default:
			return stats, err
		}
	}
}

// worker carries the loop state shared by Work's helpers.
type worker struct {
	opts     WorkerOptions
	cache    *chromatic.TowerCache
	m        *workerMetrics
	workSpan *obs.ActiveSpan
}

func (w *worker) logf(format string, args ...any) {
	if w.opts.Log == nil {
		return
	}
	fmt.Fprintf(w.opts.Log, "fabric: "+format+"\n", args...)
}

// sleep waits d or until Stop; false means stopped.
func (w *worker) sleep(d time.Duration) bool {
	if w.opts.sleep != nil {
		return w.opts.sleep(d)
	}
	select {
	case <-time.After(d):
		return true
	case <-w.opts.Stop:
		return false
	}
}

// post sends one JSON request and decodes the response into out (when
// non-nil). Non-2xx statuses surface as *protocolError.
func (w *worker) post(path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, w.opts.BaseURL+path, rd)
	if err != nil {
		return err
	}
	return w.do(req, out)
}

// protocolError is a non-2xx coordinator response.
type protocolError struct {
	status int
	body   string
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("fabric: coordinator returned %d: %s", e.status, e.body)
}

func (w *worker) do(req *http.Request, out any) error {
	if req.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.opts.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+w.opts.APIKey)
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return &protocolError{status: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (w *worker) acquire() (*leaseResponse, error) {
	var resp leaseResponse
	err := w.post("/v1/leases", acquireRequest{Worker: w.opts.ID, TTLSec: w.opts.TTLSec, Task: w.opts.TaskSpec}, &resp)
	if err != nil {
		return nil, err
	}
	if resp.Status == "lease" && resp.Lease == nil {
		return nil, errors.New("fabric: lease response without a lease")
	}
	return &resp, nil
}

// runUnit sweeps one leased unit into a gzip spool file, renewing the
// lease while the sweep runs, then uploads the shard. campaignDone
// reports that this very upload completed the campaign.
func (w *worker) runUnit(l *leaseInfo) (entries uint64, campaignDone bool, err error) {
	c := l.Campaign
	unitSpan := w.opts.Tracer.Start("fabric.unit", w.workSpan.ID(),
		"lease", l.ID, "unit", fmt.Sprint(l.Unit.ID))
	defer func() {
		switch {
		case err == nil:
			unitSpan.SetAttr("outcome", "completed")
		case errors.Is(err, errLeaseLost):
			unitSpan.SetAttr("outcome", "lost")
		case errors.Is(err, errStopped):
			unitSpan.SetAttr("outcome", "stopped")
		default:
			unitSpan.SetAttr("outcome", "error")
		}
		unitSpan.End()
	}()
	w.logf("worker %s: lease %s unit %d [%d,%d) %d ranks",
		w.opts.ID, l.ID, l.Unit.ID, l.Unit.Lo, l.Unit.Hi, l.Unit.Ranks)
	f, err := os.CreateTemp(w.opts.TempDir, "fabric-unit-*.jsonl.gz")
	if err != nil {
		return 0, false, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	sink, err := census.NewJSONLSinkCompressed(path)
	if err != nil {
		return 0, false, err
	}

	// Renewal heartbeat: extend the lease at TTL/3 until the sweep
	// ends; a 404/410 renewal means the lease is gone — stop sweeping.
	lost := make(chan struct{})
	done := make(chan struct{})
	defer close(done)
	interval := time.Duration(l.TTLSec) * time.Second / 3
	if interval < 500*time.Millisecond {
		interval = 500 * time.Millisecond
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				var pe *protocolError
				err := w.post("/v1/leases/"+l.ID+"/renew", nil, nil)
				if err == nil {
					w.m.renews.Inc()
				}
				if errors.As(err, &pe) && (pe.status == http.StatusNotFound || pe.status == http.StatusGone) {
					close(lost)
					return
				}
				// Transport errors: keep sweeping and let the upload
				// retry path sort it out.
			}
		}
	}()

	// unitStop folds the worker's Stop and a lost lease into the
	// sweep's stop channel.
	unitStop := make(chan struct{})
	go func() {
		select {
		case <-w.opts.Stop:
		case <-lost:
		case <-done:
			return
		}
		close(unitStop)
	}()

	if w.cache == nil && c.Solve {
		w.cache = chromatic.NewTowerCacheWithBudget(w.opts.CacheBytes)
		if w.opts.Registry != nil {
			// Ignore a duplicate registration: one Work per registry is
			// the wiring, but a second call must degrade, not panic.
			_ = w.opts.Registry.Register("tower-cache", w.cache)
		}
	}
	sweep := census.Options{
		Workers:     w.opts.Workers,
		Orbits:      c.Orbits,
		Task:        c.Task,
		MaxRounds:   c.MaxRounds,
		Cache:       w.cache,
		Stop:        unitStop,
		Tracer:      w.opts.Tracer,
		TraceParent: unitSpan.ID(),
	}
	if c.Solve {
		sweep.Universe = chromatic.SharedUniverse(c.N)
	}
	rep, err := census.SweepRange(c.N, sweep, sink, l.Unit.Lo, l.Unit.Hi)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, false, err
	}
	if rep.Incomplete {
		// Interrupted mid-unit: hand the lease back so the unit
		// requeues immediately instead of waiting out the TTL.
		w.post("/v1/leases/"+l.ID+"/release", nil, nil)
		select {
		case <-lost:
			return 0, false, errLeaseLost
		default:
			return 0, false, errStopped
		}
	}
	entries = rep.Summary.Total
	if c.Orbits {
		entries = rep.Summary.Orbits
	}
	campaignDone, err = w.upload(l, path, unitSpan.ID())
	if err != nil {
		return 0, false, err
	}
	return entries, campaignDone, nil
}

// upload posts the finished shard, retrying transport errors — the
// sweep work is done, so surviving a coordinator restart here is worth
// waiting for. A 404 means the restart forgot the lease (errLeaseLost:
// re-acquire and re-sweep); other protocol errors are fatal. done
// reports that this upload completed the campaign's last open unit.
func (w *worker) upload(l *leaseInfo, path string, parent obs.SpanID) (done bool, err error) {
	uploadSpan := w.opts.Tracer.Start("fabric.upload", parent, "unit", fmt.Sprint(l.Unit.ID))
	defer uploadSpan.End()
	if fi, err := os.Stat(path); err == nil {
		uploadSpan.SetAttr("bytes", fmt.Sprint(fi.Size()))
	}
	backoff := time.Second
	var outageStart time.Time
	for {
		f, err := os.Open(path)
		if err != nil {
			return false, err
		}
		req, err := http.NewRequest(http.MethodPost, w.opts.BaseURL+"/v1/leases/"+l.ID+"/complete", f)
		if err != nil {
			f.Close()
			return false, err
		}
		req.Header.Set("Content-Type", "application/gzip")
		var resp completeResponse
		err = w.do(req, &resp)
		f.Close()
		if err == nil {
			if fi, serr := os.Stat(path); serr == nil {
				w.m.uploadBytes.Add(uint64(fi.Size()))
			}
			w.logf("worker %s: unit %d uploaded (added %d, duplicates %d) [%d/%d]",
				w.opts.ID, l.Unit.ID, resp.Added, resp.Duplicates, resp.UnitsDone, resp.UnitsTotal)
			return resp.UnitsDone == resp.UnitsTotal, nil
		}
		var pe *protocolError
		if errors.As(err, &pe) {
			if pe.status == http.StatusNotFound {
				return false, errLeaseLost
			}
			return false, err
		}
		if outageStart.IsZero() {
			outageStart = time.Now()
		}
		if w.opts.MaxOutage > 0 && time.Since(outageStart) > w.opts.MaxOutage {
			return false, fmt.Errorf("fabric: coordinator unreachable for %s: %w", w.opts.MaxOutage, err)
		}
		w.logf("worker %s: upload of unit %d failed (%v); retrying in %s",
			w.opts.ID, l.Unit.ID, err, backoff)
		if !w.sleep(backoff) {
			return false, errStopped
		}
		backoff = min(backoff*2, maxBackoff)
	}
}
