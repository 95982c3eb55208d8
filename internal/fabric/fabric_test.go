package fabric

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/census"
	"repro/internal/obs"
	"repro/internal/store"
)

// testCoord builds a coordinator over a fresh store plus its HTTP
// server. The returned clock shifts the coordinator's notion of now.
func testCoord(t *testing.T, camp Campaign, opts CoordinatorOptions) (*Coordinator, *httptest.Server, func(time.Duration)) {
	t.Helper()
	st, err := store.Create(t.TempDir(), camp.N)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return coordOver(t, st, camp, opts)
}

func coordOver(t *testing.T, st *store.Store, camp Campaign, opts CoordinatorOptions) (*Coordinator, *httptest.Server, func(time.Duration)) {
	t.Helper()
	var mu sync.Mutex
	offset := time.Duration(0)
	opts.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return time.Now().Add(offset)
	}
	opts.SpoolDir = t.TempDir()
	c, err := NewCoordinator(st, camp, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	advance := func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		offset += d
	}
	return c, srv, advance
}

// acquire grabs one lease over HTTP.
func acquire(t *testing.T, url, worker string) leaseResponse {
	t.Helper()
	body, _ := json.Marshal(acquireRequest{Worker: worker})
	resp, err := http.Post(url+"/v1/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire: status %d", resp.StatusCode)
	}
	var lr leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// sweepShard produces the gzip shard for one unit of the campaign.
func sweepShard(t *testing.T, dir string, camp Campaign, u Unit) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("unit-%d.jsonl.gz", u.ID))
	sink, err := census.NewJSONLSinkCompressed(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := census.Options{Orbits: camp.Orbits, Task: camp.Task, MaxRounds: camp.MaxRounds}
	rep, err := census.SweepRange(camp.N, opts, sink, u.Lo, u.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatalf("unit %d sweep incomplete", u.ID)
	}
	return path
}

// upload posts a shard file against a lease; returns the HTTP status
// and body.
func upload(t *testing.T, url, leaseID, path string) (int, string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resp, err := http.Post(url+"/v1/leases/"+leaseID+"/complete", "application/gzip", f)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// storeLines walks the whole store in index order.
func storeLines(t *testing.T, st *store.Store, domain uint64) []string {
	t.Helper()
	var lines []string
	from := uint64(0)
	for {
		page, err := st.Range(from, domain, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range page.Lines {
			lines = append(lines, string(l))
		}
		if !page.More {
			return lines
		}
		from = page.Next
	}
}

// TestPartitionUnits: units are contiguous, disjoint, cover the domain,
// and orbit-mode ranks sum to the orbit count.
func TestPartitionUnits(t *testing.T) {
	n := 4
	domain := adversary.CensusSize(n)
	for _, tc := range []struct {
		orbits   bool
		unitSize uint64
	}{{false, 1 << 12}, {true, 64}, {true, 7}, {true, domain}} {
		units, err := PartitionUnits(Campaign{N: n, Orbits: tc.orbits}, tc.unitSize)
		if err != nil {
			t.Fatal(err)
		}
		var ranks uint64
		for i, u := range units {
			if u.ID != i {
				t.Fatalf("unit %d has id %d", i, u.ID)
			}
			if u.Lo >= u.Hi {
				t.Fatalf("unit %d empty: [%d,%d)", i, u.Lo, u.Hi)
			}
			if i == 0 && u.Lo != 0 {
				t.Fatalf("first unit starts at %d", u.Lo)
			}
			if i > 0 && u.Lo != units[i-1].Hi {
				t.Fatalf("gap before unit %d: %d != %d", i, u.Lo, units[i-1].Hi)
			}
			ranks += u.Ranks
		}
		if units[len(units)-1].Hi != domain {
			t.Fatalf("last unit ends at %d, domain is %d", units[len(units)-1].Hi, domain)
		}
		want := domain
		if tc.orbits {
			want = 0
			adversary.NewOrbits(n).ForEachRepresentative(func(idx, size uint64) bool {
				want++
				return true
			})
		}
		if ranks != want {
			t.Fatalf("orbits=%v unitSize=%d: ranks sum %d, want %d", tc.orbits, tc.unitSize, ranks, want)
		}
	}
}

// TestFabricEndToEnd: two in-process workers drain an n=3 orbit
// campaign; the merged store is line-identical to a single-node sweep.
func TestFabricEndToEnd(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	dir := t.TempDir()
	st, err := store.Create(dir, camp.N)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var events bytes.Buffer
	c, srv, _ := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 8, Log: &events})
	// Poll a "wait" answer every 5ms of real time instead of its
	// retry_sec; the clock stays put, so no lease can expire mid-test.
	poll := func(time.Duration) bool { time.Sleep(5 * time.Millisecond); return true }

	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	errs := make([]error, 2)
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = Work(WorkerOptions{
				BaseURL: srv.URL,
				ID:      fmt.Sprintf("w%d", i),
				Workers: 2,
				TempDir: t.TempDir(),
				sleep:   poll,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done after both workers returned")
	}

	// Reference: the same campaign swept on one node.
	full, err := census.Run(camp.N, census.Options{Orbits: true})
	if err != nil {
		t.Fatal(err)
	}
	lines := storeLines(t, st, adversary.CensusSize(camp.N))
	if len(lines) != len(full.Entries) {
		t.Fatalf("store holds %d entries, single-node sweep %d", len(lines), len(full.Entries))
	}
	for i := range lines {
		want, _ := json.Marshal(&full.Entries[i])
		if lines[i] != string(want) {
			t.Fatalf("entry %d differs:\n store: %s\n sweep: %s", i, lines[i], want)
		}
	}
	if total := stats[0].Entries + stats[1].Entries; total != uint64(len(lines)) {
		t.Errorf("workers report %d entries, store holds %d", total, len(lines))
	}
	status := c.Status()
	if !status.Done || status.Units.Done != status.Units.Total || status.Units.Conflict != 0 {
		t.Errorf("status after drain: %+v", status.Units)
	}
}

// TestLeaseExpiryRequeue: an unrenewed lease lapses at TTL and its unit
// requeues at the front; a fresh worker then drains the campaign.
func TestLeaseExpiryRequeue(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	var events bytes.Buffer
	c, srv, advance := testCoord(t, camp, CoordinatorOptions{UnitSize: 4, TTL: time.Minute, Log: &events})

	first := acquire(t, srv.URL, "flaky")
	if first.Status != "lease" {
		t.Fatalf("acquire: %q", first.Status)
	}
	// The worker vanishes. Past the TTL the unit must lease again.
	advance(2 * time.Minute)
	second := acquire(t, srv.URL, "steady")
	if second.Status != "lease" {
		t.Fatalf("post-expiry acquire: %q", second.Status)
	}
	if second.Lease.Unit.ID != first.Lease.Unit.ID {
		t.Fatalf("requeued unit %d not re-leased first (got %d)", first.Lease.Unit.ID, second.Lease.Unit.ID)
	}
	if c.Status().Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", c.Status().Requeues)
	}
	if !strings.Contains(events.String(), "requeued") {
		t.Fatal("expiry event not logged")
	}
	// The expired lease is dead to renewal…
	resp, err := http.Post(srv.URL+"/v1/leases/"+first.Lease.ID+"/renew", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("renewing an expired lease: status %d, want 410", resp.StatusCode)
	}
	// …and the replacement worker can finish the campaign. The test
	// never completes its own second lease; the worker waits on the
	// test clock, so that lease expires once the waits add up to the TTL.
	sleep := func(d time.Duration) bool { advance(d); return true }
	if _, err := Work(WorkerOptions{BaseURL: srv.URL, ID: "steady", TempDir: t.TempDir(), sleep: sleep}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done")
	}
}

// TestLeaseRenewExtends: renewal pushes the deadline out, so a renewed
// lease survives clock advances that would otherwise expire it.
func TestLeaseRenewExtends(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	_, srv, advance := testCoord(t, camp, CoordinatorOptions{UnitSize: 1024, TTL: time.Minute})
	lr := acquire(t, srv.URL, "w")
	for i := 0; i < 3; i++ {
		advance(45 * time.Second)
		resp, err := http.Post(srv.URL+"/v1/leases/"+lr.Lease.ID+"/renew", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("renew %d: status %d", i, resp.StatusCode)
		}
	}
}

// TestDoubleCompleteIdentical: the same shard landing twice (an expired
// lease's late completion) folds as duplicates, not an error.
func TestDoubleCompleteIdentical(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	c, srv, advance := testCoord(t, camp, CoordinatorOptions{UnitSize: 4, TTL: time.Minute})
	first := acquire(t, srv.URL, "slow")
	shard := sweepShard(t, t.TempDir(), camp, first.Lease.Unit)

	// The lease expires and the unit is re-completed by someone else.
	advance(2 * time.Minute)
	second := acquire(t, srv.URL, "fast")
	if second.Lease.Unit.ID != first.Lease.Unit.ID {
		t.Fatalf("expected the requeued unit, got %d", second.Lease.Unit.ID)
	}
	if code, body := upload(t, srv.URL, second.Lease.ID, shard); code != http.StatusOK {
		t.Fatalf("fresh complete: %d %s", code, body)
	}
	// The slow worker's identical shard arrives late: accepted, all
	// duplicates.
	code, body := upload(t, srv.URL, first.Lease.ID, shard)
	if code != http.StatusOK {
		t.Fatalf("late duplicate complete: %d %s", code, body)
	}
	var cr completeResponse
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Added != 0 || cr.Duplicates != first.Lease.Unit.Ranks {
		t.Fatalf("late duplicate: added %d, duplicates %d (unit has %d ranks)",
			cr.Added, cr.Duplicates, first.Lease.Unit.Ranks)
	}
	if c.Status().Units.Conflict != 0 {
		t.Fatal("identical double-complete flagged as conflict")
	}
}

// TestDoubleCompleteConflict: a late completion whose bytes disagree
// with the ledger is a 409 and marks the unit conflicted.
func TestDoubleCompleteConflict(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	c, srv, advance := testCoord(t, camp, CoordinatorOptions{UnitSize: 4, TTL: time.Minute})
	first := acquire(t, srv.URL, "honest")
	dir := t.TempDir()
	shard := sweepShard(t, dir, camp, first.Lease.Unit)
	if code, body := upload(t, srv.URL, first.Lease.ID, shard); code != http.StatusOK {
		t.Fatalf("complete: %d %s", code, body)
	}

	// A late re-completion of the same unit with one entry's payload
	// altered — same index, different bytes.
	advance(2 * time.Minute)
	lines := gunzipLines(t, shard)
	writeShard := func(name string, lines []string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// An unknown field is not a census entry as a sweep writes it:
	// validation turns the shard away before the merge sees it.
	extra := append([]string(nil), lines...)
	extra[1] = strings.Replace(lines[1], "{", `{"aaa_tamper":true,`, 1)
	if code, body := upload(t, srv.URL, first.Lease.ID, writeShard("extra.jsonl", extra)); code != http.StatusBadRequest {
		t.Fatalf("unknown-field complete: %d %s, want 400", code, body)
	}
	// Different bytes, same index, a well-formed entry: validation
	// passes and the conflict is caught by the merge itself.
	var e census.Entry
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	e.CSize++
	tampered, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	lines[1] = string(tampered)
	code, body := upload(t, srv.URL, first.Lease.ID, writeShard("tampered.jsonl", lines))
	if code != http.StatusConflict {
		t.Fatalf("conflicting complete: %d %s, want 409", code, body)
	}
	if got := c.Status().Units.Conflict; got != 1 {
		t.Fatalf("conflict units = %d, want 1", got)
	}
}

// gunzipLines reads a (possibly gzip) shard's lines.
func gunzipLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 1 && b[0] == 0x1f && b[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer gz.Close()
		if b, err = io.ReadAll(gz); err != nil {
			t.Fatal(err)
		}
	}
	return strings.Split(strings.TrimRight(string(b), "\n"), "\n")
}

// TestShardValidation: short, out-of-range and malformed shards are
// rejected with 400 before touching the store.
func TestShardValidation(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	_, srv, _ := testCoord(t, camp, CoordinatorOptions{UnitSize: 4})
	lr := acquire(t, srv.URL, "w")
	dir := t.TempDir()
	shard := sweepShard(t, dir, camp, lr.Lease.Unit)
	lines := gunzipLines(t, shard)

	write := func(name string, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	short := write("short.jsonl", strings.Join(lines[:len(lines)-1], "\n")+"\n")
	if code, body := upload(t, srv.URL, lr.Lease.ID, short); code != http.StatusBadRequest {
		t.Fatalf("short shard: %d %s, want 400", code, body)
	}
	foreign := write("foreign.jsonl", strings.Join(lines, "\n")+"\n"+
		fmt.Sprintf(`{"index":%d}`, lr.Lease.Unit.Hi)+"\n")
	if code, body := upload(t, srv.URL, lr.Lease.ID, foreign); code != http.StatusBadRequest {
		t.Fatalf("out-of-range shard: %d %s, want 400", code, body)
	}
	junk := write("junk.jsonl", "not json\n")
	if code, body := upload(t, srv.URL, lr.Lease.ID, junk); code != http.StatusBadRequest {
		t.Fatalf("junk shard: %d %s, want 400", code, body)
	}
	// Right count, range and order, but two lines whose fields do not
	// decode into a census entry: merged, they would fail every read.
	var first, second census.Entry
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	fields := append([]string{
		fmt.Sprintf(`{"index":%d,"setcon":"x"}`, first.Index),
		fmt.Sprintf(`{"index":%d,"live_set_masks":7}`, second.Index),
	}, lines[2:]...)
	malformed := write("malformed.jsonl", strings.Join(fields, "\n")+"\n")
	if code, body := upload(t, srv.URL, lr.Lease.ID, malformed); code != http.StatusBadRequest {
		t.Fatalf("malformed-field shard: %d %s, want 400", code, body)
	}
	// The lease survives rejected uploads: the real shard still lands.
	if code, body := upload(t, srv.URL, lr.Lease.ID, shard); code != http.StatusOK {
		t.Fatalf("good shard after rejects: %d %s", code, body)
	}
}

// TestWorkerCrashMidLease: a worker dying with a lease held neither
// blocks nor corrupts the campaign — the unit requeues at expiry and a
// second worker finishes; the store matches the single-node sweep.
func TestWorkerCrashMidLease(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	dir := t.TempDir()
	st, err := store.Create(dir, camp.N)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var events bytes.Buffer
	c, srv, advance := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 8, TTL: time.Minute, Log: &events})

	boom := errors.New("boom")
	_, err = Work(WorkerOptions{
		BaseURL: srv.URL, ID: "crasher", TempDir: t.TempDir(),
		AcquireHook: func(k int, leaseID string, u Unit) error {
			if k == 2 {
				return boom // die holding the second lease, first unit done
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("crasher returned %v, want the crash", err)
	}
	if cs := c.Status(); cs.Units.Leased != 1 || cs.Units.Done != 1 {
		t.Fatalf("after crash: %+v, want 1 leased / 1 done", cs.Units)
	}

	advance(2 * time.Minute) // the abandoned lease lapses
	if _, err := Work(WorkerOptions{BaseURL: srv.URL, ID: "finisher", TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done")
	}
	if c.Status().Requeues == 0 {
		t.Fatal("crash did not register a requeue")
	}

	full, err := census.Run(camp.N, census.Options{Orbits: true})
	if err != nil {
		t.Fatal(err)
	}
	lines := storeLines(t, st, adversary.CensusSize(camp.N))
	if len(lines) != len(full.Entries) {
		t.Fatalf("store holds %d entries, want %d", len(lines), len(full.Entries))
	}
}

// TestCoordinatorRestartRecovery: a new coordinator over a partially
// filled store re-leases only the missing units, and the drained store
// matches the single-node sweep.
func TestCoordinatorRestartRecovery(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	dir := t.TempDir()
	st, err := store.Create(dir, camp.N)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, srv, _ := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 4})

	// First life: complete exactly two units, then "crash".
	units, err := PartitionUnits(camp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 3 {
		t.Fatalf("campaign too small for the test: %d units", len(units))
	}
	shardDir := t.TempDir()
	for i := 0; i < 2; i++ {
		lr := acquire(t, srv.URL, "w")
		shard := sweepShard(t, shardDir, camp, lr.Lease.Unit)
		if code, body := upload(t, srv.URL, lr.Lease.ID, shard); code != http.StatusOK {
			t.Fatalf("complete %d: %d %s", i, code, body)
		}
	}
	srv.Close()

	// Second life over the same store.
	c2, srv2, _ := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 4})
	status := c2.Status()
	if status.Units.Done != 2 {
		t.Fatalf("recovered %d done units, want 2", status.Units.Done)
	}
	if _, err := Work(WorkerOptions{BaseURL: srv2.URL, ID: "w2", TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("campaign not done after recovery drain")
	}

	full, err := census.Run(camp.N, census.Options{Orbits: true})
	if err != nil {
		t.Fatal(err)
	}
	lines := storeLines(t, st, adversary.CensusSize(camp.N))
	if len(lines) != len(full.Entries) {
		t.Fatalf("store holds %d entries, want %d", len(lines), len(full.Entries))
	}
	for i := range lines {
		want, _ := json.Marshal(&full.Entries[i])
		if lines[i] != string(want) {
			t.Fatalf("entry %d differs after recovery", i)
		}
	}

	// A third life over the complete store is born done.
	c3, srv3, _ := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 4})
	select {
	case <-c3.Done():
	default:
		t.Fatal("coordinator over a complete store not born done")
	}
	if lr := acquire(t, srv3.URL, "idle"); lr.Status != "done" {
		t.Fatalf("acquire on a complete campaign: %q, want done", lr.Status)
	}
}

// TestCoordinatorRejectsMismatchedStore: a store of the wrong kind is
// refused up front.
func TestCoordinatorRejectsMismatchedStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := NewCoordinator(st, Campaign{N: 4, Orbits: true}, CoordinatorOptions{}); err == nil {
		t.Fatal("n mismatch accepted")
	}
	if _, err := NewCoordinator(nil, Campaign{N: 3}, CoordinatorOptions{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewCoordinator(st, Campaign{N: 0}, CoordinatorOptions{}); err == nil {
		t.Fatal("bad n accepted")
	}
}

// TestFabricTraceSpans: a drained campaign under a private tracer
// yields one ended fabric.campaign span, a completed fabric.lease span
// per unit nested under it, and worker-side unit/sweep spans nested
// under the worker's fabric.work span.
func TestFabricTraceSpans(t *testing.T) {
	tr := obs.NewTracer(obs.DefaultRingSpans)
	camp := Campaign{N: 3, Orbits: true}
	st, err := store.Create(t.TempDir(), camp.N)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, srv, _ := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 8, Tracer: tr})
	if _, err := Work(WorkerOptions{
		BaseURL: srv.URL, ID: "w0", Workers: 2, TempDir: t.TempDir(), Tracer: tr,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done after worker returned")
	}

	byName := map[string][]obs.Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName["fabric.campaign"]) != 1 {
		t.Fatalf("want 1 fabric.campaign span, got %d", len(byName["fabric.campaign"]))
	}
	campaign := byName["fabric.campaign"][0]
	if campaign.Parent != 0 || campaign.EndNS <= campaign.StartNS {
		t.Fatalf("campaign span malformed: %+v", campaign)
	}

	total := c.Status().Units.Total
	unitsSeen := map[string]bool{}
	for _, l := range byName["fabric.lease"] {
		if l.Parent != campaign.ID {
			t.Fatalf("lease span %d has parent %d, campaign is %d", l.ID, l.Parent, campaign.ID)
		}
		if l.Attrs["outcome"] == "completed" {
			unitsSeen[l.Attrs["unit"]] = true
		}
	}
	if len(unitsSeen) != total {
		t.Fatalf("completed lease spans cover %d units, campaign has %d", len(unitsSeen), total)
	}

	if len(byName["fabric.work"]) != 1 {
		t.Fatalf("want 1 fabric.work span, got %d", len(byName["fabric.work"]))
	}
	work := byName["fabric.work"][0]
	unitIDs := map[obs.SpanID]bool{}
	for _, u := range byName["fabric.unit"] {
		if u.Parent != work.ID {
			t.Fatalf("unit span %d has parent %d, work is %d", u.ID, u.Parent, work.ID)
		}
		unitIDs[u.ID] = true
	}
	if len(unitIDs) != total {
		t.Fatalf("worker ran %d unit spans, campaign has %d units", len(unitIDs), total)
	}
	if len(byName["census.sweep"]) == 0 || len(byName["fabric.upload"]) == 0 {
		t.Fatalf("missing sweep/upload spans: sweeps=%d uploads=%d",
			len(byName["census.sweep"]), len(byName["fabric.upload"]))
	}
	for _, s := range byName["census.sweep"] {
		if !unitIDs[s.Parent] {
			t.Fatalf("sweep span %d not nested under a unit span (parent %d)", s.ID, s.Parent)
		}
	}
	for _, s := range byName["fabric.upload"] {
		if !unitIDs[s.Parent] {
			t.Fatalf("upload span %d not nested under a unit span (parent %d)", s.ID, s.Parent)
		}
	}
}

// TestCoordinatorMetricsExposition: the /metrics endpoint serves the
// campaign gauges, the merge/lease families, and — via the included
// process-global registry — the runtime and census families.
func TestCoordinatorMetricsExposition(t *testing.T) {
	camp := Campaign{N: 3, Orbits: true}
	st, err := store.Create(t.TempDir(), camp.N)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, srv, _ := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 64})
	if _, err := Work(WorkerOptions{
		BaseURL: srv.URL, ID: "w0", Workers: 1, TempDir: t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
	<-c.Done()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, series := range []string{
		"factool_fabric_units_total",
		"factool_fabric_units_done",
		"factool_fabric_units_pending",
		"factool_fabric_requeues_total",
		"factool_fabric_store_entries",
		"factool_fabric_merged_bytes_total",
		`factool_fabric_leases_total{event="granted"}`,
		"factool_fabric_merge_seconds_count",
		"factool_fabric_requests_total",
		"factool_fabric_inflight_requests",
		// Included from the process-global registry.
		"factool_census_indices_examined_total",
		"go_goroutines",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	// The drained campaign's gauges reflect completion.
	done := fmt.Sprintf("factool_fabric_units_done %d", c.Status().Units.Total)
	if !strings.Contains(text, done) {
		t.Errorf("exposition missing %q:\n%s", done, text)
	}
	if strings.Contains(text, "factool_fabric_merged_bytes_total 0\n") {
		t.Error("merged bytes still zero after completed campaign")
	}
}

// TestCoordinatorDrainNoGoroutineLeak: a full campaign lifecycle —
// serve, drain by a worker, shut down — returns the process to its
// baseline goroutine count. Guards against leaked per-lease timers or
// merge goroutines surviving coordinator shutdown.
func TestCoordinatorDrainNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	camp := Campaign{N: 3, Orbits: true}
	st, err := store.Create(t.TempDir(), camp.N)
	if err != nil {
		t.Fatal(err)
	}
	c, srv, _ := coordOver(t, st, camp, CoordinatorOptions{UnitSize: 64})
	if _, err := Work(WorkerOptions{
		BaseURL: srv.URL, ID: "w0", Workers: 2, TempDir: t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	srv.Close()
	st.Close()
	http.DefaultClient.CloseIdleConnections()

	// Goroutines wind down asynchronously; poll with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	slack := 3
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: baseline %d, now %d after drain+shutdown\n%s",
				baseline, runtime.NumGoroutine(), buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
