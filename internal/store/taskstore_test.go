package store

// Tests for the task dimension of the store and serve layers: the
// manifest's task commitment (PutNew/Merge kind guard, BindTaskSpec),
// verify's task-aware solve re-derivation, and a multi-task registry
// serving three specs side by side, cross-validated against known
// small-n solvability results.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
	"repro/internal/census"
)

// taskShard sweeps a bounded prefix of the n=3 domain under the given
// options and returns the shard path plus the collected entries.
func taskShard(t *testing.T, dir, name string, opts census.Options) (string, []census.Entry) {
	t.Helper()
	opts.Workers = 1
	opts.ShardSize = 16
	if opts.MaxIndices == 0 {
		opts.MaxIndices = 48
	}
	return censusJSONL(t, dir, name, 3, opts)
}

// taskStore merges a bounded sweep into a fresh store.
func taskStore(t *testing.T, dir, name string, opts census.Options) (*Store, []census.Entry) {
	t.Helper()
	shard, entries := taskShard(t, dir, name+".jsonl", opts)
	st, err := Create(filepath.Join(dir, name), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := st.Merge([]string{shard}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	return st, entries
}

// TestTaskKindGuard is the acceptance criterion: stores commit to one
// task spec, and merging entries that answer a different task — or a
// kset solve shard into a task-bound store — fails with the kind
// guard, on both the Merge and PutNew paths.
func TestTaskKindGuard(t *testing.T) {
	dir := t.TempDir()
	// The shards are index-disjoint: overlapping indices would trip the
	// byte-conflict check before the task guard ever saw the entry.
	loopShard, loopEntries := taskShard(t, dir, "loop.jsonl", census.Options{Task: "loop-agreement", MaxIndices: 16})
	approxFull, _ := taskShard(t, dir, "approx-full.jsonl", census.Options{Task: "approx:eps=1", MaxIndices: 24})
	approxShard := splitJSONL(t, approxFull, filepath.Join(dir, "approx.jsonl"), 16, 24)
	ksetFull, ksetEntries := taskShard(t, dir, "kset-full.jsonl", census.Options{Task: "kset:k=1"})
	ksetShard := splitJSONL(t, ksetFull, filepath.Join(dir, "kset.jsonl"), 16, 48)
	solvedKset := false
	for _, e := range ksetEntries[16:] {
		solvedKset = solvedKset || e.Solved
	}
	if !solvedKset {
		t.Fatal("kset shard tail has no solved entry — widen MaxIndices")
	}

	loopSt, err := Create(filepath.Join(dir, "loop-store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer loopSt.Close()
	if _, err := loopSt.Merge([]string{loopShard}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := loopSt.Task(); got != "loop-agreement" {
		t.Fatalf("store task %q after loop merge, want loop-agreement", got)
	}
	if _, err := loopSt.Merge([]string{approxShard}, MergeOptions{}); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("approx shard into loop store: err %v, want ErrKindMismatch", err)
	}
	if _, err := loopSt.Merge([]string{ksetShard}, MergeOptions{}); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("kset solve shard into loop store: err %v, want ErrKindMismatch", err)
	}
	bad := loopEntries[0].Clone()
	bad.Task = "approx:eps=1"
	if _, err := loopSt.PutNew(bad); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("PutNew of an approx entry: err %v, want ErrKindMismatch", err)
	}

	// The reverse direction: a store holding kset solve entries rejects
	// task-stamped shards, and BindTaskSpec can only name the kset task
	// it already answers.
	ksetSt, err := Create(filepath.Join(dir, "kset-store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ksetSt.Close()
	if _, err := ksetSt.Merge([]string{ksetShard}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ksetSt.Merge([]string{loopShard}, MergeOptions{}); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("loop shard into kset solve store: err %v, want ErrKindMismatch", err)
	}
	if err := ksetSt.BindTaskSpec("loop-agreement"); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("binding loop-agreement onto a kset solve store: err %v, want ErrKindMismatch", err)
	}
	if err := ksetSt.BindTaskSpec("kset:k=1"); err != nil {
		t.Fatal(err)
	}
	if got := ksetSt.Task(); got != "kset:k=1" {
		t.Fatalf("bound task %q, want kset:k=1", got)
	}
	if err := ksetSt.BindTaskSpec("kset:k=1"); err != nil {
		t.Fatal("rebinding the same spec must be idempotent:", err)
	}
	if err := ksetSt.BindTaskSpec("kset:k=2"); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("rebinding kset:k=2 over kset:k=1: err %v, want ErrKindMismatch", err)
	}
}

// TestPutNewRejectionCommitsNothing: an entry PutNew rejects leaves the
// manifest's kind, task and solve flag as they were, in memory and on
// disk, so it cannot turn away a valid entry after it.
func TestPutNewRejectionCommitsNothing(t *testing.T) {
	examine := func(opts census.Options, idx uint64) *census.Entry {
		t.Helper()
		x, err := census.NewExaminer(3, opts)
		if err != nil {
			t.Fatal(err)
		}
		e, err := x.Examine(idx)
		if err != nil {
			t.Fatal(err)
		}
		return &e
	}
	// The first n=3 index with a solve verdict (fair, setcon ≥ 1).
	idx := uint64(0)
	for !examine(census.Options{Task: "kset:k=1"}, idx).Solved {
		idx++
	}
	kset := examine(census.Options{Task: "kset:k=1"}, idx)
	orbitKset := kset.Clone()
	orbitKset.OrbitSize = 1

	// An orbit-weighted kset solve entry is refused by a store bound to
	// another task: neither its kind nor anything else may stick.
	dir := filepath.Join(t.TempDir(), "loop")
	loopSt, err := Create(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer loopSt.Close()
	if err := loopSt.BindTaskSpec("loop-agreement"); err != nil {
		t.Fatal(err)
	}
	if _, err := loopSt.PutNew(orbitKset); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("PutNew of an orbit kset solve entry: err %v, want ErrKindMismatch", err)
	}
	if loopSt.Orbits() || loopSt.SolveMode() || loopSt.Task() != "loop-agreement" {
		t.Fatalf("rejected entry committed: orbits=%v solve=%v task=%q",
			loopSt.Orbits(), loopSt.SolveMode(), loopSt.Task())
	}
	loop := examine(census.Options{Task: "loop-agreement"}, idx)
	if added, err := loopSt.PutNew(loop); err != nil || !added {
		t.Fatalf("PutNew of a plain loop-agreement entry after the rejection: added=%v err=%v", added, err)
	}
	if m := readManifest(t, dir); m.EntryKind != kindFull || m.Task != "loop-agreement" || !m.Solve {
		t.Fatalf("manifest after the valid entry: kind %q task %q solve %v", m.EntryKind, m.Task, m.Solve)
	}

	// A kset solve entry that conflicts with the stored classify entry
	// of its index is refused before it could mark the store solve-mode.
	plain, err := Create(filepath.Join(t.TempDir(), "plain"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.PutNew(examine(census.Options{}, idx)); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.PutNew(kset); !errors.Is(err, ErrConflict) {
		t.Fatalf("PutNew of a kset entry over a classify one: err %v, want ErrConflict", err)
	}
	if plain.SolveMode() {
		t.Fatal("a rejected solve entry marked the store solve-mode")
	}
	if err := plain.BindTaskSpec("loop-agreement"); err != nil {
		t.Fatalf("binding a task after the rejected solve entry: %v", err)
	}
}

// TestVerifyTaskStore: verify re-derives solve entries under the
// manifest-recorded task — both a non-kset store (the task committed
// by its own entries) and a kset store after BindTaskSpec.
func TestVerifyTaskStore(t *testing.T) {
	dir := t.TempDir()
	loopSt, _ := taskStore(t, dir, "loop", census.Options{Task: "loop-agreement"})
	rep, err := loopSt.Verify(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("loop store verify problems: %v", rep.Problems)
	}
	if rep.Reclassified == 0 {
		t.Fatal("loop store verify re-derived no entries")
	}

	ksetSt, _ := taskStore(t, dir, "kset", census.Options{Task: "kset:k=1"})
	if err := ksetSt.BindTaskSpec("kset:k=1"); err != nil {
		t.Fatal(err)
	}
	rep, err = ksetSt.Verify(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("bound kset store verify problems: %v", rep.Problems)
	}
	if rep.Reclassified == 0 {
		t.Fatal("bound kset store verify re-derived no entries")
	}
}

// TestServeMultiTask is the serving half of the acceptance criterion:
// one registry mounts a neutral classify store plus three task-bound
// stores of the same n, /v1/stores reports each spec, task parameters
// route classifies to the right mount, and /v1/solve decisions for
// three distinct specs match the known small-n results (consensus
// solvable only under 0-resilience, 2-set consensus under
// 1-resilience, 3-set consensus wait-free).
func TestServeMultiTask(t *testing.T) {
	dir := t.TempDir()
	neutral, _ := taskStore(t, dir, "neutral", census.Options{MaxIndices: 128})
	kset1, _ := taskStore(t, dir, "kset1", census.Options{Task: "kset:k=1"})
	kset2, _ := taskStore(t, dir, "kset2", census.Options{Task: "kset:k=2"})
	loopSt, loopEntries := taskStore(t, dir, "loop", census.Options{Task: "loop-agreement"})
	if err := kset1.BindTaskSpec("kset:k=1"); err != nil {
		t.Fatal(err)
	}
	if err := kset2.BindTaskSpec("kset:k=2"); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	for name, st := range map[string]*Store{
		"n3": neutral, "n3-kset1": kset1, "n3-kset2": kset2, "n3-loop": loopSt,
	} {
		if err := reg.Mount(name, st); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(reg, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var stores storesResponse
	if code := getJSON(t, ts.URL+"/v1/stores", &stores); code != http.StatusOK {
		t.Fatalf("stores: HTTP %d", code)
	}
	tasks := map[string]bool{}
	for _, si := range stores.Stores {
		tasks[si.Task] = true
	}
	for _, want := range []string{"", "kset:k=1", "kset:k=2", "loop-agreement"} {
		if !tasks[want] {
			t.Fatalf("/v1/stores tasks %v missing %q", tasks, want)
		}
	}

	// No task parameter → the neutral classify mount; a task parameter
	// → the mount bound to that spec.
	var plain classifyResponse
	if code := getJSON(t, ts.URL+"/v1/classify?n=3&index=5", &plain); code != http.StatusOK {
		t.Fatalf("neutral classify: HTTP %d", code)
	}
	if plain.Entry.Solved || plain.Entry.Task != "" {
		t.Fatalf("neutral classify entry solved=%v task=%q, want a classify entry", plain.Entry.Solved, plain.Entry.Task)
	}
	var routed classifyResponse
	u := ts.URL + "/v1/classify?n=3&index=5&task=" + url.QueryEscape("loop-agreement")
	if code := getJSON(t, u, &routed); code != http.StatusOK {
		t.Fatalf("loop classify: HTTP %d", code)
	}
	if got, want := mustJSON(t, routed.Entry), mustJSON(t, &loopEntries[5]); got != want {
		t.Fatalf("loop-routed entry:\n%s\nwant the swept entry:\n%s", got, want)
	}
	var sum summaryResponse
	if code := getJSON(t, ts.URL+"/v1/summary?n=3&task="+url.QueryEscape("kset:k=2"), &sum); code != http.StatusOK {
		t.Fatalf("kset2 summary: HTTP %d", code)
	}

	// Known small-n results through /v1/solve, one per spec. The t-
	// resilient adversaries are the canonical test points: consensus is
	// solvable only with no failures, 2-set consensus tolerates one
	// (Chaudhuri), 3-set consensus is trivially wait-free solvable —
	// and wait-free 2-set consensus exceeds the round-1 search budget.
	idxT0 := adversary.EnumerationIndex(adversary.TResilient(3, 0))
	idxT1 := adversary.EnumerationIndex(adversary.TResilient(3, 1))
	idxT2 := adversary.EnumerationIndex(adversary.TResilient(3, 2))
	for _, tc := range []struct {
		query    string
		idx      uint64
		solvable bool
		wantTask string
		wantK    int
	}{
		{"task=consensus", idxT0, true, "consensus", 0},
		{"task=consensus", idxT1, false, "consensus", 0},
		{"task=consensus", idxT2, false, "consensus", 0},
		{"task=" + url.QueryEscape("kset:k=2"), idxT1, true, "", 2},
		{"ktask=3", idxT2, true, "", 3},
	} {
		var resp solveResponse
		u := fmt.Sprintf("%s/v1/solve?n=3&index=%d&%s", ts.URL, tc.idx, tc.query)
		if code := getJSON(t, u, &resp); code != http.StatusOK {
			t.Fatalf("solve %s idx=%d: HTTP %d", tc.query, tc.idx, code)
		}
		if !resp.Solved || resp.Solvable == nil || *resp.Solvable != tc.solvable {
			t.Fatalf("solve %s idx=%d: %+v, want solvable=%v", tc.query, tc.idx, resp, tc.solvable)
		}
		if resp.Task != tc.wantTask || resp.KTask != tc.wantK {
			t.Fatalf("solve %s idx=%d: task=%q k_task=%d, want %q/%d", tc.query, tc.idx, resp.Task, resp.KTask, tc.wantTask, tc.wantK)
		}
	}
	var und solveResponse
	u = fmt.Sprintf("%s/v1/solve?n=3&index=%d&task=%s", ts.URL, idxT2, url.QueryEscape("kset:k=2"))
	if code := getJSON(t, u, &und); code != http.StatusOK {
		t.Fatalf("wait-free kset2 solve: HTTP %d", code)
	}
	if !und.Undecided || und.Solvable != nil {
		t.Fatalf("wait-free 2-set consensus: %+v, want undecided", und)
	}

	// task and ktask are mutually exclusive; an unregistered spec is a
	// client error, not a routing miss.
	for _, q := range []string{"task=consensus&ktask=1", "task=no-such-task"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/solve?n=3&index=%d&%s", ts.URL, idxT0, q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("solve with %s: HTTP %d, want 400", q, resp.StatusCode)
		}
	}
}
