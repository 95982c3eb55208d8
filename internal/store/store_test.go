package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
	"repro/internal/census"
)

// censusJSONL streams an n-process census to a JSONL file and returns
// its path plus the collected entries (the reference the store must
// reproduce byte-for-byte).
func censusJSONL(t *testing.T, dir, name string, n int, opts census.Options) (string, []census.Entry) {
	t.Helper()
	path := filepath.Join(dir, name)
	sink, err := census.NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	col := &census.Collector{}
	if _, err := census.Stream(n, opts, teeSink{sink, col}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return path, col.Entries
}

// teeSink duplicates the stream into a file sink and a collector. It
// is not a *census.JSONLSink, so the engine neither repositions nor
// flushes the file: callers start from a fresh file and close it.
type teeSink struct {
	a, b census.Sink
}

func (s teeSink) Emit(e *census.Entry) error {
	if err := s.a.Emit(e); err != nil {
		return err
	}
	return s.b.Emit(e)
}

// splitJSONL writes lines[lo:hi] of a JSONL file to a new shard file.
func splitJSONL(t *testing.T, src, dst string, lo, hi int) string {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(b)
	if hi > len(lines) {
		hi = len(lines)
	}
	var out []byte
	for _, line := range lines[lo:hi] {
		out = append(out, line...)
		out = append(out, '\n')
	}
	if err := os.WriteFile(dst, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func splitLines(b []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			if i > start {
				lines = append(lines, b[start:i])
			}
			start = i + 1
		}
	}
	return lines
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMergeRoundTrip is the satellite round-trip: a full n=3 census,
// split into two overlapping shards, merged into a store, must answer
// every index byte-for-byte identical to the direct census output —
// and aggregate to the identical summary.
func TestMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	full, want := censusJSONL(t, dir, "full.jsonl", 3, census.Options{Workers: 1})
	sh1 := splitJSONL(t, full, filepath.Join(dir, "a.jsonl"), 0, 80)
	sh2 := splitJSONL(t, full, filepath.Join(dir, "b.jsonl"), 48, len(want))

	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Merge([]string{sh1, sh2}, MergeOptions{BlockEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != uint64(len(want)) || stats.Added != uint64(len(want)) {
		t.Fatalf("merge stats %+v, want total=added=%d", stats, len(want))
	}
	if stats.Duplicates != 32 {
		t.Errorf("merge saw %d duplicates, want 32 (the shard overlap)", stats.Duplicates)
	}
	for i := range want {
		got, ok, err := st.Get(want[i].Index)
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", want[i].Index, ok, err)
		}
		if mustJSON(t, got) != mustJSON(t, &want[i]) {
			t.Fatalf("entry %d: store %s != census %s", want[i].Index, mustJSON(t, got), mustJSON(t, &want[i]))
		}
	}

	rep, err := census.Run(3, census.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := st.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, sum) != mustJSON(t, rep.Summary) {
		t.Errorf("store summary %s != census summary %s", mustJSON(t, sum), mustJSON(t, rep.Summary))
	}
}

// TestMergeReopenAndRemerge checks a merged store survives reopen and
// that re-merging the same shard is a clean no-op (all duplicates).
func TestMergeReopenAndRemerge(t *testing.T) {
	dir := t.TempDir()
	full, want := censusJSONL(t, dir, "full.jsonl", 3, census.Options{Workers: 1})
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Merge([]string{full}, MergeOptions{BlockEntries: 32}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Merge([]string{full}, MergeOptions{BlockEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Duplicates != uint64(len(want)) || stats.Total != uint64(len(want)) {
		t.Fatalf("re-merge stats %+v, want added=0 dups=total=%d", stats, len(want))
	}
	if e, ok, err := st.Get(want[5].Index); err != nil || !ok || mustJSON(t, e) != mustJSON(t, &want[5]) {
		t.Fatalf("reopened Get: %v %v %v", e, ok, err)
	}
}

// TestMergeConflictRejected: an overlapping shard that disagrees on one
// index's bytes must fail the merge — and leave the store untouched.
func TestMergeConflictRejected(t *testing.T) {
	dir := t.TempDir()
	full, want := censusJSONL(t, dir, "full.jsonl", 3, census.Options{Workers: 1})
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Merge([]string{full}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}

	// Corrupt one entry of a shard copy: flip its csize.
	bad := want[17]
	bad.CSize++
	line, _ := json.Marshal(&bad)
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Merge([]string{filepath.Join(dir, "bad.jsonl")}, MergeOptions{})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("merge of conflicting shard: err=%v, want ErrConflict", err)
	}
	// The failed merge must not have changed the store.
	if e, ok, _ := st.Get(want[17].Index); !ok || mustJSON(t, e) != mustJSON(t, &want[17]) {
		t.Fatalf("store changed by failed merge: %v %v", e, ok)
	}
}

// TestMergeKindMismatchRejected: orbit-reduced and full-sweep entries
// must not mix in one store.
func TestMergeKindMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	full, _ := censusJSONL(t, dir, "full.jsonl", 3, census.Options{Workers: 1})
	orbit, _ := censusJSONL(t, dir, "orbit.jsonl", 3, census.Options{Workers: 1, Orbits: true})
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Merge([]string{full}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Merge([]string{orbit}, MergeOptions{}); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("mixing kinds: err=%v, want ErrKindMismatch", err)
	}
}

// TestMergeGzipShard: a compressed census shard (the -compress sink
// output) merges transparently.
func TestMergeGzipShard(t *testing.T) {
	dir := t.TempDir()
	gz, want := censusJSONL(t, dir, "full.jsonl.gz", 3, census.Options{Workers: 1})
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Merge([]string{gz}, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != uint64(len(want)) {
		t.Fatalf("gzip merge total %d, want %d", stats.Total, len(want))
	}
	if e, ok, _ := st.Get(want[100].Index); !ok || mustJSON(t, e) != mustJSON(t, &want[100]) {
		t.Fatal("gzip-merged store misses entries")
	}
}

// TestMergeBlockBytes: a merge compresses its blocks through one reset
// writer, and every block holds the bytes a fresh writer produces over
// the same lines, as stores written before that reuse do.
func TestMergeBlockBytes(t *testing.T) {
	dir := t.TempDir()
	shard, want := censusJSONL(t, dir, "full.jsonl", 3, census.Options{Workers: 1})
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Merge([]string{shard}, MergeOptions{BlockEntries: 16}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "store", st.man.DataFile))
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range st.man.Blocks {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		for i := j * 16; i < min(j*16+16, len(want)); i++ {
			zw.Write([]byte(mustJSON(t, &want[i]) + "\n"))
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[b.Offset:b.Offset+b.Size], buf.Bytes()) {
			t.Fatalf("block %d differs from a fresh writer's bytes", j)
		}
	}
}

// TestOrbitLookup pins the acceptance criterion at n=3 and n=4: a store
// built from an orbit-reduced sweep answers EVERY index — canonical or
// not — with the same classification a full sweep computes directly,
// via orbit-canonical resolution and Permute rehydration.
func TestOrbitLookup(t *testing.T) {
	for _, n := range []int{3, 4} {
		dir := t.TempDir()
		orbitShard, _ := censusJSONL(t, dir, "orbit.jsonl", n, census.Options{Workers: 1, Orbits: true})
		st, err := Create(filepath.Join(dir, "store"), n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Merge([]string{orbitShard}, MergeOptions{}); err != nil {
			t.Fatal(err)
		}
		if !st.Orbits() {
			t.Fatalf("n=%d: store of orbit entries not marked orbit", n)
		}
		fullRep, err := census.Run(n, census.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		orbits := adversary.NewOrbits(n)
		rehydrated := 0
		for i := range fullRep.Entries {
			want := &fullRep.Entries[i]
			got, src, err := st.Lookup(want.Index, orbits)
			if err != nil {
				t.Fatal(err)
			}
			if src == LookupMiss {
				t.Fatalf("n=%d: index %d missing from orbit store", n, want.Index)
			}
			if src == LookupRehydrated {
				rehydrated++
				if mustJSON(t, got) != mustJSON(t, want) {
					t.Fatalf("n=%d index %d: rehydrated %s != census %s",
						n, want.Index, mustJSON(t, got), mustJSON(t, want))
				}
			} else {
				// Canonical: stored entry carries the orbit size, all
				// other fields must match the full sweep's.
				cp := got.Clone()
				cp.OrbitSize = 0
				if mustJSON(t, cp) != mustJSON(t, want) {
					t.Fatalf("n=%d index %d: stored %s != census %s",
						n, want.Index, mustJSON(t, cp), mustJSON(t, want))
				}
			}
		}
		if rehydrated == 0 {
			t.Fatalf("n=%d: no lookup exercised rehydration", n)
		}
		// Orbit-weighted store summary equals the orbit sweep's (full
		// totals + representative count).
		orbRep, err := census.Run(n, census.Options{Workers: 1, Orbits: true})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := st.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, sum) != mustJSON(t, orbRep.Summary) {
			t.Errorf("n=%d: store summary %s != orbit census summary %s",
				n, mustJSON(t, sum), mustJSON(t, orbRep.Summary))
		}
		st.Close()
	}
}

// TestPutNewAppend checks the write-back path: appended entries are
// immediately queryable, duplicates are no-ops, conflicts rejected, and
// everything survives reopen (including a crash-torn appended tail).
func TestPutNewAppend(t *testing.T) {
	dir := t.TempDir()
	rep, err := census.Run(3, census.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	e := &rep.Entries[42]
	if added, err := st.PutNew(e); err != nil || !added {
		t.Fatalf("PutNew: added=%v err=%v", added, err)
	}
	if added, err := st.PutNew(e); err != nil || added {
		t.Fatalf("duplicate PutNew: added=%v err=%v", added, err)
	}
	bad := *e
	bad.CSize++
	if _, err := st.PutNew(&bad); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting PutNew: err=%v, want ErrConflict", err)
	}
	if got, ok, _ := st.Get(e.Index); !ok || mustJSON(t, got) != mustJSON(t, e) {
		t.Fatal("appended entry not queryable")
	}
	st.Close()

	// Simulate a crash mid-append: garbage past the manifest's horizon
	// must be truncated away on open.
	man, _ := os.ReadFile(filepath.Join(dir, "store", manifestName))
	var m manifest
	if err := json.Unmarshal(man, &m); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "store", m.DataFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn garbage")
	f.Close()

	st, err = Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, ok, _ := st.Get(e.Index); !ok || mustJSON(t, got) != mustJSON(t, e) {
		t.Fatal("entry lost after torn-tail reopen")
	}
	if added, err := st.PutNew(&rep.Entries[7]); err != nil || !added {
		t.Fatalf("append after torn-tail reopen: added=%v err=%v", added, err)
	}
	if got, ok, _ := st.Get(rep.Entries[7].Index); !ok || mustJSON(t, got) != mustJSON(t, &rep.Entries[7]) {
		t.Fatal("post-reopen append not queryable")
	}
}

// TestSolveStoreDisablesWriteBack: a store holding solve-mode sweep
// results must not be polluted by classify-only write-backs — the
// completed sweep's bytes would conflict on a later merge.
func TestSolveStoreDisablesWriteBack(t *testing.T) {
	dir := t.TempDir()
	// A partial solve sweep: only the first indices land in the store.
	shard, _ := censusJSONL(t, dir, "solve.jsonl", 3,
		census.Options{Workers: 1, Task: "kset:k=1", ShardSize: 16, MaxIndices: 64})
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Merge([]string{shard}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if !st.SolveMode() {
		t.Fatal("store of a -solve sweep not marked solve-mode")
	}
	srv := registryServer(t, st, ServerOptions{})
	ms, err := srv.state(3, "")
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats().Entries
	// Index 100 misses: computed live, but NOT persisted.
	if _, src, err := srv.classifyIndex(ms, 100); err != nil || src != "computed" {
		t.Fatalf("classify miss: src=%q err=%v", src, err)
	}
	if after := st.Stats().Entries; after != before {
		t.Fatalf("solve store grew from %d to %d entries on a classify write-back", before, after)
	}
	// The rest of the sweep still merges cleanly afterwards.
	full, _ := censusJSONL(t, dir, "solve-full.jsonl", 3, census.Options{Workers: 1, Task: "kset:k=1"})
	if _, err := st.Merge([]string{full}, MergeOptions{}); err != nil {
		t.Fatalf("completing the solve sweep after serving: %v", err)
	}
	if !st.SolveMode() {
		t.Fatal("solve flag lost across merge")
	}
}
