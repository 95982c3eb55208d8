package census

// Tests pinning the stabilizer-aware orbit sweep (rank-based shards
// over adversary.Orbits.ForEachCanonicalFrom) byte-identical to the
// filter-based path it replaced, including resume from a filter-era
// checkpoint sidecar — plus the Collector copy-on-emit regression.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
)

// filterReferenceJSONL renders the n-domain orbit sweep exactly as the
// old filter-based engine did: scan every raw index below limit, keep
// canonical representatives, attach orbit sizes, one JSON line each.
// Returns the stream bytes, the entry count, and the running summary.
func filterReferenceJSONL(t *testing.T, n int, limit uint64) ([]byte, uint64, Summary) {
	t.Helper()
	o := adversary.NewOrbits(n)
	x, err := NewExaminer(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := NewSummary(n)
	var buf bytes.Buffer
	var count uint64
	o.ForEachRepresentative(func(idx, size uint64) bool {
		if idx >= limit {
			return false
		}
		e, err := x.Examine(idx)
		if err != nil {
			t.Fatal(err)
		}
		e.OrbitSize = size
		b, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
		count++
		sum.Accumulate(&e)
		return true
	})
	return buf.Bytes(), count, sum
}

// TestOrbitGeneratorStreamMatchesFilter pins the rank-shard sweep
// byte-identical to the filter-based reference at every worker count,
// for n=3 and n=4.
func TestOrbitGeneratorStreamMatchesFilter(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{3, 4} {
		want, _, _ := filterReferenceJSONL(t, n, adversary.CensusSize(n))
		for _, workers := range []int{1, 2, 4, 8} {
			out := filepath.Join(dir, "out.jsonl")
			rep := runJSONL(t, n, Options{Orbits: true, Workers: workers}, out)
			if rep.Incomplete {
				t.Fatalf("n=%d w=%d: full orbit sweep incomplete", n, workers)
			}
			if got := readFile(t, out); !bytes.Equal(got, want) {
				t.Fatalf("n=%d w=%d: generator stream differs from the filter reference", n, workers)
			}
			if err := os.Remove(out); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOrbitResumeFromFilterEraCheckpoint replays the campaign upgrade:
// a sidecar written by the old filter-based enumerator records a raw
// frontier that is neither canonical nor rank-block aligned, and the
// rank-shard engine must resume it to byte-identical final output.
func TestOrbitResumeFromFilterEraCheckpoint(t *testing.T) {
	const n, frontier = 3, 50 // 50 is non-canonical and unaligned
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "ck.json")

	// The interrupted old run: entries and aggregates over [0, 50).
	prefix, emitted, sum := filterReferenceJSONL(t, n, frontier)
	if err := os.WriteFile(out, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	sidecar := &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: "census:v1:n=3:orbits=true:solve=false:k=1:rounds=1:verify=false",
		NextIndex:   frontier,
		Emitted:     emitted,
		OutBytes:    int64(len(prefix)),
		SinkKind:    "persistent",
		Summary:     sum,
	}
	if err := sidecar.write(ck); err != nil {
		t.Fatal(err)
	}

	fin := runJSONL(t, n, Options{Orbits: true, Workers: 4, Checkpoint: ck, Resume: true}, out)
	if fin.Incomplete {
		t.Fatal("resumed run incomplete")
	}
	want, _, wantSum := filterReferenceJSONL(t, n, adversary.CensusSize(n))
	if !bytes.Equal(readFile(t, out), want) {
		t.Fatal("resume from a filter-era checkpoint diverges from an uninterrupted sweep")
	}
	if got, wantS := jsonString(t, fin.Summary), jsonString(t, wantSum); got != wantS {
		t.Fatalf("resumed summary differs:\n%s\n%s", got, wantS)
	}
}

// TestOrbitMaxIndicesFrontier checks the raw-index budget lands the
// frontier exactly at start+MaxIndices in both modes and at every block
// size — orbit blocks account for the non-canonical tail below the
// boundary, full-sweep blocks end short at it — and that resuming from
// that frontier is byte-identical to an uninterrupted sweep.
func TestOrbitMaxIndicesFrontier(t *testing.T) {
	dir := t.TempDir()
	for _, orbits := range []bool{false, true} {
		full := filepath.Join(dir, fmt.Sprintf("full-%v.jsonl", orbits))
		runJSONL(t, 3, Options{Orbits: orbits}, full)
		for _, shard := range []int{4, 8} {
			name := fmt.Sprintf("orbits=%v,shard=%d", orbits, shard)
			out := filepath.Join(dir, name+".jsonl")
			ck := filepath.Join(dir, name+".ck.json")
			opts := Options{Orbits: orbits, Workers: 2, ShardSize: shard, Checkpoint: ck, MaxIndices: 50}
			rep := runJSONL(t, 3, opts, out)
			if !rep.Incomplete || rep.NextIndex != 50 {
				t.Fatalf("%s: budgeted run incomplete=%v at frontier %d, want the raw budget boundary 50",
					name, rep.Incomplete, rep.NextIndex)
			}
			prefix := readFile(t, out)
			want := readFile(t, full)[:len(prefix)]
			if orbits {
				want, _, _ = filterReferenceJSONL(t, 3, 50)
			} else if lines := bytes.Count(prefix, []byte{'\n'}); lines != 50 {
				t.Fatalf("%s: budgeted full sweep emitted %d entries, want 50", name, lines)
			}
			if !bytes.Equal(prefix, want) {
				t.Fatalf("%s: budgeted prefix differs from the reference", name)
			}
			opts.Resume, opts.MaxIndices = true, 0
			if fin := runJSONL(t, 3, opts, out); fin.Incomplete {
				t.Fatalf("%s: resumed run incomplete at %d", name, fin.NextIndex)
			}
			if !bytes.Equal(readFile(t, out), readFile(t, full)) {
				t.Fatalf("%s: resumed stream differs from the uninterrupted sweep", name)
			}
		}
	}
}

// TestOrbitMaxIndicesOverflow checks an "effectively unlimited" budget
// does not wrap start+MaxIndices below the resume frontier (which
// would regress the checkpoint under already-emitted output).
func TestOrbitMaxIndicesOverflow(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "ck.json")
	runJSONL(t, 3, Options{Orbits: true, Checkpoint: ck, MaxIndices: 50}, out)
	fin := runJSONL(t, 3, Options{Orbits: true, Checkpoint: ck, Resume: true, MaxIndices: math.MaxUint64}, out)
	if fin.Incomplete {
		t.Fatalf("max-budget resume incomplete at %d", fin.NextIndex)
	}
	full := filepath.Join(dir, "full.jsonl")
	runJSONL(t, 3, Options{Orbits: true}, full)
	if !bytes.Equal(readFile(t, out), readFile(t, full)) {
		t.Fatal("overflowed budget corrupted the stream")
	}
}

// TestOrbitStopMidBlock checks the stop hook lands between canonical
// representatives inside a rank block: the raw frontier must end just
// past the last examined representative, and the resumed run must
// still be byte-identical.
func TestOrbitStopMidBlock(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "ck.json")
	stop := make(chan struct{})
	var once sync.Once
	var seen int
	opts := Options{
		Orbits:  true,
		Workers: 1, ShardSize: 64,
		Checkpoint: ck, Stop: stop,
	}
	opts.examineHook = func(idx uint64) {
		seen++
		if seen == 10 {
			once.Do(func() { close(stop) })
			// Let the stop watcher latch before the worker checks.
			time.Sleep(100 * time.Millisecond)
		}
	}
	part := runJSONL(t, 3, opts, out)
	if !part.Incomplete {
		t.Fatal("stopped orbit run not incomplete")
	}
	if part.NextIndex == 0 || part.NextIndex >= adversary.CensusSize(3) {
		t.Fatalf("frontier %d: stop should land mid-domain", part.NextIndex)
	}
	fin := runJSONL(t, 3, Options{Orbits: true, Workers: 4, Checkpoint: ck, Resume: true}, out)
	if fin.Incomplete {
		t.Fatal("resumed orbit run incomplete")
	}
	want, _, _ := filterReferenceJSONL(t, 3, adversary.CensusSize(3))
	if !bytes.Equal(readFile(t, out), want) {
		t.Fatal("mid-block stop/resume output differs from the filter reference")
	}
}

func jsonString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCollectorEmitCopies is the mutation-after-emit regression: the
// Sink contract loans the entry only for the duration of Emit, so a
// caller mutating its slice or pointer fields afterwards must not leak
// into the collected entries.
func TestCollectorEmitCopies(t *testing.T) {
	solvable := true
	e := Entry{
		Index:        7,
		LiveSetMasks: []uint32{1, 2, 4},
		Solved:       true,
		Solvable:     &solvable,
	}
	var c Collector
	if err := c.Emit(&e); err != nil {
		t.Fatal(err)
	}
	e.LiveSetMasks[0] = 99
	*e.Solvable = false
	got := c.Entries[0]
	if got.LiveSetMasks[0] != 1 {
		t.Fatalf("collected masks aliased the emitted entry: %v", got.LiveSetMasks)
	}
	if !*got.Solvable {
		t.Fatal("collected solvability pointer aliased the emitted entry")
	}
}
