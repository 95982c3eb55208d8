package census

// Tests for the task-zoo sweep axis: registered task specs threaded
// through solve sweeps (byte-compatibility of the kset path pinned
// exactly), checkpoint fingerprints that refuse to resume under a
// different task, and named adversary-family filters.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
)

// TestTaskSpecKsetBytesPinned pins the kset path to bytes recorded
// before task specs replaced the KTask option: the JSONL streams of
// Task "kset:k=1" (what -solve means) and of Task "kset:k=2" (no entry
// carries a task field), the k=2 summary (k_task set, no task field)
// and its checkpoint fingerprint, whose pre-spec `k=<k>` segment keeps
// old sidecars resumable.
func TestTaskSpecKsetBytesPinned(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		opts    Options
		sha256  string
		size    int
		summary string // "" skips the summary pin
		fp      string // "" skips the fingerprint pin
	}{
		{
			name:   "k=1",
			opts:   Options{Workers: 4, Task: "kset:k=1"},
			sha256: "63feb4b2ebd4398d7771e46aa99991e96abd8138bee05fe0f06fcc01a5f86a8a",
			size:   22282,
		},
		{
			name:    "k=2",
			opts:    Options{Workers: 4, Task: "kset:k=2"},
			sha256:  "7efb61bed1833eb2166bdd44e368615f91d6c135602826de21b0b4948df431fa",
			size:    22462,
			summary: `{"n":3,"total":128,"superset_closed":19,"symmetric":8,"fair":44,"inclusion_violations":0,"setcon_hist":[1,24,18,1],"k_task":2,"solved":43,"solvable":42,"undecided":1}`,
			fp:      "census:v1:n=3:orbits=false:solve=true:k=2:rounds=1:verify=false",
		},
	} {
		out := filepath.Join(dir, tc.name+".jsonl")
		ck := filepath.Join(dir, tc.name+".ck.json")
		tc.opts.Checkpoint = ck
		rep := runJSONL(t, 3, tc.opts, out)
		b := readFile(t, out)
		if sum := sha256.Sum256(b); len(b) != tc.size || hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("%s: stream is %d bytes with sha256 %x, want %d bytes with %s",
				tc.name, len(b), sum, tc.size, tc.sha256)
		}
		if bytes.Contains(b, []byte(`"task"`)) {
			t.Errorf("%s: kset entries must not carry the task field", tc.name)
		}
		if rep.Summary.Task != "" {
			t.Errorf("%s: summary task %q, want empty", tc.name, rep.Summary.Task)
		}
		if tc.summary != "" {
			if got := jsonString(t, rep.Summary); got != tc.summary {
				t.Errorf("%s: summary\n%s\nwant\n%s", tc.name, got, tc.summary)
			}
		}
		if tc.fp != "" {
			sidecar, err := LoadCheckpoint(ck)
			if err != nil {
				t.Fatal(err)
			}
			if sidecar.Fingerprint != tc.fp {
				t.Errorf("%s: fingerprint %q, want %q", tc.name, sidecar.Fingerprint, tc.fp)
			}
		}
	}
}

// TestTaskSweepWorkerInvariance checks a non-kset task sweep is
// byte-identical at every worker count and stamps every entry with the
// canonical spec.
func TestTaskSweepWorkerInvariance(t *testing.T) {
	dir := t.TempDir()
	want := filepath.Join(dir, "w1.jsonl")
	rep1 := runJSONL(t, 3, Options{Workers: 1, Task: "loop-agreement"}, want)
	if rep1.Summary.Task != "loop-agreement" {
		t.Fatalf("summary task %q, want loop-agreement", rep1.Summary.Task)
	}
	out := filepath.Join(dir, "w8.jsonl")
	runJSONL(t, 3, Options{Workers: 8, Task: "loop-agreement"}, out)
	if !bytes.Equal(readFile(t, out), readFile(t, want)) {
		t.Fatal("w=8 loop-agreement stream differs from the serial reference")
	}
	var count, stamped int
	for _, line := range bytes.Split(bytes.TrimSpace(readFile(t, want)), []byte{'\n'}) {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		count++
		if e.Task == "loop-agreement" {
			stamped++
		}
	}
	if count == 0 || stamped != count {
		t.Fatalf("%d of %d entries stamped with the task spec", stamped, count)
	}
}

// TestSharedTaskByteIdentical checks the three non-kset task kinds
// through one built task per run: at eight workers every solve job
// reads the same complexes and Δ closures, and each stream must equal
// the serial one. MaxIndices stops the sweeps before index 127, whose
// loop-agreement search runs for seconds to the node limit.
func TestSharedTaskByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, task := range []string{"simplex-agreement", "approx:eps=1", "loop-agreement"} {
		var streams [2][]byte
		var reps [2]*Report
		for i, workers := range []int{1, 8} {
			out := filepath.Join(dir, fmt.Sprintf("%s-w%d.jsonl", task, workers))
			reps[i] = runJSONL(t, 3, Options{Workers: workers, Task: task, MaxIndices: 100}, out)
			streams[i] = readFile(t, out)
		}
		if !bytes.Equal(streams[0], streams[1]) {
			t.Errorf("%s: stream at 8 workers differs from the serial one", task)
		}
		if a, b := jsonString(t, reps[0]), jsonString(t, reps[1]); a != b {
			t.Errorf("%s: report at 8 workers\n%s\nwant\n%s", task, b, a)
		}
		if reps[0].Summary.Solved == 0 {
			t.Errorf("%s: no solve job ran", task)
		}
	}
}

// TestConsensusSpecMatchesKSet1 cross-validates the zoo against the
// known small-n result: the consensus task decides exactly like 1-set
// consensus on every adversary.
func TestConsensusSpecMatchesKSet1(t *testing.T) {
	dir := t.TempDir()
	ks := filepath.Join(dir, "kset1.jsonl")
	cons := filepath.Join(dir, "consensus.jsonl")
	runJSONL(t, 3, Options{Workers: 4, Task: "kset:k=1"}, ks)
	runJSONL(t, 3, Options{Workers: 4, Task: "consensus"}, cons)
	ksLines := bytes.Split(bytes.TrimSpace(readFile(t, ks)), []byte{'\n'})
	consLines := bytes.Split(bytes.TrimSpace(readFile(t, cons)), []byte{'\n'})
	if len(ksLines) != len(consLines) {
		t.Fatalf("entry counts differ: %d vs %d", len(ksLines), len(consLines))
	}
	for i := range ksLines {
		var a, b Entry
		if err := json.Unmarshal(ksLines[i], &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(consLines[i], &b); err != nil {
			t.Fatal(err)
		}
		if a.Index != b.Index || a.Solved != b.Solved {
			t.Fatalf("index %d: solve coverage differs", a.Index)
		}
		switch {
		case a.Solvable == nil && b.Solvable == nil:
		case a.Solvable == nil || b.Solvable == nil || *a.Solvable != *b.Solvable:
			t.Fatalf("index %d: consensus and kset:k=1 verdicts differ", a.Index)
		}
		if b.Task != "consensus" {
			t.Fatalf("index %d: consensus entry task %q", b.Index, b.Task)
		}
	}
}

// TestCheckpointTaskMismatchRejected checks a sweep cannot resume a
// sidecar written under a different task spec: the fingerprint embeds
// the spec, and the family filter likewise.
func TestCheckpointTaskMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "ck.json")
	rep := runJSONL(t, 3, Options{Workers: 1, Task: "loop-agreement", Checkpoint: ck, MaxIndices: 16}, out)
	if !rep.Incomplete {
		t.Fatal("budgeted run not incomplete")
	}
	for _, bad := range []Options{
		{Workers: 1, Task: "kset:k=1", Checkpoint: ck, Resume: true},
		{Workers: 1, Task: "approx:eps=1", Checkpoint: ck, Resume: true},
		{Workers: 1, Task: "loop-agreement", Family: "symmetric", Checkpoint: ck, Resume: true},
	} {
		sink, err := NewJSONLSink(filepath.Join(dir, "resume.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		_, serr := Stream(3, bad, sink)
		sink.Close()
		if !errors.Is(serr, ErrCheckpointMismatch) {
			t.Fatalf("resume under %+v: err %v, want ErrCheckpointMismatch", bad, serr)
		}
	}
	// The matching spec resumes past the recorded frontier (bounded
	// again: fingerprint acceptance is the point, resume byte-identity
	// is pinned by the engine's own stream tests).
	fin := runJSONL(t, 3, Options{Workers: 4, Task: "loop-agreement", Checkpoint: ck, Resume: true, MaxIndices: 16}, out)
	if fin.NextIndex <= rep.NextIndex {
		t.Fatalf("matching-spec resume frontier %d did not advance past %d", fin.NextIndex, rep.NextIndex)
	}
}

// TestFamilyFilterTResilient checks the closed-form family size: the
// t-resilient family over n=3 is exactly the n adversaries A_{t-res},
// t ∈ [0, n-1], in both full and orbit mode (each member is fixed by
// every color permutation, so its orbit is a singleton).
func TestFamilyFilterTResilient(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	want := map[uint64]bool{}
	for tt := 0; tt < n; tt++ {
		want[adversary.EnumerationIndex(adversary.TResilient(n, tt))] = true
	}
	for _, orbits := range []bool{false, true} {
		out := filepath.Join(dir, "fam.jsonl")
		rep := runJSONL(t, n, Options{Workers: 4, Orbits: orbits, Family: "t-resilient"}, out)
		if got := rep.Summary.Total; got != uint64(n) {
			t.Fatalf("orbits=%v: family total %d, want %d", orbits, got, n)
		}
		seen := map[uint64]bool{}
		for _, line := range bytes.Split(bytes.TrimSpace(readFile(t, out)), []byte{'\n'}) {
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatal(err)
			}
			seen[e.Index] = true
			if orbits && e.OrbitSize != 1 {
				t.Fatalf("index %d: family member orbit size %d, want 1", e.Index, e.OrbitSize)
			}
		}
		if len(seen) != n {
			t.Fatalf("orbits=%v: %d distinct entries, want %d", orbits, len(seen), n)
		}
		for idx := range want {
			if !seen[idx] {
				t.Fatalf("orbits=%v: family member %d missing from the sweep", orbits, idx)
			}
		}
	}
	// A pinned parameter narrows to one member.
	out := filepath.Join(dir, "one.jsonl")
	rep := runJSONL(t, n, Options{Workers: 1, Family: "t-resilient:t=1"}, out)
	if rep.Summary.Total != 1 {
		t.Fatalf("t-resilient:t=1 total %d, want 1", rep.Summary.Total)
	}
}

// TestFamilyFilterErrors checks malformed and out-of-range family
// specs are rejected up front.
func TestFamilyFilterErrors(t *testing.T) {
	for _, spec := range []string{
		"unknown-family",
		"t-resilient:t=3", // t must be < n
		"t-resilient:k=1", // wrong parameter
		"symmetric:t=1",   // takes no parameter
		"k-obstruction-free:k=0",
		"t-resilient:t=",
	} {
		if _, err := resolveFamily(spec, 3); !errors.Is(err, ErrBadFamily) {
			t.Fatalf("family %q: err %v, want ErrBadFamily", spec, err)
		}
	}
	if f, err := resolveFamily("", 3); f != nil || err != nil {
		t.Fatalf("empty family: (%v, %v), want (nil, nil)", f, err)
	}
}
