package census

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runJSONL streams the n-domain to a JSONL file with the given options
// and returns the final report. Fails the test on error.
func runJSONL(t *testing.T, n int, opts Options, path string) *Report {
	t.Helper()
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, serr := Stream(n, opts, sink)
	if cerr := sink.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return rep
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamMatchesRun checks the streamed entry sequence and summary
// equal the collecting engine's report exactly.
func TestStreamMatchesRun(t *testing.T) {
	rep, err := Run(3, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var col Collector
	srep, err := Stream(3, Options{Workers: 4, ShardSize: 5}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if srep.Incomplete {
		t.Fatal("full stream reported incomplete")
	}
	if fmt.Sprintf("%+v", srep.Summary) != fmt.Sprintf("%+v", rep.Summary) {
		t.Fatalf("summaries differ:\n%+v\n%+v", srep.Summary, rep.Summary)
	}
	if len(col.Entries) != len(rep.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(col.Entries), len(rep.Entries))
	}
	a, _ := json.Marshal(col.Entries)
	b, _ := json.Marshal(rep.Entries)
	if !bytes.Equal(a, b) {
		t.Fatal("streamed entries differ from collected entries")
	}
}

// TestStreamJSONLDeterministic checks the JSONL byte stream is
// identical for every worker count and shard size.
func TestStreamJSONLDeterministic(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "w1.jsonl")
	runJSONL(t, 3, Options{Workers: 1}, base)
	want := readFile(t, base)
	if len(want) == 0 {
		t.Fatal("empty stream")
	}
	for i, opts := range []Options{
		{Workers: 8},
		{Workers: 8, ShardSize: 1},
		{Workers: 3, ShardSize: 7},
	} {
		path := filepath.Join(dir, fmt.Sprintf("v%d.jsonl", i))
		runJSONL(t, 3, opts, path)
		if !bytes.Equal(readFile(t, path), want) {
			t.Fatalf("JSONL differs for %+v", opts)
		}
	}
}

// TestStreamBoundedWindow asserts the tentpole memory property: with a
// sink that stalls on the first entry, workers stop claiming shards
// once the reorder window (workers × 4 shards) fills — the engine never
// materializes the domain.
func TestStreamBoundedWindow(t *testing.T) {
	const workers, shardSize = 2, 1
	release := make(chan struct{})
	var examined atomic.Uint64
	var once sync.Once
	blocking := sinkFunc(func(e *Entry) error {
		once.Do(func() { <-release }) // stall the frontier
		return nil
	})
	opts := Options{Workers: workers, ShardSize: shardSize}
	opts.examineHook = func(uint64) { examined.Add(1) }

	done := make(chan *Report, 1)
	go func() {
		rep, err := Stream(3, opts, blocking)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()

	// The first Emit blocks while holding the reorder lock, so the
	// frontier cannot advance; workers may claim at most window
	// (workers*4) shards ahead plus the ones they already hold.
	maxAhead := uint64(workers*4+workers) * shardSize
	waitForStall(t, &examined, maxAhead)
	if got := examined.Load(); got > maxAhead {
		t.Fatalf("examined %d indices with a stalled sink, window bound is %d", got, maxAhead)
	}
	close(release)
	rep := <-done
	if rep != nil && rep.Summary.Total != 128 {
		t.Fatalf("total = %d after release, want 128", rep.Summary.Total)
	}
}

// waitForStall polls until the examined counter stops moving (two equal
// consecutive reads with a scheduler yield between them, after it
// first moves at all).
func waitForStall(t *testing.T, c *atomic.Uint64, bound uint64) {
	t.Helper()
	var last uint64
	stable := 0
	for i := 0; i < 10000; i++ {
		cur := c.Load()
		if cur > bound {
			return // over the bound already: let the caller fail
		}
		if cur == last && cur > 0 {
			stable++
			if stable > 50 {
				return
			}
		} else {
			stable = 0
		}
		last = cur
		time.Sleep(time.Millisecond)
	}
}

// sinkFunc adapts a function to a Sink.
type sinkFunc func(e *Entry) error

func (f sinkFunc) Emit(e *Entry) error { return f(e) }

// TestStreamCheckpointResume is the kill/resume acceptance test: a run
// interrupted by MaxIndices and resumed from its checkpoint produces a
// byte-identical JSONL stream and an identical summary, serial and
// parallel, including across worker-count changes mid-campaign.
func TestStreamCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runJSONL(t, 3, Options{Workers: 1}, full)
	want := readFile(t, full)
	fullRep, err := Run(3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantSum, _ := json.Marshal(fullRep.Summary)

	for _, workers := range []int{1, 4} {
		for _, resumeWorkers := range []int{1, 7} {
			name := fmt.Sprintf("w%d-then-w%d", workers, resumeWorkers)
			out := filepath.Join(dir, name+".jsonl")
			ck := filepath.Join(dir, name+".ckpt")

			part := runJSONL(t, 3, Options{
				Workers: workers, ShardSize: 4,
				Checkpoint: ck, CheckpointEvery: 8,
				MaxIndices: 52,
			}, out)
			if !part.Incomplete {
				t.Fatalf("%s: budgeted run not reported incomplete", name)
			}
			if part.NextIndex == 0 || part.NextIndex >= 128 {
				t.Fatalf("%s: frontier %d", name, part.NextIndex)
			}
			if ckpt, err := LoadCheckpoint(ck); err != nil || ckpt.NextIndex != part.NextIndex {
				t.Fatalf("%s: checkpoint frontier %v / %v vs report %d", name, ckpt, err, part.NextIndex)
			}

			fin := runJSONL(t, 3, Options{
				Workers: resumeWorkers, ShardSize: 9,
				Checkpoint: ck, Resume: true,
			}, out)
			if fin.Incomplete {
				t.Fatalf("%s: resumed run incomplete at %d", name, fin.NextIndex)
			}
			if got := readFile(t, out); !bytes.Equal(got, want) {
				t.Fatalf("%s: resumed JSONL differs from uninterrupted run (%d vs %d bytes)", name, len(got), len(want))
			}
			gotSum, _ := json.Marshal(fin.Summary)
			if !bytes.Equal(gotSum, wantSum) {
				t.Fatalf("%s: resumed summary differs:\n%s\n%s", name, gotSum, wantSum)
			}
		}
	}
}

// TestStreamResumeTruncatesTail checks crash recovery: output written
// beyond the last checkpoint (a torn tail) is truncated on resume, so
// the final stream has no duplicate or phantom lines.
func TestStreamResumeTruncatesTail(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "out.ckpt")
	runJSONL(t, 3, Options{Workers: 2, ShardSize: 4, Checkpoint: ck, CheckpointEvery: 16, MaxIndices: 64}, out)
	// Simulate a crash after the checkpoint: garbage tail past the
	// recorded offset.
	f, err := os.OpenFile(out, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"torn\":true"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runJSONL(t, 3, Options{Workers: 2, Checkpoint: ck, Resume: true}, out)
	full := filepath.Join(dir, "full.jsonl")
	runJSONL(t, 3, Options{Workers: 1}, full)
	if !bytes.Equal(readFile(t, out), readFile(t, full)) {
		t.Fatal("torn tail survived resume")
	}
}

// TestStreamStopChannel interrupts a run through the Stop hook and
// checks it winds down to a clean checkpointed frontier that resumes to
// byte-identical output.
func TestStreamStopChannel(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "out.ckpt")
	stop := make(chan struct{})
	var once sync.Once
	opts := Options{
		Workers: 4, ShardSize: 1,
		Checkpoint: ck, CheckpointEvery: 4,
		Stop: stop,
		Progress: func(done, total uint64) {
			if done >= 16 {
				once.Do(func() { close(stop) })
			}
		},
	}
	rep := runJSONL(t, 3, opts, out)
	if !rep.Incomplete {
		t.Skip("run completed before the stop landed (tiny domain)")
	}
	fin := runJSONL(t, 3, Options{Workers: 4, Checkpoint: ck, Resume: true}, out)
	if fin.Incomplete {
		t.Fatalf("resumed run incomplete at %d", fin.NextIndex)
	}
	full := filepath.Join(dir, "full.jsonl")
	runJSONL(t, 3, Options{Workers: 1}, full)
	if !bytes.Equal(readFile(t, out), readFile(t, full)) {
		t.Fatal("stop/resume output differs from uninterrupted run")
	}
}

// TestStreamCheckpointMismatch checks a checkpoint from different run
// parameters is rejected instead of silently blending streams.
func TestStreamCheckpointMismatch(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "out.ckpt")
	runJSONL(t, 3, Options{Checkpoint: ck, MaxIndices: 32, ShardSize: 8}, out)
	sink, err := NewJSONLSink(out)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if _, err := Stream(3, Options{Checkpoint: ck, Resume: true, Orbits: true}, sink); err == nil {
		t.Fatal("orbit-mode resume of a full-sweep checkpoint must fail")
	}
	if _, err := Stream(2, Options{Checkpoint: ck, Resume: true}, sink); err == nil {
		t.Fatal("n=2 resume of an n=3 checkpoint must fail")
	}
}

// TestOrbitCensusTotals is the symmetry-reduction acceptance test: the
// orbit-mode census examines strictly fewer adversaries yet reports
// exactly the full sweep's totals, for n ≤ 4 (n=4 skipped in -short).
func TestOrbitCensusTotals(t *testing.T) {
	ns := []int{1, 2, 3}
	if !testing.Short() {
		ns = append(ns, 4)
	}
	for _, n := range ns {
		fullRep, err := Run(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var col Collector
		orbRep, err := Stream(n, Options{Orbits: true, Workers: 4}, &col)
		if err != nil {
			t.Fatal(err)
		}
		want := fullRep.Summary
		got := orbRep.Summary
		got.Orbits = 0 // the only legitimately differing field
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("n=%d: orbit summary differs from full sweep:\n%+v\n%+v", n, got, want)
		}
		if n >= 2 && uint64(len(col.Entries)) >= fullRep.Summary.Total {
			t.Fatalf("n=%d: orbit mode examined %d of %d — no reduction", n, len(col.Entries), fullRep.Summary.Total)
		}
		if orbRep.Summary.Orbits != uint64(len(col.Entries)) {
			t.Fatalf("n=%d: orbit count %d vs %d entries", n, orbRep.Summary.Orbits, len(col.Entries))
		}
		var weight uint64
		for _, e := range col.Entries {
			if e.OrbitSize == 0 {
				t.Fatalf("n=%d: entry %d missing orbit size", n, e.Index)
			}
			weight += e.OrbitSize
		}
		if weight != fullRep.Summary.Total {
			t.Fatalf("n=%d: orbit sizes sum to %d, want %d", n, weight, fullRep.Summary.Total)
		}
	}
}

// TestOrbitCensusSolveTotals checks orbit weighting through the solve
// path at n=2: weighted solve counters match the full solving sweep.
func TestOrbitCensusSolveTotals(t *testing.T) {
	full, err := Run(2, Options{Task: "kset:k=1", VerifyWitnesses: true})
	if err != nil {
		t.Fatal(err)
	}
	orb, err := Stream(2, Options{Task: "kset:k=1", VerifyWitnesses: true, Orbits: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orb.Summary.Solved != full.Summary.Solved ||
		orb.Summary.Solvable != full.Summary.Solvable ||
		orb.Summary.Undecided != full.Summary.Undecided {
		t.Fatalf("orbit solve counters differ: %+v vs %+v", orb.Summary, full.Summary)
	}
}

// TestOrbitSolveByteIdentical checks that solve-mode orbit sweeps
// produce byte-identical streams and summaries at one worker and at
// eight; two-representative blocks keep the eight workers solving side
// by side.
func TestOrbitSolveByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := func(workers int) Options {
		return Options{Orbits: true, Task: "kset:k=1", MaxRounds: 1, Workers: workers, ShardSize: 2}
	}
	w1 := filepath.Join(dir, "w1.jsonl")
	w8 := filepath.Join(dir, "w8.jsonl")
	rep1 := runJSONL(t, 3, opts(1), w1)
	rep8 := runJSONL(t, 3, opts(8), w8)
	if !bytes.Equal(readFile(t, w1), readFile(t, w8)) {
		t.Fatal("solve-mode orbit stream differs between 1 and 8 workers")
	}
	if rep1.Summary.Total != rep8.Summary.Total ||
		rep1.Summary.Solved != rep8.Summary.Solved ||
		rep1.Summary.Solvable != rep8.Summary.Solvable ||
		rep1.Summary.Orbits != rep8.Summary.Orbits {
		t.Fatalf("solve summaries differ: %+v vs %+v", rep1.Summary, rep8.Summary)
	}
}

// TestOrbitCheckpointResume checks the n=5 campaign shape end to end at
// n=3: an orbit-reduced streaming sweep, interrupted and resumed, is
// byte-identical to its uninterrupted counterpart.
func TestOrbitCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runJSONL(t, 3, Options{Orbits: true, Workers: 1}, full)

	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "out.ckpt")
	part := runJSONL(t, 3, Options{Orbits: true, Workers: 4, ShardSize: 4, Checkpoint: ck, CheckpointEvery: 8, MaxIndices: 40}, out)
	if !part.Incomplete {
		t.Fatal("budgeted orbit run not incomplete")
	}
	fin := runJSONL(t, 3, Options{Orbits: true, Workers: 2, Checkpoint: ck, Resume: true}, out)
	if fin.Incomplete {
		t.Fatal("resumed orbit run incomplete")
	}
	if !bytes.Equal(readFile(t, out), readFile(t, full)) {
		t.Fatal("orbit resume output differs from uninterrupted run")
	}
	if fin.Summary.Total != 128 {
		t.Fatalf("orbit-weighted total = %d, want 128", fin.Summary.Total)
	}
}

// TestStreamDomainBeyondMaxDomainGate pins the MaxDomain boundary: Run
// still refuses n=5 (collector memory), Stream does not gate on domain
// size (a budgeted probe of the first shards must succeed).
func TestStreamDomainBeyondMaxDomainGate(t *testing.T) {
	if _, err := Run(5, Options{}); !errors.Is(err, ErrDomainTooLarge) {
		t.Fatalf("Run(5) = %v, want ErrDomainTooLarge", err)
	}
	rep, err := Stream(5, Options{Workers: 2, ShardSize: 8, MaxIndices: 32}, nil)
	if err != nil {
		t.Fatalf("budgeted n=5 stream: %v", err)
	}
	if !rep.Incomplete || rep.NextIndex != 32 {
		t.Fatalf("n=5 probe: incomplete=%v next=%d, want true/32", rep.Incomplete, rep.NextIndex)
	}
	if rep.Summary.Total != 32 {
		t.Fatalf("n=5 probe total = %d, want 32", rep.Summary.Total)
	}
}

// TestStreamSinkKindMismatch guards the campaign against silently
// losing its swept prefix: a checkpoint written without a persistent
// sink cannot be resumed with one (and vice versa).
func TestStreamSinkKindMismatch(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	// Summary-only (volatile) interrupted run.
	if _, err := Stream(3, Options{Checkpoint: ck, MaxIndices: 32, ShardSize: 8}, nil); err != nil {
		t.Fatal(err)
	}
	sink, err := NewJSONLSink(filepath.Join(dir, "out.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if _, err := Stream(3, Options{Checkpoint: ck, Resume: true}, sink); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("persistent resume of a volatile checkpoint = %v, want ErrCheckpointMismatch", err)
	}
	// And the reverse: a JSONL checkpoint resumed summary-only.
	ck2 := filepath.Join(dir, "ck2.json")
	sink2, err := NewJSONLSink(filepath.Join(dir, "out2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	if _, err := Stream(3, Options{Checkpoint: ck2, MaxIndices: 32, ShardSize: 8}, sink2); err != nil {
		t.Fatal(err)
	}
	if _, err := Stream(3, Options{Checkpoint: ck2, Resume: true}, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("volatile resume of a persistent checkpoint = %v, want ErrCheckpointMismatch", err)
	}
	// Matching kinds still resume fine.
	if rep, err := Stream(3, Options{Checkpoint: ck, Resume: true}, nil); err != nil || rep.Incomplete {
		t.Fatalf("volatile/volatile resume: %v (incomplete=%v)", err, rep != nil && rep.Incomplete)
	}
}

// TestStreamStopMidShard checks the stop hook lands between indices,
// not shards: with one worker and a big shard, the frontier must end
// inside the first shard (bounded overshoot), and the resumed run must
// still be byte-identical.
func TestStreamStopMidShard(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "ck.json")
	stop := make(chan struct{})
	var once sync.Once
	opts := Options{
		Workers: 1, ShardSize: 64,
		Checkpoint: ck, Stop: stop,
	}
	opts.examineHook = func(idx uint64) {
		if idx == 10 {
			once.Do(func() { close(stop) })
			// Give the stop watcher time to latch before the worker
			// reaches the next index check.
			time.Sleep(100 * time.Millisecond)
		}
	}
	part := runJSONL(t, 3, opts, out)
	if !part.Incomplete {
		t.Fatal("stopped run not incomplete")
	}
	if part.NextIndex <= 10 || part.NextIndex >= 64 {
		t.Fatalf("frontier %d: stop should land mid-shard (10 < frontier < 64)", part.NextIndex)
	}
	fin := runJSONL(t, 3, Options{Workers: 4, Checkpoint: ck, Resume: true}, out)
	if fin.Incomplete {
		t.Fatal("resumed run incomplete")
	}
	full := filepath.Join(dir, "full.jsonl")
	runJSONL(t, 3, Options{Workers: 1}, full)
	if !bytes.Equal(readFile(t, out), readFile(t, full)) {
		t.Fatal("mid-shard stop/resume output differs from uninterrupted run")
	}
}

// TestStreamResumeRequiresCheckpoint guards the campaign's output: a
// Resume without a Checkpoint path would silently reset persistent
// sinks to offset zero, so it must be rejected before the sink is
// touched.
func TestStreamResumeRequiresCheckpoint(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "ck.json")
	part := runJSONL(t, 3, Options{Checkpoint: ck, MaxIndices: 32, ShardSize: 8}, out)
	if !part.Incomplete {
		t.Fatal("budgeted run not incomplete")
	}
	before := readFile(t, out)
	sink, err := NewJSONLSink(out)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if _, err := Stream(3, Options{Resume: true}, sink); err == nil {
		t.Fatal("Resume without Checkpoint must fail")
	}
	if got := readFile(t, out); !bytes.Equal(got, before) {
		t.Fatalf("rejected resume touched the output: %d bytes -> %d", len(before), len(got))
	}
}
