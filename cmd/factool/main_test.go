package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
)

func TestRunSubcommands(t *testing.T) {
	cases := [][]string{
		{"chr", "-n", "3"},
		{"adversary", "-n", "3", "-kind", "fig5b"},
		{"adversary", "-n", "3", "-kind", "waitfree"},
		{"affine", "-n", "3", "-kind", "kof", "-k", "1"},
		{"classify", "-n", "2"},
		{"census", "-n", "2", "-json"},
		{"census", "-n", "2", "-solve", "-ktask", "1", "-verify", "-stats"},
		{"census", "-n", "3", "-workers", "4", "-progress"},
		{"help"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	outc := make(chan string)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		outc <- b.String()
	}()
	ferr := f()
	w.Close()
	out := <-outc
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	return out
}

// TestCensusOutputDeterministic asserts the tentpole acceptance
// criterion at the CLI surface: both the human summary and the JSON
// report of `factool census -n 3` are byte-identical for -workers 1
// and -workers 8.
func TestCensusOutputDeterministic(t *testing.T) {
	for _, mode := range [][]string{
		{"census", "-n", "3"},
		{"census", "-n", "3", "-json"},
	} {
		serial := captureStdout(t, func() error {
			return run(append(append([]string{}, mode...), "-workers", "1"))
		})
		parallel := captureStdout(t, func() error {
			return run(append(append([]string{}, mode...), "-workers", "8"))
		})
		if serial != parallel {
			t.Errorf("%v output differs between -workers 1 and -workers 8", mode)
		}
		if len(serial) == 0 {
			t.Errorf("%v produced no output", mode)
		}
	}
}

// TestCensusKTaskSpelling pins -ktask as the CLI spelling of
// -task kset:k=K: `-solve -ktask 2` answers byte-identically to
// `-task kset:k=2` and to the report recorded before the census
// library lost its KTask option, and `-ktask 0` still means k=1.
func TestCensusKTaskSpelling(t *testing.T) {
	census := func(n string, args ...string) string {
		return captureStdout(t, func() error {
			return run(append([]string{"census", "-n", n, "-json", "-workers", "4"}, args...))
		})
	}
	ktask := census("3", "-solve", "-ktask", "2")
	const want = "ed8112c5e5c4a4b73d6838a4c57c00b8c6a2c1f837d6de8011c0632184c173ae"
	if sum := sha256.Sum256([]byte(ktask)); hex.EncodeToString(sum[:]) != want {
		t.Errorf("-solve -ktask 2 report sha256 %x, want %s", sum, want)
	}
	if spec := census("3", "-task", "kset:k=2"); spec != ktask {
		t.Error("-solve -ktask 2 differs from -task kset:k=2")
	}
	if k0, k1 := census("2", "-solve", "-ktask", "0"), census("2", "-solve", "-ktask", "1"); k0 != k1 {
		t.Error("-ktask 0 differs from -ktask 1")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"adversary", "-kind", "nonsense"},
		{"adversary", "-n", "4", "-kind", "fig5b"}, // fig5b is n=3 only
		{"census", "-n", "7"},                      // domain out of range must error, not panic
		{"census", "-n", "0", "-out", "x.jsonl"},   // streaming path validates too
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestFiguresWritesSVGs(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"figures", "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("figure files = %d, want 9", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure1b_r1res.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("figure1b is not an SVG")
	}
}

// TestSolveCommand runs solve, which reads -ktask as census does
// (through tasks.KSetSpec): -ktask 0 and -ktask -3 decide and print
// 1-set consensus exactly as -ktask 1 does.
func TestSolveCommand(t *testing.T) {
	if err := run([]string{"solve", "-n", "3", "-kind", "kof", "-k", "1", "-ktask", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"solve", "-n", "3", "-kind", "tres", "-t", "1", "-ktask", "2"}); err != nil {
		t.Fatal(err)
	}
	solve := func(k string) string {
		return captureStdout(t, func() error {
			return run([]string{"solve", "-n", "3", "-kind", "tres", "-t", "1", "-ktask", k})
		})
	}
	one := solve("1")
	if !strings.Contains(one, "1-set consensus: no map") {
		t.Fatalf("-ktask 1 under 1-resilience should find no map:\n%s", one)
	}
	for _, k := range []string{"0", "-3"} {
		if got := solve(k); got != one {
			t.Errorf("-ktask %s printed\n%s\nwant what -ktask 1 prints:\n%s", k, got, one)
		}
	}
}

func TestSimulateCommand(t *testing.T) {
	if err := run([]string{"simulate", "-n", "3", "-kind", "kof", "-k", "1", "-trials", "10"}); err != nil {
		t.Fatal(err)
	}
}

// TestCensusStreamingCLI drives the streaming surface end to end: an
// interrupted (-maxindices) run with a checkpoint, resumed to
// completion, must leave a JSONL stream and summary byte-identical to
// an uninterrupted run — serial and parallel.
func TestCensusStreamingCLI(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	fullOut := captureStdout(t, func() error {
		return run([]string{"census", "-n", "3", "-workers", "1", "-out", full})
	})
	fullBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullBytes) == 0 {
		t.Fatal("streaming run wrote no entries")
	}
	for _, workers := range []string{"1", "8"} {
		out := filepath.Join(dir, "part-w"+workers+".jsonl")
		ck := filepath.Join(dir, "ck-w"+workers+".json")
		_ = captureStdout(t, func() error {
			return run([]string{"census", "-n", "3", "-workers", workers,
				"-out", out, "-checkpoint", ck, "-checkpoint-every", "16", "-maxindices", "48"})
		})
		if _, err := os.Stat(ck); err != nil {
			t.Fatalf("workers=%s: no checkpoint written: %v", workers, err)
		}
		resumed := captureStdout(t, func() error {
			return run([]string{"census", "-n", "3", "-workers", workers,
				"-out", out, "-checkpoint", ck, "-resume"})
		})
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(fullBytes) {
			t.Errorf("workers=%s: resumed JSONL differs from uninterrupted run", workers)
		}
		if resumed != fullOut {
			t.Errorf("workers=%s: resumed summary differs from uninterrupted run:\n%s\n%s", workers, resumed, fullOut)
		}
	}
}

// TestCensusOrbitsCLI checks -orbits reports the same totals as the
// full sweep (modulo its extra orbit-representatives line).
func TestCensusOrbitsCLI(t *testing.T) {
	fullOut := captureStdout(t, func() error {
		return run([]string{"census", "-n", "3"})
	})
	orbOut := captureStdout(t, func() error {
		return run([]string{"census", "-n", "3", "-orbits"})
	})
	var kept []string
	for _, line := range strings.Split(orbOut, "\n") {
		if strings.Contains(line, "orbit representatives") {
			continue
		}
		kept = append(kept, line)
	}
	if strings.Join(kept, "\n") != fullOut {
		t.Errorf("orbit summary (minus orbit line) differs from full sweep:\n%q\n%q", orbOut, fullOut)
	}
	if orbOut == fullOut {
		t.Error("orbit summary should report the representatives examined")
	}
}

// TestCensusResumeWithoutCheckpointStartsFresh pins the CI-robustness
// behavior: -resume with a missing sidecar is a fresh full run.
func TestCensusResumeWithoutCheckpointStartsFresh(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ck := filepath.Join(dir, "never-written.json")
	fresh := captureStdout(t, func() error {
		return run([]string{"census", "-n", "3", "-out", out, "-checkpoint", ck, "-resume"})
	})
	plain := captureStdout(t, func() error {
		return run([]string{"census", "-n", "3"})
	})
	if fresh != plain {
		t.Errorf("fresh -resume run differs from plain census:\n%q\n%q", fresh, plain)
	}
}

// captureStderr runs f with os.Stderr redirected and returns what it
// wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() { os.Stderr = old }()
	outc := make(chan string)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		outc <- b.String()
	}()
	f()
	w.Close()
	return <-outc
}

// TestExitCodes pins the CLI contract: 0 for success and help, 2 for
// usage errors (bad flags, bad values, unknown subcommand), 1 for
// runtime failures.
func TestExitCodes(t *testing.T) {
	// A store path no row may create: a -rounds check that let the
	// coordinator through would open it and serve.
	absent := filepath.Join(t.TempDir(), "absent")
	cases := []struct {
		args []string
		want int
	}{
		{nil, 2},                                                   // missing subcommand
		{[]string{"bogus"}, 2},                                     // unknown subcommand
		{[]string{"census", "-bogus"}, 2},                          // undefined flag
		{[]string{"census", "-n", "9"}, 2},                         // invalid flag value
		{[]string{"census", "-compress"}, 2},                       // -compress without -out
		{[]string{"merge"}, 2},                                     // missing -store
		{[]string{"merge", "-n", "3", "-store", "x"}, 2},           // no shards
		{[]string{"serve"}, 2},                                     // missing -store
		{[]string{"serve", "-store", "/nonexistent-store-dir"}, 1}, // runtime failure
		{[]string{"census", "-h"}, 0},                              // help exits clean
		{[]string{"help"}, 0},
		{[]string{"chr", "-n", "3"}, 0},
		// Out-of-range values are usage errors, not panics or wrapped
		// counts.
		{[]string{"loadtest", "-url", "http://127.0.0.1:1", "-n", "7"}, 2}, // census domain past uint64
		{[]string{"adversary", "-n", "33"}, 2},                             // beyond procs.MaxProcs too
		{[]string{"adversary", "-n", "17"}, 2},                             // beyond maxAdversaryProcs
		{[]string{"adversary", "-n", "3", "-kind", "kof", "-k", "0"}, 2},   // the empty adversary
		{[]string{"adversary", "-n", "3", "-kind", "kof", "-k", "4"}, 2},
		{[]string{"solve", "-n", "3", "-kind", "kof", "-k", "0"}, 2},
		{[]string{"adversary", "-n", "3", "-kind", "kof", "-k", "3"}, 0},
		{[]string{"affine", "-n", "0"}, 2},
		{[]string{"solve", "-n", "0"}, 2},
		{[]string{"simulate", "-n", "0"}, 2},
		{[]string{"adversary", "-n", "3", "-kind", "tres", "-t", "7"}, 2}, // no live set
		{[]string{"adversary", "-n", "3", "-kind", "tres", "-t", "-1"}, 2},
		{[]string{"chr", "-n", "12"}, 2}, // Chr² facet count past uint64
		{[]string{"chr", "-n", "0"}, 2},
		{[]string{"chr", "-n", "11"}, 0},
		{[]string{"serve", "-store", "/nonexistent-store-dir", "-rounds", "9"}, 2}, // past /v1/solve's rounds range
		{[]string{"serve", "-store", "/nonexistent-store-dir", "-rounds", "0"}, 2},
		// -rounds has the one range [1, census.MaxRounds] everywhere.
		{[]string{"census", "-n", "2", "-solve", "-rounds", "0"}, 2},
		{[]string{"census", "-n", "2", "-solve", "-rounds", "-5"}, 2},
		{[]string{"census", "-n", "2", "-solve", "-rounds", "5"}, 2},
		{[]string{"coordinate", "-store", absent, "-solve", "-rounds", "0"}, 2},
		{[]string{"coordinate", "-store", absent, "-solve", "-rounds", "5"}, 2},
		{[]string{"solve", "-n", "2", "-kind", "waitfree", "-rounds", "0"}, 2},
		{[]string{"solve", "-n", "2", "-kind", "waitfree", "-rounds", "5"}, 2},
	}
	for _, c := range cases {
		var got int
		_ = captureStderr(t, func() { got = mainRun(c.args) })
		if got != c.want {
			t.Errorf("mainRun(%v) = %d, want %d", c.args, got, c.want)
		}
	}
}

// TestBadFlagsPrintSubcommandUsage: a subcommand's flag failure must
// print that subcommand's usage, not the global listing.
func TestBadFlagsPrintSubcommandUsage(t *testing.T) {
	for _, args := range [][]string{
		{"census", "-bogus"},  // parse error
		{"census", "-n", "9"}, // validation error
		{"merge", "-n", "3"},  // missing -store
	} {
		stderr := captureStderr(t, func() { mainRun(args) })
		if !strings.Contains(stderr, "usage: factool "+args[0]) {
			t.Errorf("%v: stderr misses the %s usage line:\n%s", args, args[0], stderr)
		}
		if strings.Contains(stderr, "subcommands:") {
			t.Errorf("%v: stderr shows the global usage instead of the subcommand's:\n%s", args, stderr)
		}
	}
	// The global usage still appears for unknown subcommands.
	stderr := captureStderr(t, func() { mainRun([]string{"bogus"}) })
	if !strings.Contains(stderr, "subcommands:") {
		t.Errorf("unknown subcommand should print the global usage:\n%s", stderr)
	}
}

// TestMergeCLI drives census → merge → store round-trip at the CLI
// surface, including a compressed shard and the -summary report.
func TestMergeCLI(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "census.jsonl.gz")
	storeDir := filepath.Join(dir, "store")
	if err := run([]string{"census", "-n", "3", "-workers", "1", "-out", shard, "-compress"}); err != nil {
		t.Fatal(err)
	}
	censusOut := captureStdout(t, func() error {
		return run([]string{"census", "-n", "3"})
	})
	var mergeOut string
	stderr := captureStderr(t, func() {
		mergeOut = captureStdout(t, func() error {
			return run([]string{"merge", "-n", "3", "-store", storeDir, "-summary", shard})
		})
	})
	if !strings.Contains(stderr, "128 entries") {
		t.Errorf("merge report misses the entry count:\n%s", stderr)
	}
	if mergeOut != censusOut {
		t.Errorf("merge -summary differs from census output:\n%q\n%q", mergeOut, censusOut)
	}
	// Idempotent re-merge: all duplicates, nothing added.
	stderr = captureStderr(t, func() {
		if err := run([]string{"merge", "-n", "3", "-store", storeDir, shard}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(stderr, "+0 entries (128 duplicates folded)") {
		t.Errorf("re-merge should fold everything as duplicates:\n%s", stderr)
	}
	// Wrong n against an existing store is a runtime error.
	if err := run([]string{"merge", "-n", "4", "-store", storeDir, shard}); err == nil {
		t.Error("merge with mismatched -n should fail")
	}
}

// TestDrawIndex: the n=6 census domain holds 2^63 indices, past what
// Int63n accepts; its draws stay inside it and reach its upper half.
// Smaller domains draw exactly Int63n's sequence, so a seed's requests
// do not change.
func TestDrawIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	domain := adversary.CensusSize(6)
	upper := false
	for range 64 {
		idx := drawIndex(rng, domain)
		if idx >= domain {
			t.Fatalf("index %d outside the domain of %d", idx, domain)
		}
		upper = upper || idx >= domain/2
	}
	if !upper {
		t.Error("64 draws missed the upper half of the n=6 domain")
	}
	got, want := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for n := 1; n <= 5; n++ {
		domain := adversary.CensusSize(n)
		for range 16 {
			if g, w := drawIndex(got, domain), uint64(want.Int63n(int64(domain))); g != w {
				t.Fatalf("n=%d: drew %d, Int63n drew %d", n, g, w)
			}
		}
	}
}

// TestServeUntilDrainsInFlight: once done closes, serveUntil drains
// and returns nil, but only after the request already in flight has
// been answered.
func TestServeUntilDrainsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "answered")
	})
	done, drained := make(chan struct{}), make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- serveUntil(ln, handler, done, func() { close(drained) }, 10*time.Second)
	}()
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			body <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body <- string(b)
	}()
	<-entered
	close(done)
	<-drained
	select {
	case err := <-served:
		t.Fatalf("serveUntil returned %v with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-served; err != nil {
		t.Fatalf("serveUntil after drain: %v", err)
	}
	if got := <-body; got != "answered" {
		t.Fatalf("in-flight request got %q", got)
	}
}
