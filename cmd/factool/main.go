// Command factool explores the FACT reproduction from the command line:
//
//	factool chr -n 3                             # Chr s census (Figure 1a)
//	factool adversary -n 3 -kind tres -t 1       # adversary + agreement function
//	factool affine -n 3 -kind kof -k 1           # build R_A, print stats
//	factool classify -n 3                        # Figure 2 census
//	factool census -n 3 -workers 8 -json         # parallel census, JSON report
//	factool merge -n 3 -store DIR a.jsonl        # merge shards into a store
//	factool serve -store DIR -addr :8080         # HTTP query layer over a store
//	factool coordinate -n 4 -store DIR           # distributed-campaign coordinator
//	factool work -url http://host:8081           # fabric worker (acquire/sweep/upload)
//	factool figures -dir out/                    # regenerate all figure SVGs
//	factool solve -n 3 -kind tres -t 1 -ktask 2  # FACT solvability decision
//	factool simulate -n 3 -kind kof -k 1         # Algorithm 1 + §6 campaigns
//
// Exit codes: 0 on success (including -h/help), 2 on bad usage (unknown
// subcommand, bad flags, invalid flag values — with the offending
// subcommand's usage on stderr), 1 on runtime failure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	fact "repro"
	"repro/internal/adversary"
	"repro/internal/api"
	"repro/internal/census"
	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/render"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/tasks"
)

func main() {
	os.Exit(mainRun(os.Args[1:]))
}

// mainRun maps run's outcome to the process exit code, printing usage
// for the specific failing subcommand on bad flags.
func mainRun(args []string) int {
	err := run(args)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		// -h on a subcommand: the FlagSet already printed its usage.
		return 0
	case errors.Is(err, errBadFlags):
		// Parse failure: the FlagSet already printed the error and the
		// subcommand's usage.
		return 2
	}
	var ue *usageError
	if errors.As(err, &ue) {
		fmt.Fprintln(os.Stderr, "factool:", ue.err)
		ue.fs.Usage()
		return 2
	}
	fmt.Fprintln(os.Stderr, "factool:", err)
	return 1
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand: %w", errBadFlags)
	}
	switch args[0] {
	case "chr":
		return cmdChr(args[1:])
	case "adversary":
		return cmdAdversary(args[1:])
	case "affine":
		return cmdAffine(args[1:])
	case "classify":
		return cmdClassify(args[1:])
	case "census":
		return cmdCensus(args[1:])
	case "merge":
		return cmdMerge(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "coordinate":
		return cmdCoordinate(args[1:])
	case "work":
		return cmdWork(args[1:])
	case "store":
		return cmdStore(args[1:])
	case "loadtest":
		return cmdLoadtest(args[1:])
	case "tracecat":
		return cmdTracecat(args[1:])
	case "figures":
		return cmdFigures(args[1:])
	case "solve":
		return cmdSolve(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q: %w", args[0], errBadFlags)
	}
}

// usage prints the global listing: every subcommand's synopsis under
// its one-line description, from the synopses table.
func usage() {
	w := os.Stderr
	fmt.Fprint(w, "factool — fair-adversary affine tasks toolbox\n\n"+
		"usage: factool SUBCOMMAND [flags] (factool SUBCOMMAND -h lists its flags)\n\n"+
		"subcommands:\n")
	for _, sub := range synopses {
		fmt.Fprintf(w, "  %-13s %s\n", sub.name, sub.about)
		for _, line := range strings.Split(sub.args, "\n") {
			fmt.Fprintf(w, "  %-13s   %s\n", "", line)
		}
	}
	fmt.Fprint(w, `
adversary kinds (-kind): waitfree | tres (-t) | kof (-k) | fig5b

observability: -debug-addr HOST:PORT serves /healthz, /metrics,
  /debug/pprof and /debug/trace beside the work; -trace FILE writes the
  span JSONL that factool tracecat reads
`)
}

// synopses is factool's one usage table, in listing order: each
// subcommand's flag synopsis, which its FlagSet prints on bad flags,
// and the one-line description the global listing adds.
var synopses = []struct{ name, args, about string }{
	{"chr", "-n N", "Chr s census (Figure 1a)"},
	{"adversary", "-n N -kind waitfree|tres|kof|fig5b [-t T] [-k K]",
		"adversary, α, classification"},
	{"affine", "-n N -kind waitfree|tres|kof|fig5b [-t T] [-k K]", "affine task R_A stats"},
	{"classify", "-n N", "adversary census (Figure 2)"},
	{"census", "-n N [-workers W] [-json] [-solve -task S -rounds L -verify] [-stats]\n" +
		"[-family F] [-progress] [-orbits] [-out F.jsonl] [-compress]\n" +
		"[-checkpoint F -resume] [-checkpoint-every I]\n" +
		"[-maxindices I] [-budget D] [-cachemb M]\n" +
		"[-debug-addr HOST:PORT] [-trace FILE]",
		"streaming, checkpointable adversary census; decides any registered task"},
	{"merge", "-n N -store DIR [-block-entries B] [-summary] SHARD.jsonl[.gz]...",
		"merge census JSONL shards into an indexed store"},
	{"serve", "-store DIR [-store DIR ...] [-stores GLOB] [-addr HOST:PORT]\n" +
		"[-apikeys FILE] [-log-json] [-metrics=false]\n" +
		"[-cache-entries E] [-cachemb M] [-rounds L] [-readonly]\n" +
		"[-no-presence] [-drain-timeout D]\n" +
		"[-debug-addr HOST:PORT] [-trace FILE]",
		"serve the v1 HTTP API over every mounted store"},
	{"coordinate", "-n N -store DIR [-orbits] [-solve -task S -rounds L] [-unit-size U]\n" +
		"[-addr HOST:PORT] [-ttl D] [-spool DIR] [-apikeys FILE]\n" +
		"[-log-json] [-exit-on-complete] [-drain-timeout D]\n" +
		"[-debug-addr HOST:PORT] [-trace FILE]",
		"campaign coordinator: lease index units to workers, merge their shards"},
	{"work", "-url URL [-id W] [-task S] [-workers W] [-ttl SEC] [-cachemb M] [-tmp DIR]\n" +
		"[-max-units K] [-apikey KEY] [-max-outage D] [-crash-after K]\n" +
		"[-debug-addr HOST:PORT] [-trace FILE]",
		"fabric worker: acquire, sweep and upload units until the campaign completes"},
	{"store verify", "-store DIR [-spot K] [-json]",
		"deep-check a store; exit 1 on corruption"},
	{"loadtest", "-url URL -n N [-duration D] [-concurrency C] [-batch B]\n" +
		"[-solve-frac F] [-batch-frac F] [-task S] [-ktask K] [-seed S]\n" +
		"[-apikey KEY] [-slo-p99 D] [-json]",
		"closed-loop load against a serve endpoint, latency percentiles and SLO check"},
	{"tracecat", "[-json] [-top K] TRACE.jsonl... (stdin when no files)",
		"per-stage latency table of -trace span files"},
	{"figures", "-dir DIR", "regenerate the paper's figure SVGs"},
	{"solve", "-n N -kind K [-t T] [-k K] -ktask K' [-rounds L] [-workers W] [-stats]",
		"k-set consensus solvability (FACT decision)"},
	{"simulate", "-n N -kind K [-t T] [-k K] [-trials T] [-seed S]",
		"Algorithm 1 and Section 6 campaigns"},
}

// errBadFlags marks a flag-parse failure the FlagSet already reported
// (message + subcommand usage on stderr): exit 2, nothing reprinted.
var errBadFlags = errors.New("bad flags")

// usageError is a post-parse validation failure that should show the
// failing subcommand's usage: exit 2.
type usageError struct {
	fs  *flag.FlagSet
	err error
}

func (e *usageError) Error() string { return e.err.Error() }

// usagef wraps a validation failure with the subcommand's FlagSet so
// mainRun prints its usage.
func usagef(fs *flag.FlagSet, format string, args ...any) error {
	return &usageError{fs: fs, err: fmt.Errorf(format, args...)}
}

// newFlagSet builds a subcommand FlagSet whose usage output names the
// subcommand and its synopsis.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		head := "usage: factool " + name + " "
		for _, sub := range synopses {
			if sub.name == name {
				// Continuation lines line up under the first flag.
				args := strings.ReplaceAll(sub.args, "\n", "\n"+strings.Repeat(" ", len(head)))
				fmt.Fprintln(fs.Output(), head+args)
			}
		}
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags parses args, normalizing errors: help requests pass
// through, parse failures (already reported by the FlagSet, with the
// subcommand usage) become errBadFlags.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return fmt.Errorf("%v: %w", err, errBadFlags)
	}
	return nil
}

// adversaryFlags adds the shared adversary-selection flags.
func adversaryFlags(fs *flag.FlagSet) (n *int, kind *string, t *int, k *int) {
	n = fs.Int("n", 3, "number of processes")
	kind = fs.String("kind", "tres", "adversary kind: waitfree|tres|kof|fig5b")
	t = fs.Int("t", 1, "resilience parameter for -kind tres")
	k = fs.Int("k", 1, "concurrency parameter for -kind kof")
	return
}

// checkRounds bounds a -rounds flag to [1, census.MaxRounds], the
// range /v1/solve?rounds= accepts too.
func checkRounds(fs *flag.FlagSet, rounds int) error {
	if rounds < 1 || rounds > census.MaxRounds {
		return usagef(fs, "%s: -rounds must be in [1,%d], got %d", fs.Name(), census.MaxRounds, rounds)
	}
	return nil
}

// maxAdversaryProcs bounds the shared -n flag well below
// procs.MaxProcs: the family constructors materialise up to 2^n − 1
// live sets, so on a 2-vCPU VM the wait-free adversary takes about
// 1.5 s at n=16 and 4 s at n=17, and runs out of memory at n=32.
const maxAdversaryProcs = 16

// buildAdversary builds the adversary the shared flags select. Flag
// values out of range are usage errors of fs's subcommand.
func buildAdversary(fs *flag.FlagSet, n int, kind string, t, k int) (*adversary.Adversary, error) {
	if n < 1 || n > maxAdversaryProcs {
		return nil, usagef(fs, "%s: -n must be in [1,%d], got %d", fs.Name(), maxAdversaryProcs, n)
	}
	switch kind {
	case "waitfree":
		return adversary.WaitFree(n), nil
	case "tres":
		if t < 0 || t > n-1 {
			return nil, usagef(fs, "%s: -t must be in [0,%d] for n=%d, got %d", fs.Name(), n-1, n, t)
		}
		return adversary.TResilient(n, t), nil
	case "kof":
		if k < 1 || k > n {
			return nil, usagef(fs, "%s: -k must be in [1,%d] for n=%d, got %d", fs.Name(), n, n, k)
		}
		return adversary.KObstructionFree(n, k), nil
	case "fig5b":
		if n != 3 {
			return nil, usagef(fs, "%s: fig5b adversary is defined for n=3", fs.Name())
		}
		return adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	default:
		return nil, usagef(fs, "%s: unknown adversary kind %q", fs.Name(), kind)
	}
}

func cmdChr(args []string) error {
	fs := newFlagSet("chr")
	n := fs.Int("n", 3, "number of processes")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// From n=12 on, the Chr² facet count overflows uint64.
	if *n < 1 || *n >= 12 {
		return usagef(fs, "chr: -n must be in [1,11], got %d", *n)
	}
	fmt.Printf("Chr s for n=%d\n", *n)
	fmt.Printf("  facets (ordered partitions): %d\n", procs.CountOrderedPartitions(*n))
	fmt.Printf("  vertices: %d\n", *n*(1<<uint(*n-1)))
	fmt.Printf("  Chr² s facets: %d\n",
		procs.CountOrderedPartitions(*n)*procs.CountOrderedPartitions(*n))
	return nil
}

func cmdAdversary(args []string) error {
	fs := newFlagSet("adversary")
	n, kind, t, k := adversaryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	a, err := buildAdversary(fs, *n, *kind, *t, *k)
	if err != nil {
		return err
	}
	fmt.Printf("%v (n=%d)\n", a, a.N())
	fmt.Printf("  superset-closed: %v\n", a.IsSupersetClosed())
	fmt.Printf("  symmetric:       %v\n", a.IsSymmetric())
	fmt.Printf("  fair:            %v\n", a.IsFair())
	fmt.Printf("  setcon:          %d\n", a.Setcon())
	fmt.Printf("  csize:           %d\n", a.CSize())
	fmt.Println("  agreement function:")
	af := a.AgreementFunction()
	keys := make([]procs.Set, 0, len(af))
	for p := range af {
		keys = append(keys, p)
	}
	procs.SortSets(keys)
	for _, p := range keys {
		fmt.Printf("    α(%v) = %d\n", p, af[p])
	}
	return nil
}

func cmdAffine(args []string) error {
	fs := newFlagSet("affine")
	n, kind, t, k := adversaryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	a, err := buildAdversary(fs, *n, *kind, *t, *k)
	if err != nil {
		return err
	}
	m, err := fact.NewModel(a)
	if err != nil {
		return err
	}
	fmt.Println(m.Stats())
	fmt.Println("  complex:", render.ComplexStats(m.AffineTask().Complex()))
	return nil
}

func cmdClassify(args []string) error {
	fs := newFlagSet("classify")
	n := fs.Int("n", 3, "number of processes")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// The Figure 2 numbers, computed by the parallel census engine.
	rep, err := census.Run(*n, census.Options{})
	if err != nil {
		return err
	}
	printCensusSummary(rep)
	return nil
}

func cmdCensus(args []string) error {
	fs := newFlagSet("census")
	n := fs.Int("n", 3, "number of processes")
	workers := fs.Int("workers", 0, "census workers (0 = all CPUs, 1 = serial)")
	jsonOut := fs.Bool("json", false, "emit the full deterministic report as JSON on stdout")
	solve := fs.Bool("solve", false, "also decide the configured task per fair adversary")
	task := fs.String("task", "", "registered task spec to decide (kset:k=K | consensus | loop-agreement | approx:eps=E | simplex-agreement | identity); implies -solve")
	kTask := fs.Int("ktask", 1, "k for -solve when -task is empty: the CLI spelling of -task kset:k=K")
	family := fs.String("family", "", "restrict the sweep to a named adversary family: t-resilient[:t=T] | symmetric | k-obstruction-free[:k=K]")
	rounds := fs.Int("rounds", 1, "maximum iterations of R_A for -solve")
	verify := fs.Bool("verify", false, "independently re-verify every witness map (-solve)")
	stats := fs.Bool("stats", false, "print tower-cache statistics to stderr (requires -solve)")
	progress := fs.Bool("progress", false, "report shard progress to stderr")
	orbits := fs.Bool("orbits", false, "sweep one representative per color-permutation orbit via the stabilizer-aware canonical enumerator (same totals, up to n! fewer adversaries, cost scales with orbits not domain)")
	out := fs.String("out", "", "stream entries as JSON lines to this file (bounded memory; no domain cap)")
	compress := fs.Bool("compress", false, "gzip the -out stream (automatic for .gz paths; resume-safe)")
	checkpoint := fs.String("checkpoint", "", "checkpoint sidecar path (periodic atomic frontier records)")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "enumeration indices between checkpoints (0 = default)")
	resume := fs.Bool("resume", false, "resume from -checkpoint when it exists (missing sidecar starts fresh)")
	maxIndices := fs.Uint64("maxindices", 0, "stop cleanly after exactly this many newly swept raw indices (0 = no cap)")
	budget := fs.Duration("budget", 0, "wall-clock budget; the sweep winds down cleanly when it elapses (0 = none)")
	cacheMB := fs.Int64("cachemb", 0, "tower-cache byte budget in MiB for -solve (0 = unbounded)")
	debugAddr, tracePath := debugFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *n < 1 || *n > 6 {
		return usagef(fs, "census: -n must be in [1,6], got %d", *n)
	}
	if err := checkRounds(fs, *rounds); err != nil {
		return err
	}
	if *compress && *out == "" {
		return usagef(fs, "census: -compress requires -out")
	}
	if *task != "" {
		if _, err := tasks.ParseSpec(*task); err != nil {
			return usagef(fs, "census: %v", err)
		}
		*solve = true
	} else if *solve {
		*task = tasks.KSetSpec(*kTask).String()
	}
	opts := census.Options{
		Workers:         *workers,
		Task:            *task,
		Family:          *family,
		MaxRounds:       *rounds,
		VerifyWitnesses: *verify,
		Orbits:          *orbits,
		Checkpoint:      *checkpoint,
		CheckpointEvery: *checkpointEvery,
		Resume:          *resume,
		MaxIndices:      *maxIndices,
		Budget:          *budget,
		Cache:           chromatic.NewTowerCacheWithBudget(*cacheMB << 20),
	}
	stopDebug, derr := startDebug("census", *debugAddr, *tracePath, nil)
	if derr != nil {
		return derr
	}
	defer stopDebug()
	if *progress {
		// The engine's callback only stores counters; a wall-clock
		// ticker prints rate and ETA, so the cadence is time-based
		// instead of one line per shard.
		var doneCount, totalCount atomic.Uint64
		opts.Progress = func(done, total uint64) {
			doneCount.Store(done)
			totalCount.Store(total)
		}
		stopTick := make(chan struct{})
		defer close(stopTick)
		go func() {
			tick := time.NewTicker(5 * time.Second)
			defer tick.Stop()
			var lastDone uint64
			lastAt := time.Now()
			for {
				select {
				case <-stopTick:
					return
				case now := <-tick.C:
					done, total := doneCount.Load(), totalCount.Load()
					rate := float64(done-lastDone) / now.Sub(lastAt).Seconds()
					lastDone, lastAt = done, now
					line := fmt.Sprintf("census: %d/%d adversaries (%.1f%%), %.0f/s",
						done, total, 100*float64(done)/float64(max(total, 1)), rate)
					if rate > 0 && total > done {
						eta := time.Duration(float64(total-done) / rate * float64(time.Second))
						line += ", eta " + eta.Round(time.Second).String()
					}
					fmt.Fprintln(os.Stderr, line)
				}
			}
		}()
	}

	// The collecting engine materializes every entry (the full -json
	// report); streaming runs hold memory bounded by the reorder window
	// and are what checkpoints, budgets and big domains require.
	streaming := *out != "" || *checkpoint != "" || *resume ||
		*maxIndices > 0 || *budget > 0 || adversary.CensusSize(*n) > census.MaxDomain
	var rep *census.Report
	var err error
	if streaming {
		// SIGINT winds the sweep down to a clean, checkpointed
		// frontier instead of tearing the stream mid-shard.
		stop := make(chan struct{})
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt)
		defer func() {
			signal.Stop(sigc)
			close(sigc)
		}()
		go func() {
			if _, ok := <-sigc; ok {
				// Hand SIGINT back to the default handler so a second
				// Ctrl-C force-quits a wind-down that takes too long.
				signal.Stop(sigc)
				fmt.Fprintln(os.Stderr, "census: interrupt — winding down to a clean frontier (interrupt again to force quit)")
				close(stop)
			}
		}()
		opts.Stop = stop

		var sink census.Sink
		if *out != "" {
			var js *census.JSONLSink
			var err error
			if *compress {
				js, err = census.NewJSONLSinkCompressed(*out)
			} else {
				js, err = census.NewJSONLSink(*out)
			}
			if err != nil {
				return err
			}
			defer js.Close()
			sink = js
		}
		rep, err = census.Stream(*n, opts, sink)
	} else {
		rep, err = census.Run(*n, opts)
	}
	if err != nil {
		return err
	}
	if *stats {
		if rep.Cache != nil {
			printCacheStats(*rep.Cache)
		} else {
			fmt.Fprintln(os.Stderr, "census: -stats reports the tower cache, which only solve jobs use; pass -solve")
		}
	}
	if rep.Incomplete {
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "census: incomplete — frontier at index %d/%d; rerun with -resume -checkpoint %q to continue\n",
				rep.NextIndex, adversary.CensusSize(*n), *checkpoint)
		} else {
			fmt.Fprintf(os.Stderr, "census: incomplete — stopped at index %d/%d with no -checkpoint, so this progress cannot be resumed\n",
				rep.NextIndex, adversary.CensusSize(*n))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printCensusSummary(rep)
	return nil
}

// cmdMerge folds census JSONL shards (plain or gzip) into an indexed,
// compressed on-disk store — the merge tool for per-night campaign
// shards the ROADMAP asks for.
func cmdMerge(args []string) error {
	fs := newFlagSet("merge")
	n := fs.Int("n", 0, "number of processes of the census (required; must match an existing store)")
	storeDir := fs.String("store", "", "store directory (created when missing)")
	blockEntries := fs.Int("block-entries", 0, "entries per compressed block (0 = default)")
	summary := fs.Bool("summary", false, "print the merged store's census summary to stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	shards := fs.Args()
	if *storeDir == "" {
		return usagef(fs, "merge: -store is required")
	}
	if *n < 1 || *n > 6 {
		return usagef(fs, "merge: -n must be in [1,6], got %d", *n)
	}
	if len(shards) == 0 {
		return usagef(fs, "merge: at least one shard file is required")
	}
	st, err := store.OpenOrCreate(*storeDir, *n)
	if err != nil {
		return err
	}
	defer st.Close()
	stats, err := st.Merge(shards, store.MergeOptions{BlockEntries: *blockEntries})
	if err != nil {
		return err
	}
	ss := st.Stats()
	fmt.Fprintf(os.Stderr, "merge: +%d entries (%d duplicates folded) from %d shard(s)\n",
		stats.Added, stats.Duplicates, len(shards))
	fmt.Fprintf(os.Stderr, "store %s: n=%d, %d entries, %d blocks, %d compressed bytes (gen %d)\n",
		*storeDir, ss.N, ss.Entries, ss.Blocks, ss.Bytes, ss.Generation)
	if *summary {
		sum, err := st.Summary()
		if err != nil {
			return err
		}
		printCensusSummary(&census.Report{Summary: sum})
	}
	return nil
}

// multiFlag is a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// cmdServe serves the v1 HTTP API over a registry of mounted stores —
// one process answering every mounted n — with optional API-key auth,
// Prometheus metrics, structured logging, and graceful drain on
// SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	var storeDirs multiFlag
	fs.Var(&storeDirs, "store", "census store directory to mount (repeatable; see factool merge)")
	storesGlob := fs.String("stores", "", "glob of store directories to mount (e.g. 'stores/n*')")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheEntries := fs.Int("cache-entries", 4096, "per-store in-memory entry LRU capacity")
	cacheMB := fs.Int64("cachemb", 0, "tower-cache byte budget in MiB for live solves, shared by all mounts (0 = unbounded)")
	rounds := fs.Int("rounds", 1, fmt.Sprintf("default maximum iterations of R_A for /v1/solve, in [1,%d]", census.MaxRounds))
	readonly := fs.Bool("readonly", false, "do not persist live-computed answers to the stores")
	apikeys := fs.String("apikeys", "", "API-key file (name:key[:rate[:burst]] lines); enables 401/429 auth")
	metricsOn := fs.Bool("metrics", true, "expose the Prometheus /metrics endpoint")
	logJSON := fs.Bool("log-json", false, "structured JSON request log on stderr")
	noPresence := fs.Bool("no-presence", false, "skip building per-store presence filters at startup")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "in-flight request budget during graceful shutdown")
	debugAddr, tracePath := debugFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := checkRounds(fs, *rounds); err != nil {
		return err
	}
	dirs := []string(storeDirs)
	if *storesGlob != "" {
		matches, err := filepath.Glob(*storesGlob)
		if err != nil {
			return usagef(fs, "serve: bad -stores glob: %v", err)
		}
		for _, m := range matches {
			if _, err := os.Stat(filepath.Join(m, "MANIFEST.json")); err == nil {
				dirs = append(dirs, m)
			}
		}
	}
	if len(dirs) == 0 {
		return usagef(fs, "serve: at least one -store (or a matching -stores glob) is required")
	}

	reg := store.NewRegistry()
	defer reg.Close()
	for _, dir := range dirs {
		if err := reg.MountDir(dir); err != nil {
			return err
		}
	}
	opts := store.ServerOptions{
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheMB << 20,
		MaxRounds:    *rounds,
		ReadOnly:     *readonly,
		SkipPresence: *noPresence,
	}
	if *apikeys != "" {
		auth, err := api.LoadAPIKeys(*apikeys)
		if err != nil {
			return err
		}
		opts.Auth = auth
	}
	if *logJSON {
		opts.AccessLog = os.Stderr
	}
	srv, err := store.NewServer(reg, opts)
	if err != nil {
		return err
	}
	stopDebug, err := startDebug("serve", *debugAddr, *tracePath, srv.Registry())
	if err != nil {
		return err
	}
	defer stopDebug()
	handler := srv.Handler()
	if !*metricsOn {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				http.NotFound(w, r)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	for _, mt := range reg.Mounts() {
		ss := mt.Store().Stats()
		fmt.Fprintf(os.Stderr, "factool serve: mounted %s: n=%d, %d entries, %d blocks\n",
			mt.Name(), ss.N, ss.Entries, ss.Blocks)
	}
	fmt.Fprintf(os.Stderr, "factool serve: %d store(s) listening on %s\n", len(dirs), ln.Addr())

	return serveUntil(ln, handler, nil, func() {
		fmt.Fprintln(os.Stderr, "factool serve: signal — draining in-flight requests")
		srv.SetDraining(true)
	}, *drainTimeout)
}

// Connection deadlines of the serve and coordinate listeners: a client
// that has not sent its request headers within readHeaderTimeout, or
// leaves a keep-alive connection idle for idleTimeout, loses the
// connection and the goroutine serving it. No read or write deadline
// is set, because shard uploads and live solves legitimately run long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveUntil serves handler on ln until SIGINT or SIGTERM arrives, or
// until done closes (a nil done never does). It then calls drain and
// shuts the server down, letting in-flight requests finish within
// drainTimeout. A second signal during the drain force-quits through
// the default handler.
func serveUntil(ln net.Listener, handler http.Handler, done <-chan struct{}, drain func(), drainTimeout time.Duration) error {
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	served := make(chan struct{}) // closed once Serve has returned
	shut := make(chan error, 1)
	go func() {
		select {
		case <-sigc:
		case <-done:
		case <-served:
			shut <- nil
			return
		}
		// Hand the signals back to the default handler first, so a
		// second Ctrl-C during the drain force-quits.
		signal.Stop(sigc)
		drain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		shut <- httpSrv.Shutdown(ctx)
	}()
	err := httpSrv.Serve(ln)
	signal.Stop(sigc) // no-op when the goroutine already stopped it
	close(served)
	shutErr := <-shut
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return shutErr
}

// cmdStore dispatches the store maintenance subcommands.
func cmdStore(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("store: missing subcommand (want: verify): %w", errBadFlags)
	}
	switch args[0] {
	case "verify":
		return cmdStoreVerify(args[1:])
	default:
		usage()
		return fmt.Errorf("store: unknown subcommand %q (want: verify): %w", args[0], errBadFlags)
	}
}

// cmdStoreVerify deep-checks a store: full CRC/framing walk, manifest
// consistency, duplicate agreement, kind discipline, and an
// orbit/classification spot check. Exit 1 on corruption.
func cmdStoreVerify(args []string) error {
	fs := newFlagSet("store verify")
	storeDir := fs.String("store", "", "census store directory (required)")
	spot := fs.Int("spot", 8, "entries to semantically re-derive (canonicality, orbit size, reclassification)")
	jsonOut := fs.Bool("json", false, "emit the verification report as JSON on stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *storeDir == "" {
		return usagef(fs, "store verify: -store is required")
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	rep, err := st.Verify(store.VerifyOptions{SpotChecks: *spot})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Printf("store %s: %d blocks, %d entries (%d unique), %d compressed bytes\n",
			*storeDir, rep.Blocks, rep.Entries, rep.Unique, rep.Bytes)
		fmt.Printf("  spot-checked: %d (reclassified from scratch: %d)\n", rep.SpotChecked, rep.Reclassified)
		for _, p := range rep.Problems {
			fmt.Printf("  PROBLEM: %s\n", p)
		}
	}
	if !rep.OK() {
		return fmt.Errorf("store verify: %d problem(s) found in %s", len(rep.Problems), *storeDir)
	}
	if !*jsonOut {
		fmt.Println("  OK: no corruption found")
	}
	return nil
}

// printCensusSummary renders the deterministic human-readable summary
// (identical for every worker count — timing and cache internals go to
// stderr, never here).
func printCensusSummary(rep *census.Report) {
	s := rep.Summary
	fmt.Printf("adversary census for n=%d (Figure 2 as data)\n", s.N)
	fmt.Printf("  total adversaries:    %d\n", s.Total)
	fmt.Printf("  superset-closed:      %d\n", s.SupersetClosed)
	fmt.Printf("  symmetric:            %d\n", s.Symmetric)
	fmt.Printf("  fair:                 %d\n", s.Fair)
	fmt.Printf("  inclusion violations: %d\n", s.InclusionViolations)
	fmt.Println("  setcon histogram over fair adversaries:")
	for k, c := range s.SetconHist {
		if c > 0 {
			fmt.Printf("    setcon=%d: %d adversaries\n", k, c)
		}
	}
	if s.Orbits > 0 {
		fmt.Printf("  orbit representatives examined: %d (symmetry reduction %.1fx)\n",
			s.Orbits, float64(s.Total)/float64(s.Orbits))
	}
	if s.Solved > 0 {
		if s.Task != "" {
			fmt.Printf("  solve mode (task %s):\n", s.Task)
		} else {
			fmt.Printf("  solve mode (k=%d):\n", s.KTask)
		}
		fmt.Printf("    solved:    %d\n", s.Solved)
		fmt.Printf("    solvable:  %d\n", s.Solvable)
		fmt.Printf("    undecided: %d\n", s.Undecided)
	}
}

func printCacheStats(st chromatic.CacheStats) {
	fmt.Fprintf(os.Stderr,
		"tower cache: %d hits, %d misses, %d towers, %d levels, %d vertices\n",
		st.Hits, st.Misses, st.Towers, st.Levels, st.Vertices)
}

func cmdFigures(args []string) error {
	fs := newFlagSet("figures")
	dir := fs.String("dir", "figures", "output directory")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	oneOF := adversary.KObstructionFree(3, 1)
	fig5b, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		return err
	}
	tres1 := adversary.TResilient(3, 1)
	files := map[string]func() (string, error){
		"figure1a_chr.svg": func() (string, error) {
			return render.Chr1SVG(3), nil
		},
		"figure1b_r1res.svg":          modelFigure(tres1, fact.FigureAffineTask),
		"figure4c_contention.svg":     func() (string, error) { return render.Cont2SVG(3), nil },
		"figure5a_critical_1of.svg":   modelFigure(oneOF, fact.FigureCritical),
		"figure5b_critical_fig5b.svg": modelFigure(fig5b, fact.FigureCritical),
		"figure6a_conc_1of.svg":       modelFigure(oneOF, fact.FigureConcurrency),
		"figure6b_conc_fig5b.svg":     modelFigure(fig5b, fact.FigureConcurrency),
		"figure7a_ra_1of.svg":         modelFigure(oneOF, fact.FigureAffineTask),
		"figure7b_ra_fig5b.svg":       modelFigure(fig5b, fact.FigureAffineTask),
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		svg, err := files[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func modelFigure(a *adversary.Adversary, kind string) func() (string, error) {
	return func() (string, error) {
		m, err := fact.NewModel(a)
		if err != nil {
			return "", err
		}
		return m.FigureSVG(kind)
	}
}

func cmdSolve(args []string) error {
	fs := newFlagSet("solve")
	n, kind, t, k := adversaryFlags(fs)
	kTask := fs.Int("ktask", 1, "k for k-set consensus: the CLI spelling of kset:k=K (<= 0 means 1)")
	rounds := fs.Int("rounds", 1, "maximum iterations of R_A")
	workers := fs.Int("workers", 0, "engine workers (0 = all CPUs, 1 = serial)")
	stats := fs.Bool("stats", false, "print tower-cache statistics to stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	a, err := buildAdversary(fs, *n, *kind, *t, *k)
	if err != nil {
		return err
	}
	if err := checkRounds(fs, *rounds); err != nil {
		return err
	}
	spec := tasks.KSetSpec(*kTask)
	task, err := spec.Build(a.N())
	if err != nil {
		return err
	}
	m, err := fact.NewModel(a)
	if err != nil {
		return err
	}
	m.SetWorkers(*workers)
	fmt.Printf("model %v: setcon = %d (FACT predicts solvable ⇔ k ≥ setcon)\n", a, m.Setcon())
	cache := chromatic.NewTowerCache()
	res, err := m.SolveWith(task, *rounds, solver.Options{Cache: cache})
	if err != nil {
		return err
	}
	kset := spec.Param("k")
	if res.Solvable {
		fmt.Printf("%d-set consensus: SOLVABLE at ℓ=%d (map on %d vertices)\n",
			kset, res.Rounds, len(res.Map))
	} else {
		fmt.Printf("%d-set consensus: no map up to ℓ=%d (complex sizes %v)\n",
			kset, *rounds, res.ComplexSizes)
	}
	if *stats {
		printCacheStats(cache.Snapshot())
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := newFlagSet("simulate")
	n, kind, t, k := adversaryFlags(fs)
	trials := fs.Int("trials", 100, "number of random schedules")
	seed := fs.Int64("seed", 1, "PRNG seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	a, err := buildAdversary(fs, *n, *kind, *t, *k)
	if err != nil {
		return err
	}
	m, err := fact.NewModel(a)
	if err != nil {
		return err
	}
	fmt.Println(m.Stats())

	r1 := m.VerifyAlgorithmOne(*trials, *seed)
	fmt.Printf("Algorithm 1 (Theorem 7): liveness %d/%d, safety %d/%d, mean steps %.1f\n",
		r1.Liveness, r1.Trials, r1.Safety, r1.Trials, r1.MeanSteps)
	if len(r1.Violations) > 0 {
		fmt.Println("  violations:", strings.Join(r1.Violations[:min(3, len(r1.Violations))], "; "))
	}

	if err := m.VerifyMuQ(); err != nil {
		fmt.Println("μ_Q properties: FAIL:", err)
	} else {
		fmt.Println("μ_Q properties (9, 10, 12): OK (exhaustive over facets)")
	}

	r2 := m.VerifySetConsensusSimulation(*trials, *seed)
	fmt.Printf("§6 set-consensus simulation: %d/%d ok, max distinct decisions %d\n",
		r2.OK, r2.Trials, r2.MaxDistinct)
	if len(r2.Violations) > 0 {
		fmt.Println("  violations:", strings.Join(r2.Violations[:min(3, len(r2.Violations))], "; "))
	}
	return nil
}
