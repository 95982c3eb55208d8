// Command pipebench is the end-to-end benchmark of the FACT campaign
// pipeline. It drives the pipeline's packages from outside, through the
// same public calls factool and the fabric make, on three workloads:
//
//	sweep-solve  an n=4 orbit solve sweep deciding kset:k=2 with witness checks
//	ingest       n=5 full-domain classification merged unit by unit into a store
//	serve        closed-loop HTTP traffic against a hot and a cold store mount
//
// An untraced run (--trace 0) repeats the workload's fixed work for about
// --seconds, checks the outputs, and prints the end-to-end metrics. A
// traced run (--trace 1) replays every workload through spans placed
// around each call into a layer and prints the per-layer metrics, named
// "<workload>.<layer>.<op>.<stat>". The last line of standard output is
// the result object; the line before it is the provenance record. A
// human-readable report goes to standard error. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// unattributedBound fails a traced run whose lanes leave more than this
// share of their wall time outside every span.
const unattributedBound = 0.05

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics every untraced run prints, on every
// workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics lists, per workload, the per-layer metrics the traced run
// prints (without the workload prefix).
var layerMetrics = []struct {
	workload string
	defs     []metricDef
}{
	{"sweep-solve", []metricDef{
		{"sc.facets.calls", "count", "lower"},
		{"sc.facets.busy_s", "s", "lower"},
		{"sc.facets.alloc_mb", "MB", "lower"},
		{"solver.search.calls", "count", "lower"},
		{"solver.search.busy_s", "s", "lower"},
		{"solver.search.undecided", "count", "lower"},
		{"solver.search.alloc_mb", "MB", "lower"},
		{"solver.verify.calls", "count", "lower"},
		{"solver.verify.busy_s", "s", "lower"},
		{"chromatic.tower_extend.busy_s", "s", "lower"},
		{"chromatic.tower_extend.alloc_mb", "MB", "lower"},
		{"chromatic.tower.acquires", "count", "lower"},
		{"chromatic.tower.hit_ratio", "ratio", "higher"},
		{"chromatic.tower.vertices", "count", "lower"},
		{"affine.build_ra.calls", "count", "lower"},
		{"affine.build_ra.busy_s", "s", "lower"},
		{"affine.build_ra.alloc_mb", "MB", "lower"},
		{"tasks.build.busy_s", "s", "lower"},
		{"adversary.canonical.calls", "count", "lower"},
		{"adversary.canonical.busy_s", "s", "lower"},
		{"adversary.classify.calls", "count", "lower"},
		{"adversary.classify.busy_s", "s", "lower"},
		{"census.parallel_eff", "ratio", "higher"},
		{"trace.unattributed_frac", "ratio", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
	}},
	{"ingest", []metricDef{
		{"adversary.classify.calls", "count", "lower"},
		{"adversary.classify.busy_s", "s", "lower"},
		{"adversary.classify.alloc_mb", "MB", "lower"},
		{"census.sweep_range.calls", "count", "lower"},
		{"census.sweep_range.busy_s", "s", "lower"},
		{"census.parallel_eff", "ratio", "higher"},
		{"census.sink.bytes", "bytes", "lower"},
		{"store.merge.calls", "count", "lower"},
		{"store.merge.busy_s", "s", "lower"},
		{"store.merge.alloc_mb", "MB", "lower"},
		{"store.merge.bytes_written", "bytes", "lower"},
		{"store.merge.write_amp", "ratio", "lower"},
		{"trace.unattributed_frac", "ratio", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
	}},
	{"serve", []metricDef{
		{"adversary.canonical.calls", "count", "lower"},
		{"adversary.canonical.busy_s", "s", "lower"},
		{"adversary.rehydrate.calls", "count", "lower"},
		{"adversary.rehydrate.busy_s", "s", "lower"},
		{"store.presence.skip_ratio", "ratio", "higher"},
		{"api.source.cache.share", "ratio", "higher"},
		{"api.source.store.share", "ratio", "higher"},
		{"api.source.rehydrated.share", "ratio", "lower"},
		{"api.source.computed.share", "ratio", "lower"},
		{"store.lookup.calls", "count", "lower"},
		{"store.lookup.busy_s", "s", "lower"},
		{"store.lookup.p99_us", "us", "lower"},
		{"store.put_new.calls", "count", "lower"},
		{"store.put_new.busy_s", "s", "lower"},
		{"store.put_new.p99_ms", "ms", "lower"},
		{"census.examine.calls", "count", "lower"},
		{"census.examine.busy_s", "s", "lower"},
		{"api.handler.busy_s", "s", "lower"},
		{"api.handler.p50_ms", "ms", "lower"},
		{"api.handler.p99_ms", "ms", "lower"},
		{"api.wait.busy_s", "s", "lower"},
		{"store.load_presence.busy_s", "s", "lower"},
		{"trace.unattributed_frac", "ratio", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
	}},
}

// perLayer returns every per-layer metric with its workload prefix, in
// catalogue order.
func perLayer() []metricDef {
	var out []metricDef
	for _, w := range layerMetrics {
		for _, d := range w.defs {
			out = append(out, metricDef{w.workload + "." + d.Name, d.Unit, d.Better})
		}
	}
	return out
}

// workload is one benchmark workload: its untraced run and its part of
// the traced run.
type workload struct {
	name   string
	e2e    func(*run) error
	traced func(*run) error
}

var workloads = []workload{
	{"sweep-solve", sweepE2E, sweepTraced},
	{"ingest", ingestE2E, ingestTraced},
	{"serve", serveE2E, serveTraced},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	dir      string    // scratch directory, removed at exit
	log      io.Writer // human-readable report

	attempted, failed int
	problems          []string // failed output checks

	metrics map[string]float64 // reported values by name
	inputs  map[string]any     // workload inputs actually used
	reps    []map[string]any   // raw per-repetition values
	extra   map[string]any     // workload-specific figures beside the metrics
}

// checkf records a failed output check.
func (r *run) checkf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(r.log, "CHECK FAILED: %s\n", msg)
}

// scratch returns a fresh directory under the run's scratch directory.
func (r *run) scratch(name string) (string, error) {
	d := filepath.Join(r.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// repeat calls f at least minReps times, and again while the elapsed time
// is below the run's --seconds, up to maxReps calls.
func (r *run) repeat(minReps, maxReps int, f func(rep int) error) error {
	t0 := time.Now()
	for rep := 0; rep < maxReps; rep++ {
		if rep >= minReps && time.Since(t0).Seconds() >= r.seconds {
			return nil
		}
		if err := f(rep); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-solve, ingest or serve")
	seed := fs.Int64("seed", 1, "seed of the workload's generated inputs")
	seconds := fs.Float64("seconds", 10, "time an untraced run spends repeating the workload")
	trace := fs.Int("trace", 0, "1 runs the traced replay of every workload and prints the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for shards and stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "pipebench: need --workload sweep-solve|ingest|serve, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		dir:      dir,
		log:      stderr,
		metrics:  make(map[string]float64),
		inputs:   make(map[string]any),
		extra:    make(map[string]any),
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer()
		err = tracedAll(r)
	} else {
		err = wl.e2e(r)
		if err == nil {
			r.metrics["peak_rss_mb"], err = peakRSSMB()
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "pipebench: %s: %v\n", *name, err)
		return 1
	}
	if err := emit(r, defs, *trace == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// tracedAll runs the traced part of every workload, each into its own
// sub-run, and folds their per-layer metrics under workload prefixes.
func tracedAll(r *run) error {
	for _, w := range workloads {
		sub := &run{
			workload: w.name,
			seed:     r.seed,
			seconds:  r.seconds,
			dir:      filepath.Join(r.dir, w.name),
			log:      r.log,
			metrics:  make(map[string]float64),
			inputs:   make(map[string]any),
			extra:    make(map[string]any),
		}
		if err := os.MkdirAll(sub.dir, 0o755); err != nil {
			return err
		}
		fmt.Fprintf(r.log, "== traced %s\n", w.name)
		if err := w.traced(sub); err != nil {
			return fmt.Errorf("traced %s: %w", w.name, err)
		}
		if u := sub.metrics["trace.unattributed_frac"]; u > unattributedBound {
			sub.checkf("%s: unattributed time %.2f%% exceeds the %.0f%% bound", w.name, 100*u, 100*unattributedBound)
		}
		for k, v := range sub.metrics {
			r.metrics[w.name+"."+k] = v
		}
		r.inputs[w.name] = sub.inputs
		r.extra[w.name] = sub.extra
		r.attempted += sub.attempted
		r.failed += sub.failed
		r.problems = append(r.problems, sub.problems...)
		if err := os.RemoveAll(sub.dir); err != nil {
			return err
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the report table, the provenance record and the result
// line. Every metric in defs must have been measured.
func emit(r *run, defs []metricDef, traced bool, stdout io.Writer) error {
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(r.log, "%-52s %14.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	fmt.Fprintf(r.log, "attempted %d, failed %d (fail_frac %.4g)\n",
		r.attempted, r.failed, float64(r.failed)/float64(r.attempted))

	record := map[string]any{
		"workload":   r.workload,
		"traced":     traced,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"inputs":     r.inputs,
		"reps":       r.reps,
		"extra":      r.extra,
		"fail_frac":  float64(r.failed) / float64(r.attempted),
		"problems":   r.problems,
	}
	w := bufio.NewWriter(stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": record}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return w.Flush()
}

// commit reports the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// fileSize returns the size of the file at path.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// compactJSON returns b without insignificant whitespace.
func compactJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
