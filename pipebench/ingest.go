package main

// ingest: n=5 full-domain classification over [0, ingestWindow), cut
// into units of 2^16 indices (the fabric coordinator's default for full
// sweeps). Each unit goes through census.SweepRange into a gzip shard,
// and Store.Merge folds each shard into one store as it completes, as
// the coordinator does. Classification and the store's write path do
// nearly all the work; the solver does none.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/adversary"
	"repro/internal/census"
	"repro/internal/store"
)

const (
	ingestN      = 5
	ingestUnit   = 1 << 16
	ingestUnits  = 2
	ingestWindow = ingestUnit * ingestUnits

	// classifyChunk is the number of indices one adversary.classify span
	// of the replay covers.
	classifyChunk = 4096
)

// ingestRun is one timed ingest of the window into a fresh store.
type ingestRun struct {
	setup, wall time.Duration
	st          *store.Store // open; the caller closes it
	summaries   []census.Summary
	mergeBytes  []int64 // store data bytes after each merge: what the merge wrote
	sinkBytes   int64
}

// ingestOnce creates a store under dir, then sweeps and merges the
// window unit by unit with the given census worker count.
func ingestOnce(dir string, workers int) (ingestRun, error) {
	var out ingestRun
	t0 := time.Now()
	st, err := store.Create(filepath.Join(dir, "store"), ingestN)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)
	out.st = st
	t1 := time.Now()
	for u := 0; u < ingestUnits; u++ {
		lo := uint64(u) * ingestUnit
		shard := filepath.Join(dir, fmt.Sprintf("unit-%d.jsonl.gz", u))
		sink, err := census.NewJSONLSinkCompressed(shard)
		if err != nil {
			st.Close()
			return out, err
		}
		rep, err := census.SweepRange(ingestN, census.Options{Workers: workers}, sink, lo, lo+ingestUnit)
		if err == nil {
			err = sink.Close()
		} else {
			sink.Close()
		}
		if err != nil {
			st.Close()
			return out, fmt.Errorf("unit %d: sweep: %w", u, err)
		}
		if _, err := st.Merge([]string{shard}, store.MergeOptions{}); err != nil {
			st.Close()
			return out, fmt.Errorf("unit %d: merge: %w", u, err)
		}
		out.summaries = append(out.summaries, rep.Summary)
		out.mergeBytes = append(out.mergeBytes, st.Stats().Bytes)
		size, err := fileSize(shard)
		if err != nil {
			st.Close()
			return out, err
		}
		out.sinkBytes += size
	}
	out.wall = time.Since(t1)
	return out, nil
}

// foldSummaries adds unit summaries the way one sweep of their union
// would have aggregated them.
func foldSummaries(n int, parts []census.Summary) census.Summary {
	sum := census.NewSummary(n)
	for _, p := range parts {
		sum.Total += p.Total
		sum.SupersetClosed += p.SupersetClosed
		sum.Symmetric += p.Symmetric
		sum.Fair += p.Fair
		sum.InclusionViolations += p.InclusionViolations
		sum.Orbits += p.Orbits
		sum.Solved += p.Solved
		sum.Solvable += p.Solvable
		sum.Undecided += p.Undecided
		for i, v := range p.SetconHist {
			if i < len(sum.SetconHist) {
				sum.SetconHist[i] += v
			}
		}
	}
	return sum
}

// checkIngest checks the store against the unit reports: its summary
// equals their fold, it holds the whole window, and Store.Verify finds
// no problem.
func checkIngest(r *run, out ingestRun) error {
	got, err := out.st.Summary()
	if err != nil {
		return err
	}
	want := foldSummaries(ingestN, out.summaries)
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		r.checkf("ingest: store summary %s differs from the folded unit summaries %s", gb, wb)
	}
	if e := out.st.Stats().Entries; e != ingestWindow {
		r.checkf("ingest: store holds %d entries, want %d", e, ingestWindow)
	}
	vr, err := out.st.Verify(store.VerifyOptions{})
	if err != nil {
		return err
	}
	for _, p := range vr.Problems {
		r.checkf("ingest: store verify: %s", p)
	}
	return nil
}

func ingestE2E(r *run) error {
	var walls, setups []float64
	var first store.Stats
	err := r.repeat(2, 100, func(rep int) error {
		dir, err := r.scratch(fmt.Sprintf("ingest-%d", rep))
		if err != nil {
			return err
		}
		r.attempted += 2 * ingestUnits
		out, err := ingestOnce(dir, 2)
		if err != nil {
			r.failed++
			return err
		}
		defer out.st.Close()
		stats := out.st.Stats()
		if rep == 0 {
			first = stats
			if err := checkIngest(r, out); err != nil {
				return err
			}
		} else if stats != first {
			r.checkf("ingest: repetition %d built %+v, repetition 0 built %+v", rep, stats, first)
		}
		walls = append(walls, seconds(out.wall))
		setups = append(setups, seconds(out.setup))
		r.reps = append(r.reps, map[string]any{
			"wall_s":      seconds(out.wall),
			"setup_s":     seconds(out.setup),
			"store_bytes": stats.Bytes,
		})
		if err := out.st.Close(); err != nil {
			return err
		}
		_, err = r.scratch(fmt.Sprintf("ingest-%d", rep))
		return err
	})
	if err != nil {
		return err
	}
	for len(setups) < minSetups {
		dir, err := r.scratch("ingest-setup")
		if err != nil {
			return err
		}
		t0 := time.Now()
		st, err := store.Create(filepath.Join(dir, "store"), ingestN)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		setups = append(setups, seconds(d))
	}

	r.metrics["wall_s"] = median(walls)
	r.metrics["setup_s"] = median(setups)
	r.inputs["n"] = ingestN
	r.inputs["window"] = []uint64{0, ingestWindow}
	r.inputs["unit"] = ingestUnit
	r.inputs["workers"] = 2
	r.inputs["store_entries"] = first.Entries
	r.inputs["store_blocks"] = first.Blocks
	r.extra["store_bytes_per_entry"] = float64(first.Bytes) / float64(first.Entries)
	r.extra["setup_samples_s"] = setups
	fmt.Fprintf(r.log, "store_bytes_per_entry %.4g bytes (%d bytes, %d entries, %d blocks)\n",
		float64(first.Bytes)/float64(first.Entries), first.Bytes, first.Entries, first.Blocks)
	return nil
}

// ingestReplay counts what a serial replay of the window wrote.
type ingestReplay struct {
	mergeBytes []int64
	sinkBytes  int64
	final      int64
}

// replayIngest replays the window serially: each unit is classified
// through the adversary layer in chunks, swept by census.SweepRange on
// one worker into a gzip shard, and merged into the store.
func replayIngest(tr *tracer, dir string) (ingestReplay, error) {
	var out ingestReplay
	id := tr.begin("store.create", -1, 1)
	st, err := store.Create(filepath.Join(dir, "store"), ingestN)
	tr.end(id)
	if err != nil {
		return out, err
	}
	defer st.Close()
	domain := adversary.EnumerationDomain(ingestN)
	for u := 0; u < ingestUnits; u++ {
		lo := uint64(u) * ingestUnit
		for c := lo; c < lo+ingestUnit; c += classifyChunk {
			id := tr.begin("adversary.classify", -1, classifyChunk)
			for idx := c; idx < c+classifyChunk; idx++ {
				classify(adversary.AdversaryAtIn(ingestN, domain, idx), idx)
			}
			tr.end(id)
		}

		shard := filepath.Join(dir, fmt.Sprintf("unit-%d.jsonl.gz", u))
		id := tr.begin("census.sweep_range", -1, 1)
		sink, err := census.NewJSONLSinkCompressed(shard)
		if err == nil {
			_, err = census.SweepRange(ingestN, census.Options{Workers: 1}, sink, lo, lo+ingestUnit)
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
		}
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("unit %d: sweep: %w", u, err)
		}

		id = tr.begin("store.merge", -1, 1)
		_, err = st.Merge([]string{shard}, store.MergeOptions{})
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("unit %d: merge: %w", u, err)
		}
		out.mergeBytes = append(out.mergeBytes, st.Stats().Bytes)
		size, err := fileSize(shard)
		if err != nil {
			return out, err
		}
		out.sinkBytes += size
	}
	out.final = st.Stats().Bytes
	return out, st.Close()
}

func ingestTraced(r *run) error {
	timed := func(name string, workers int) (time.Duration, error) {
		dir, err := r.scratch(name)
		if err != nil {
			return 0, err
		}
		out, err := ingestOnce(dir, workers)
		if err != nil {
			return 0, err
		}
		defer out.st.Close()
		r.attempted += 2 * ingestUnits
		if workers == 2 {
			if err := checkIngest(r, out); err != nil {
				return 0, err
			}
		}
		return out.wall, out.st.Close()
	}
	two, err := timed("ingest-w2", 2)
	if err != nil {
		return err
	}
	one, err := timed("ingest-w1", 1)
	if err != nil {
		return err
	}

	on := newTracer(true, true)
	var st ingestReplay
	overhead, err := alternate(on, func(tr *tracer, i int) (time.Duration, error) {
		dir, err := r.scratch(fmt.Sprintf("ingest-replay-%d", i))
		if err != nil {
			return 0, err
		}
		var out ingestReplay
		wall, err := tr.lane(func() error { var err error; out, err = replayIngest(tr, dir); return err })
		if i == 1 {
			st = out
		}
		return wall, err
	})
	if err != nil {
		return err
	}
	r.attempted += 4 * ingestUnits
	spans, lanes := on.recorded()
	ops := aggregate(spans)
	putOps(r, ops, "adversary.classify", "calls", "busy_s", "alloc_mb")
	putOps(r, ops, "census.sweep_range", "calls", "busy_s")
	putOps(r, ops, "store.merge", "calls", "busy_s", "alloc_mb")
	var written int64
	for _, b := range st.mergeBytes {
		written += b
	}
	r.metrics["store.merge.bytes_written"] = float64(written)
	r.metrics["store.merge.write_amp"] = writeAmp(st.mergeBytes, st.final)
	r.metrics["census.sink.bytes"] = float64(st.sinkBytes)
	r.metrics["census.parallel_eff"] = seconds(one) / (2 * seconds(two))
	r.metrics["trace.unattributed_frac"] = unattributed(spans, lanes)
	r.metrics["trace.overhead_frac"] = overhead

	r.inputs["window"] = []uint64{0, ingestWindow}
	r.inputs["unit"] = ingestUnit
	r.extra["wall_2worker_s"] = seconds(two)
	r.extra["wall_1worker_s"] = seconds(one)
	return nil
}
