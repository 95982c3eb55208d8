// Package census implements the sharded, parallel adversary-census
// engine: the paper's headline application of deciding task solvability
// across whole families of adversaries (the Figure 2 census domain),
// run as fast as the hardware allows.
//
// The enumeration space — every adversary over n processes, indexed by
// adversary.AdversaryAt — is swept in one way for every mode: a
// producer walks the swept indices and slices them into deterministic
// rank-contiguous blocks of ShardSize indices. A full sweep walks every
// raw index (an orbit sweep under the trivial group); an orbit sweep
// walks one canonical representative per color-permutation orbit with
// the stabilizer-aware generator (adversary.Orbits.ForEachCanonicalFrom),
// never visiting the non-canonical bulk, and weights the aggregates by
// orbit size, cutting the swept domain by up to n! while reporting the
// same totals. A bounded worker pool claims the blocks in sequence
// order and classifies (and optionally solves) the adversaries of each;
// completed blocks pass through a bounded reorder buffer that emits
// entries to a pluggable Sink in strict enumeration order, so every
// report and stream is byte-identical for every worker count while
// memory stays O(workers × ShardSize) entries — no full-domain slice,
// which is what lifts the engine from the MaxDomain cap toward the n=5
// domain of 2^31 adversaries. Periodic checkpoints record the raw-index
// frontier plus the running aggregates, so an interrupted campaign
// resumes where it left off with byte-identical final output.
//
// All solve jobs of one run share one built task, a single
// chromatic.Universe (one Chr² vertex identity space per n) and a
// single chromatic.TowerCache (iterated subdivisions built once per
// distinct R_A signature, LRU eviction under an optional byte budget),
// which is what makes whole-landscape sweeps tractable.
package census

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/obs"
	"repro/internal/par"
)

// MaxDomain bounds the enumeration spaces Run materializes: the
// collector records an entry per adversary, so the domain must fit in
// memory. Streaming-sink runs (Stream) have no such cap — memory there
// is bounded by the reorder window, not the domain.
const MaxDomain = 1 << 22

// ErrDomainTooLarge reports a collecting census over an enumeration
// space beyond MaxDomain.
var ErrDomainTooLarge = errors.New("census: enumeration domain too large")

// MaxRounds is the deepest solvability search (Options.MaxRounds) the
// command line and the v1 API ask for: factool's census, coordinate,
// solve and serve -rounds flags and /v1/solve?rounds= accept
// [1, MaxRounds].
const MaxRounds = 4

// Options tune a census run. The zero value selects the defaults:
// classification only, one worker per CPU.
type Options struct {
	// Workers bounds the shard worker pool, resolved by par.Workers (<= 0
	// selects one worker per CPU); 1 runs the serial reference path.
	// The report is identical for every value.
	Workers int

	// ShardSize is the number of consecutive swept indices one work
	// unit covers: raw enumeration indices in a full sweep, canonical
	// representatives (ranks in the canonical sequence) in orbit mode,
	// so every work unit carries the same amount of real work. <= 0
	// selects a default scaled to the domain.
	ShardSize int

	// Task is the spec of the task to decide — a registered tasks.Spec
	// string such as "kset:k=2", "loop-agreement" or "approx:eps=1".
	// Non-empty, the run decides it for every fair adversary with
	// setcon ≥ 1, building R_A over the run's shared Universe and
	// solving through the shared TowerCache; empty, the run only
	// classifies. Non-kset specs stamp every emitted entry with the
	// spec string; kset entries carry no task field, exactly as before
	// task specs existed.
	Task string

	// Family, when non-empty, restricts the sweep to a named adversary
	// family ("t-resilient[:t=T]", "symmetric",
	// "k-obstruction-free[:k=K]"): frontiers and checkpoints keep their
	// whole-domain meaning, but only family members are examined,
	// emitted and aggregated — the summary totals equal the family
	// size. Family members are fixed by every color permutation, so
	// orbit mode emits each exactly once (orbit size 1).
	Family string

	// MaxRounds bounds the solvability search (iterations of R_A).
	// <= 0 selects 1; callers that take it from users bound it by the
	// package constant MaxRounds.
	MaxRounds int

	// VerifyWitnesses re-validates every witness map found by the solve
	// jobs through solver.VerifyWitnessTables (independent re-check of
	// the FACT positive direction).
	VerifyWitnesses bool

	// Cache is the shared iterated-subdivision cache for solve jobs.
	// Nil selects an unbounded cache private to the run; pass
	// chromatic.NewTowerCacheWithBudget to bound it (LRU eviction) so
	// long campaigns run flat.
	Cache *chromatic.TowerCache

	// Universe is the Chr² vertex identity space solve jobs build R_A
	// over; nil selects a run-private one. A decision reads only R_A's
	// facet runs, so a sweep interns no vertex into it.
	Universe *chromatic.Universe

	// Orbits sweeps one canonical representative per color-permutation
	// orbit instead of the whole domain — up to n! fewer adversaries
	// examined. Emitted entries carry their orbit size and the summary
	// aggregates are orbit-weighted, so totals equal the full sweep's.
	// The sweep enumerates canonical representatives directly (the
	// stabilizer-aware generator), so only they are examined — and only
	// they are observed by examineHook.
	Orbits bool

	// Checkpoint, when non-empty, is the sidecar path the run
	// periodically records its frontier to (atomic write). See Resume.
	Checkpoint string

	// CheckpointEvery is the number of enumeration indices between
	// checkpoints. <= 0 selects a default.
	CheckpointEvery uint64

	// Resume continues from the Checkpoint sidecar when it exists: the
	// sweep restarts at the recorded frontier, a *JSONLSink truncates
	// to the recorded offset, and the final output is byte-identical to
	// an uninterrupted run. A missing sidecar starts fresh.
	Resume bool

	// MaxIndices, when > 0, budgets this run to exactly that many newly
	// swept raw enumeration indices, in both full and orbit mode: the
	// run stops cleanly at the frontier start+MaxIndices and reports
	// Incomplete — the deterministic form of an interruption, used with
	// Checkpoint to split a campaign across sessions.
	MaxIndices uint64

	// Budget, when > 0, is the wall-clock budget: once elapsed, workers
	// stop claiming new shards and the run winds down to a clean
	// frontier (checkpointed when Checkpoint is set).
	Budget time.Duration

	// Stop, when non-nil, interrupts the run when it becomes readable
	// (or is closed): the graceful-kill hook wired to SIGINT by
	// factool. Same clean wind-down as Budget.
	Stop <-chan struct{}

	// Progress, when non-nil, is called as the contiguous completed
	// frontier advances, with the number of enumeration indices done
	// (monotone) and the domain size. Calls come from worker
	// goroutines, one at a time.
	Progress func(done, total uint64)

	// Tracer records the run's spans (census.sweep → census.shard →
	// census.solve). Nil selects obs.DefaultTracer; tracing is always
	// on — the ring is bounded and span cost is nanoseconds against
	// shard work.
	Tracer *obs.Tracer

	// TraceParent, when nonzero, is the span the run's census.sweep
	// span nests under — the fabric worker passes its unit-lease span
	// here so one trace spans campaign → lease → sweep → solve.
	TraceParent obs.SpanID

	// examineHook, when non-nil, observes every examined index before
	// its entry is reordered (test instrumentation: any goroutine).
	examineHook func(idx uint64)

	// startIndex/endIndex clip the sweep to the raw index range
	// [startIndex, endIndex) — set only through SweepRange, which is
	// the supported surface (endIndex 0 means the domain end).
	// Range sweeps never checkpoint: the fabric's lease protocol is
	// their resume mechanism.
	startIndex uint64
	endIndex   uint64
}

// Entry is the census record of one adversary. Every field is a
// schedule-independent function of the enumeration index, so entries
// compare byte-identical across worker counts.
type Entry struct {
	Index          uint64   `json:"index"`
	Adversary      string   `json:"adversary"`
	LiveSetMasks   []uint32 `json:"live_set_masks"`
	SupersetClosed bool     `json:"superset_closed"`
	Symmetric      bool     `json:"symmetric"`
	Fair           bool     `json:"fair"`
	Setcon         int      `json:"setcon"`
	CSize          int      `json:"csize"`

	// OrbitSize is the number of adversaries in this entry's
	// color-permutation orbit (orbit-mode sweeps only, where the entry
	// is the orbit's canonical representative).
	OrbitSize uint64 `json:"orbit_size,omitempty"`

	// Solve-mode fields (omitted when the adversary was not solved:
	// no Task, unfair adversary, or empty R_A).
	Solved    bool  `json:"solved,omitempty"`
	Solvable  *bool `json:"solvable,omitempty"`
	Rounds    int   `json:"rounds,omitempty"`
	RAFacets  int   `json:"ra_facets,omitempty"`
	Undecided bool  `json:"undecided,omitempty"`

	// Task is the canonical spec of the task a solve-mode sweep
	// decided. Empty for k-set consensus, whose JSONL predates task
	// specs and stays byte-identical.
	Task string `json:"task,omitempty"`
}

// Summary aggregates a census in enumeration order. In orbit mode every
// counter is weighted by orbit size, so a reduced sweep reports the
// same totals as the full one; Orbits counts the representatives
// actually examined.
type Summary struct {
	N                   int      `json:"n"`
	Total               uint64   `json:"total"`
	SupersetClosed      uint64   `json:"superset_closed"`
	Symmetric           uint64   `json:"symmetric"`
	Fair                uint64   `json:"fair"`
	InclusionViolations uint64   `json:"inclusion_violations"`
	SetconHist          []uint64 `json:"setcon_hist"` // over fair adversaries; index = setcon

	// Orbits counts canonical representatives emitted (orbit mode).
	Orbits uint64 `json:"orbits,omitempty"`

	// Solve-mode aggregates. KTask is the k of a decided kset task (the
	// pre-spec k_task field, kept byte-identical); Task is the canonical
	// spec of every other decided task.
	KTask     int    `json:"k_task,omitempty"`
	Task      string `json:"task,omitempty"`
	Solved    uint64 `json:"solved,omitempty"`
	Solvable  uint64 `json:"solvable,omitempty"`
	Undecided uint64 `json:"undecided,omitempty"`
}

// Report is the result of a census run: the summary, the per-adversary
// entries when a Collector gathered them (Run), and — when solve jobs
// ran — the shared subdivision-cache statistics. Marshalled to JSON it
// is byte-identical for every worker count (budgeted cache stats
// excepted; see chromatic.CacheStats).
type Report struct {
	Summary Summary               `json:"summary"`
	Cache   *chromatic.CacheStats `json:"cache,omitempty"`

	// Incomplete reports an interrupted run (budget, MaxIndices, or
	// Stop): the sweep ended at the clean frontier NextIndex instead of
	// the end of the domain. Resume from the checkpoint to continue.
	Incomplete bool   `json:"incomplete,omitempty"`
	NextIndex  uint64 `json:"next_index,omitempty"`

	Entries []Entry `json:"entries,omitempty"`
}

// Run sweeps every adversary over n processes, materializing every
// entry in memory (domains up to MaxDomain). See Options for the
// classify/solve modes; the returned report is deterministic. For
// larger domains — or bounded memory on any domain — use Stream.
func Run(n int, opts Options) (*Report, error) {
	if n >= 1 && n <= 6 {
		if total := adversary.CensusSize(n); total > MaxDomain {
			return nil, fmt.Errorf("%w: %d adversaries at n=%d (max %d; use Stream)",
				ErrDomainTooLarge, total, n, MaxDomain)
		}
	}
	col := &Collector{}
	rep, err := Stream(n, opts, col)
	if err != nil {
		return nil, err
	}
	rep.Entries = col.Entries
	return rep, nil
}

// Stream sweeps the n-process domain, emitting every entry to the sink
// in strict enumeration order through a bounded reorder buffer: memory
// is O(Workers × ShardSize) entries regardless of the domain size. A
// nil sink aggregates only (the summarizer mode). The summary, the
// stream, and any checkpoint are byte-deterministic across worker
// counts and interruptions.
func Stream(n int, opts Options, sink Sink) (*Report, error) {
	if n < 1 || n > 6 {
		return nil, fmt.Errorf("census: n must be in [1,6], got %d", n)
	}
	if sink == nil {
		sink = Discard{}
	}
	if opts.Resume && opts.Checkpoint == "" {
		// Silently ignoring Resume would reset a JSONL stream to
		// offset zero — destroying the campaign output it was meant to
		// continue.
		return nil, errors.New("census: Resume requires a Checkpoint path")
	}
	total := adversary.CensusSize(n)
	env, err := newRunEnv(n, opts)
	if err != nil {
		return nil, err
	}
	family, err := resolveFamily(opts.Family, n)
	if err != nil {
		return nil, err
	}
	fp := env.fingerprint(opts.Orbits, family)
	// The JSONL stream is the one sink a run repositions, flushes and
	// measures; every other sink is volatile.
	js, _ := sink.(*JSONLSink)
	kind := sinkKind(js)

	// Resume state: the contiguous completed frontier and the running
	// aggregates recorded by the interrupted run's last checkpoint.
	start := uint64(0)
	var emitted uint64
	var outBytes int64
	sum := NewSummary(n)
	if opts.Resume {
		switch ck, err := LoadCheckpoint(opts.Checkpoint); {
		case err == nil:
			if err := ck.validate(fp, total, n, kind); err != nil {
				return nil, err
			}
			start, emitted, outBytes, sum = ck.NextIndex, ck.Emitted, ck.OutBytes, ck.Summary
		case errors.Is(err, os.ErrNotExist):
			// Fresh start: nothing checkpointed yet.
		default:
			return nil, err
		}
	}
	if js != nil {
		if err := js.ResumeAt(emitted, outBytes); err != nil {
			return nil, err
		}
	}

	// Range clipping (SweepRange): start at startIndex, stop the sweep
	// at endIndex as if the domain ended there. Checkpoints record
	// whole-campaign frontiers, so ranges and sidecars don't mix.
	end := total
	if opts.startIndex > 0 || opts.endIndex > 0 {
		if opts.Checkpoint != "" || opts.Resume {
			return nil, errors.New("census: range sweeps cannot checkpoint or resume")
		}
		if opts.endIndex > 0 && opts.endIndex < total {
			end = opts.endIndex
		}
		start = opts.startIndex
		if start > end {
			return nil, fmt.Errorf("census: range start %d beyond end %d", start, end)
		}
	}

	workers := par.Workers(opts.Workers)
	remaining := end - start
	shardSize := uint64(opts.ShardSize)
	if opts.ShardSize <= 0 {
		shardSize = remaining / uint64(workers*8)
		if shardSize < 1 {
			shardSize = 1
		}
		if shardSize > 1024 {
			shardSize = 1024
		}
	}
	// MaxIndices ends the sweep at start+MaxIndices (overflow-safe: a
	// wrapped end would regress the frontier under emitted output). It
	// clips after the default shard size is taken from the whole window,
	// so shard boundaries, checkpoints and gzip members do not move.
	if opts.MaxIndices > 0 && opts.MaxIndices < end-start {
		end = start + opts.MaxIndices
	}
	checkpointEvery := opts.CheckpointEvery
	if checkpointEvery == 0 {
		checkpointEvery = 1 << 16
	}

	sweep := env.tracer.Start("census.sweep", opts.TraceParent,
		"n", strconv.Itoa(n),
		"orbits", strconv.FormatBool(opts.Orbits),
		"solve", strconv.FormatBool(env.task != nil),
		"start", strconv.FormatUint(start, 10),
		"end", strconv.FormatUint(end, 10))
	defer sweep.End()

	em := &emitter{
		sink:            sink,
		js:              js,
		sum:             &sum,
		total:           total,
		frontierIdx:     start,
		emitted:         emitted,
		parked:          make(map[uint64]parkedShard),
		window:          uint64(workers) * 4,
		checkpointPath:  opts.Checkpoint,
		checkpointEvery: checkpointEvery,
		lastCheckpoint:  start,
		fingerprint:     fp,
		sinkKind:        kind,
		taskLabel:       env.taskLabel,
		progress:        opts.Progress,
	}
	em.cond = sync.NewCond(&em.mu)

	// Interrupts: wall-clock budget and the external stop hook both
	// flip one flag; workers stop claiming new shards, finish the ones
	// they hold, and the reorder buffer drains to a clean frontier.
	var stop atomic.Bool
	runDone := make(chan struct{})
	defer close(runDone)
	if opts.Budget > 0 {
		t := time.AfterFunc(opts.Budget, func() { stop.Store(true) })
		defer t.Stop()
	}
	if opts.Stop != nil {
		go func() {
			select {
			case <-opts.Stop:
				stop.Store(true)
			case <-runDone:
			}
		}()
	}

	// A dedicated producer walks the swept indices — every raw index of
	// a full sweep (the trivial group: orbit size 0, so entries carry no
	// orbit_size and weigh 1), or the canonical representatives of an
	// orbit sweep — and slices them into blocks of shardSize indices;
	// workers claim blocks in sequence order, whatever the mode. The
	// channel capacity plus the reorder window bound the prefetched
	// blocks, so memory stays O(workers×ShardSize).
	walk := walkAll(total)
	if opts.Orbits {
		walk = adversary.NewOrbits(n).ForEachCanonicalFrom
	}
	blocks := make(chan orbitBlock, workers*4)
	prodQuit := make(chan struct{})
	defer close(prodQuit)
	go produceOrbitBlocks(walk, blocks, prodQuit, start, end, shardSize)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]Entry, 0, shardSize)
			for {
				if stop.Load() || em.aborted() {
					return
				}
				blk, ok := <-blocks
				if !ok {
					return
				}
				if !em.waitTurn(blk.seq) {
					return
				}
				shardSpan := env.tracer.Start("census.shard", sweep.ID(),
					"seq", strconv.FormatUint(blk.seq, 10))
				shardStart := time.Now()
				buf = buf[:0]
				// Stop lands between indices, not blocks: a solve job can
				// take minutes per index, so the block is truncated here
				// and delivered short — the reorder buffer cuts the run
				// off at its boundary. The raw frontier after a
				// truncation is just past the last examined index.
				covered := blk.lo
				short := false
				for _, r := range blk.reps {
					if stop.Load() {
						short = true
						break
					}
					// Family filter: non-members still advance the
					// frontier (checkpoints stay whole-domain) but are
					// never examined or emitted.
					if family != nil && !family.member(r.idx) {
						covered = r.idx + 1
						continue
					}
					if opts.examineHook != nil {
						opts.examineHook(r.idx)
					}
					covered = r.idx + 1
					e, err := env.examine(r.idx, shardSpan.ID())
					if err != nil {
						em.fail(err)
						return
					}
					e.OrbitSize = r.size
					buf = append(buf, e)
				}
				if !short {
					covered = blk.hi
				}
				censusShardSeconds.Observe(time.Since(shardStart).Seconds())
				shardSpan.SetAttr("entries", strconv.Itoa(len(buf)))
				shardSpan.End()
				entries := make([]Entry, len(buf))
				copy(entries, buf)
				if !em.deliver(blk.seq, entries, covered, short) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := em.err; err != nil {
		return nil, err
	}

	// Final flush + checkpoint at the clean frontier (also when the run
	// completed, so a follow-up resume is a no-op).
	if em.checkpointPath != "" {
		if err := em.writeCheckpoint(); err != nil {
			return nil, err
		}
	} else if js != nil {
		if err := js.Flush(); err != nil {
			return nil, err
		}
	}

	sweep.SetAttr("frontier", strconv.FormatUint(em.frontierIdx, 10))
	rep := &Report{Summary: sum}
	if em.frontierIdx < total {
		rep.Incomplete = true
		rep.NextIndex = em.frontierIdx
	}
	if env.task != nil {
		if env.spec.IsKSet() {
			rep.Summary.KTask = env.spec.Param("k")
		} else {
			rep.Summary.Task = env.taskField
		}
		st := env.cache.Snapshot()
		rep.Cache = &st
	}
	return rep, nil
}

// emitter is the bounded reorder buffer between the unordered shard
// workers and the strictly ordered sink. Workers park completed shards;
// the worker that completes the frontier shard drains every contiguous
// successor — emitting entries, folding aggregates, checkpointing —
// then wakes the workers throttled by the window.
type emitter struct {
	mu   sync.Mutex
	cond *sync.Cond
	sink Sink
	js   *JSONLSink // sink, when it is the JSONL stream; nil otherwise
	sum  *Summary

	total uint64

	nextShard   uint64                 // next shard to emit
	frontierIdx uint64                 // first unswept enumeration index
	emitted     uint64                 // entries delivered to the sink
	parked      map[uint64]parkedShard // completed out-of-order shards
	window      uint64                 // max shards a worker may run ahead

	checkpointPath  string
	checkpointEvery uint64
	lastCheckpoint  uint64
	fingerprint     string
	sinkKind        string
	taskLabel       string

	// cutoff marks that a stop-truncated shard reached the frontier:
	// the emitted prefix ends inside that shard's index range, so no
	// later shard may be emitted (it would leave a hole). Set once,
	// ends the run.
	cutoff bool

	progress func(done, total uint64)
	err      error
}

// parkedShard is one completed shard awaiting its turn: its entries,
// the first raw index it did NOT cover, and whether a stop truncated
// it before its nominal end.
type parkedShard struct {
	entries []Entry
	hi      uint64
	short   bool
}

// canonRep is one swept index with its orbit size: a canonical orbit
// representative from the stabilizer-aware generator, or any index of
// a full sweep with size 0 (the trivial group).
type canonRep struct{ idx, size uint64 }

// orbitBlock is one work unit: a rank-contiguous slice of the swept
// sequence (shardSize indices, except the last), plus the raw index
// range [lo, hi) it accounts for — every swept index in that range is
// in reps, so hi is the raw frontier once the block is emitted.
type orbitBlock struct {
	seq  uint64
	reps []canonRep
	lo   uint64
	hi   uint64
}

// indexWalk visits the swept indices from start upward with their orbit
// sizes until f returns false: Orbits.ForEachCanonicalFrom for orbit
// sweeps, walkAll for full ones.
type indexWalk func(start uint64, f func(idx, size uint64) bool)

// walkAll is the full sweep's walk: every raw index below total, under
// the trivial group (orbit size 0, so entries weigh 1 and carry no
// orbit_size).
func walkAll(total uint64) indexWalk {
	return func(start uint64, f func(idx, size uint64) bool) {
		for idx := start; idx < total && f(idx, 0); idx++ {
		}
	}
}

// produceOrbitBlocks walks the swept sequence from the resume frontier
// and slices it into rank blocks, with the channel send as
// backpressure (capacity + reorder window bound prefetch). The walk
// ends at the first index at or beyond limit — the range end, the
// domain end or the MaxIndices budget — and the final block's hi lands
// on limit, so the checkpointed frontier covers every skipped
// non-canonical index below it. quit unblocks the producer when the
// run winds down early (stop, budget, failure).
func produceOrbitBlocks(walk indexWalk, out chan<- orbitBlock, quit <-chan struct{}, start, limit, shardSize uint64) {
	defer close(out)
	newBlock := func(seq, lo uint64) orbitBlock {
		return orbitBlock{seq: seq, lo: lo, reps: make([]canonRep, 0, shardSize)}
	}
	blk := newBlock(0, start)
	aborted := false
	walk(start, func(idx, size uint64) bool {
		if idx >= limit {
			return false
		}
		blk.reps = append(blk.reps, canonRep{idx: idx, size: size})
		if uint64(len(blk.reps)) < shardSize {
			return true
		}
		blk.hi = idx + 1
		select {
		case out <- blk:
		case <-quit:
			aborted = true
			return false
		}
		blk = newBlock(blk.seq+1, idx+1)
		return true
	})
	if aborted || (len(blk.reps) == 0 && blk.lo == limit) {
		return
	}
	// Final block: advances the raw frontier to the sweep limit — every
	// swept index below it is in a block, so the non-canonical tail is
	// accounted for.
	blk.hi = limit
	select {
	case out <- blk:
	case <-quit:
	}
}

// waitTurn blocks the worker holding shard s until s is inside the
// reorder window — the backpressure that bounds parked memory. Returns
// false when the run failed or was cut off meanwhile.
func (em *emitter) waitTurn(s uint64) bool {
	em.mu.Lock()
	defer em.mu.Unlock()
	for s >= em.nextShard+em.window && em.err == nil && !em.cutoff {
		em.cond.Wait()
	}
	return em.err == nil && !em.cutoff
}

// fail records the first error and wakes every throttled worker.
func (em *emitter) fail(err error) {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.err == nil {
		em.err = err
	}
	em.cond.Broadcast()
}

// aborted reports whether the run already failed or was cut off.
func (em *emitter) aborted() bool {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.err != nil || em.cutoff
}

// deliver parks a completed shard and drains the contiguous frontier.
// A short shard ends the drain at its covered boundary (cutoff): later
// shards would leave a hole after it, so they are discarded — their
// indices stay above the frontier and are re-swept on resume. Returns
// false when the worker should exit (failure or cutoff).
func (em *emitter) deliver(s uint64, entries []Entry, hi uint64, short bool) bool {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.err != nil || em.cutoff {
		return false
	}
	em.parked[s] = parkedShard{entries: entries, hi: hi, short: short}
	for !em.cutoff {
		batch, ok := em.parked[em.nextShard]
		if !ok {
			break
		}
		delete(em.parked, em.nextShard)
		for i := range batch.entries {
			e := &batch.entries[i]
			if err := em.sink.Emit(e); err != nil {
				em.err = err
				em.cond.Broadcast()
				return false
			}
			em.emitted++
			censusEntriesEmitted.With(em.taskLabel).Add(1)
			em.aggregate(e)
		}
		em.nextShard++
		// Every block reports the first raw index it did not cover —
		// the raw-index frontier in both modes, which is what keeps
		// checkpoints readable whatever block size wrote them.
		em.frontierIdx = batch.hi
		if batch.short {
			em.cutoff = true
		}
		if em.checkpointPath != "" && em.frontierIdx-em.lastCheckpoint >= em.checkpointEvery {
			if err := em.writeCheckpointLocked(); err != nil {
				em.err = err
				em.cond.Broadcast()
				return false
			}
		}
		if em.progress != nil {
			em.progress(em.frontierIdx, em.total)
		}
	}
	censusReorderParked.Set(int64(len(em.parked)))
	em.cond.Broadcast()
	return !em.cutoff
}

// aggregate folds one emitted entry into the running summary. Callers
// hold em.mu.
func (em *emitter) aggregate(e *Entry) {
	em.sum.Accumulate(e)
}

// NewSummary returns an empty summary over an n-process domain.
func NewSummary(n int) Summary {
	return Summary{N: n, SetconHist: make([]uint64, n+1)}
}

// Accumulate folds one entry into the summary. Entries carrying an
// orbit size (canonical representatives of orbit-mode sweeps) weight
// every counter by it and count toward Orbits; plain entries weigh 1 —
// so a reduced sweep, a full sweep, and a store scan all aggregate to
// the same totals through this one function.
func (s *Summary) Accumulate(e *Entry) {
	w := uint64(1)
	if e.OrbitSize > 0 {
		w = e.OrbitSize
		s.Orbits++
	}
	s.Total += w
	if e.SupersetClosed {
		s.SupersetClosed += w
	}
	if e.Symmetric {
		s.Symmetric += w
	}
	if e.Fair {
		s.Fair += w
		if e.Setcon >= 0 && e.Setcon < len(s.SetconHist) {
			s.SetconHist[e.Setcon] += w
		}
	}
	if (e.SupersetClosed || e.Symmetric) && !e.Fair {
		s.InclusionViolations += w
	}
	if e.Solved {
		s.Solved += w
		if e.Solvable != nil && *e.Solvable {
			s.Solvable += w
		}
		if e.Undecided {
			s.Undecided += w
		}
	}
}

// writeCheckpoint flushes the sink and persists the frontier (entry
// point for the final checkpoint, after the workers are gone).
func (em *emitter) writeCheckpoint() error {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.writeCheckpointLocked()
}

func (em *emitter) writeCheckpointLocked() error {
	flushStart := time.Now()
	defer func() { censusCheckpointSeconds.Observe(time.Since(flushStart).Seconds()) }()
	// The sidecar never records bytes that are not durably in the
	// stream: flush first, then read the offset.
	var outBytes int64
	if em.js != nil {
		if err := em.js.Flush(); err != nil {
			return err
		}
		outBytes = em.js.Offset()
	}
	ck := &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: em.fingerprint,
		NextIndex:   em.frontierIdx,
		Emitted:     em.emitted,
		OutBytes:    outBytes,
		SinkKind:    em.sinkKind,
		Summary:     *em.sum,
	}
	ck.Summary.SetconHist = append([]uint64(nil), em.sum.SetconHist...)
	if err := ck.write(em.checkpointPath); err != nil {
		return err
	}
	em.lastCheckpoint = em.frontierIdx
	return nil
}
