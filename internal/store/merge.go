package store

// Merging census shards into a store: a streaming k-way merge over the
// store's existing blocks and any number of JSONL shard files (plain or
// gzip — the census -compress output), producing a fresh generation of
// sorted, non-overlapping compressed blocks. Overlapping and adjacent
// index ranges fold together; two sources disagreeing on the bytes of
// one index are a conflict, not a silent overwrite.
//
// The merged stream is cut into blocks from its first index, so a run
// of leading stored blocks that are full, overlap no later block and
// end before every shard's first index comes out of the merge byte for
// byte as it went in. Merge carries that prefix over unchanged — its
// compressed bytes and manifest rows, CRC included — once each block
// passes every check a merge applies to a stored block it reads, and
// rewrites from the first block a shard touches or that is partial: an
// in-order campaign compresses one shard plus at most one block per
// merge, not the whole store. Carried blocks are still read, checked and written,
// so the new generation is as self-contained as a full rewrite.
//
// The heap merge and the shard-line probe run on the calling goroutine.
// The blocks it cuts are compressed, and the carried ones checked, on
// runtime.GOMAXPROCS(0) workers; one writer lands them in stream order
// at sequential offsets, the bytes a serial merge writes. Memory is
// bounded by one block per source plus the blocks in flight —
// campaign-sized shards merge without materializing the domain.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// MergeStats reports what one merge did.
type MergeStats struct {
	Added      uint64 `json:"added"`      // entries new to the store
	Duplicates uint64 `json:"duplicates"` // identical entries seen in >1 source
	Total      uint64 `json:"total"`      // entries in the store afterwards
}

// MergeOptions tune a merge.
type MergeOptions struct {
	// BlockEntries is the number of entries per rewritten block.
	// <= 0 selects DefaultBlockEntries.
	BlockEntries int
}

// Merge folds the given shard files into the store. Shards must be
// census JSONL streams sorted by enumeration index (what JSONLSink
// emits); a ".gz" suffix or gzip magic selects transparent inflation.
// On success the store points at the merged generation; on error the
// store is left exactly as it was (the old manifest never references
// new-generation bytes).
func (s *Store) Merge(shardPaths []string, opts MergeOptions) (MergeStats, error) {
	blockEntries := opts.BlockEntries
	if blockEntries <= 0 {
		blockEntries = DefaultBlockEntries
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return MergeStats{}, fmt.Errorf("store: closed")
	}

	var h sourceHeap
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	// floor is the smallest index any shard brings.
	floor := uint64(math.MaxUint64)
	for _, path := range shardPaths {
		src, err := openShardSource(path)
		if err != nil {
			return MergeStats{}, err
		}
		closers = append(closers, src)
		ok, err := src.next()
		if err != nil {
			return MergeStats{}, err
		}
		if ok {
			h = append(h, src.mergeSource)
			floor = min(floor, src.idx)
		}
	}
	blocks := s.man.Blocks
	carried := carriedPrefix(blocks, blockEntries, floor)

	gen := s.man.Generation + 1
	out, err := os.OpenFile(filepath.Join(s.dir, dataFileName(gen)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return MergeStats{}, err
	}
	newMan := manifest{
		Version:    formatVersion,
		N:          s.man.N,
		EntryKind:  s.man.EntryKind,
		Solve:      s.man.Solve,
		Task:       s.man.Task,
		Generation: gen,
		DataFile:   dataFileName(gen),
	}
	commit := false
	defer func() {
		out.Close()
		if !commit {
			os.Remove(filepath.Join(s.dir, dataFileName(gen)))
		}
	}()
	// The pool lands each block at the next offset of the new
	// generation, the bytes a serial merge writes.
	var written []blockMeta
	var off int64
	pool := newBlockPool(s.data, func(job *blockJob) error {
		if _, err := out.WriteAt(job.comp, off); err != nil {
			return err
		}
		job.meta.Offset = off
		off += job.meta.Size
		written = append(written, job.meta)
		return nil
	})
	defer pool.wait()
	// fail reports the first failure in stream order: a block already
	// handed to the pool precedes whatever the merge loop hit.
	fail := func(err error) (MergeStats, error) {
		if perr := pool.wait(); perr != nil {
			err = perr
		}
		return MergeStats{}, err
	}

	var stats MergeStats
	for _, b := range blocks[:carried] {
		pool.submit(&blockJob{check: true, meta: b})
		stats.Total += uint64(b.Entries)
	}
	for j := carried; j < len(blocks); j++ {
		src := &mergeSource{store: s, block: j, name: "store"}
		ok, err := src.next()
		if err != nil {
			return fail(err)
		}
		if ok {
			h = append(h, src)
		}
	}
	heap.Init(&h)

	// The block being cut: its lines, each ending in a newline.
	var raw []byte
	var count int
	var first, last uint64
	haveLast := false
	var lastLine []byte
	flush := func() {
		if count > 0 {
			pool.submit(&blockJob{raw: raw, meta: blockMeta{First: first, Last: last, Entries: count}})
			raw, count = make([]byte, 0, len(raw)), 0
		}
	}
	for h.Len() > 0 && !pool.failed.Load() {
		src := h[0]
		idx, line := src.idx, src.line
		if haveLast && idx == last {
			// Same index seen again (overlapping sources): must agree.
			if !bytes.Equal(line, lastLine) {
				return fail(fmt.Errorf("%w: index %d (%s vs previous source)", ErrConflict, idx, src.name))
			}
			stats.Duplicates++
		} else {
			// Store-resident lines were admitted when first ingested;
			// shard lines are checked against (and commit) the store's
			// kind once, from the probe parsed during scanning — no
			// reparse.
			if src.scan != nil {
				if err := admitKind(&newMan, src.orbit, idx); err != nil {
					return fail(err)
				}
				if err := admitTask(&newMan, src.task, src.solved, idx); err != nil {
					return fail(err)
				}
				if src.solved {
					newMan.Solve = true
				}
			}
			if count == 0 {
				first = idx
			}
			raw = append(append(raw, line...), '\n')
			count++
			last, haveLast = idx, true
			lastLine = append(lastLine[:0], line...)
			stats.Total++
			if count >= blockEntries {
				flush()
			}
		}
		// The source's line is consumed; advancing may overwrite it.
		if ok, err := src.next(); err != nil {
			return fail(err)
		} else if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	flush()
	if err := pool.wait(); err != nil {
		return MergeStats{}, err
	}
	newMan.Blocks = written
	if err := out.Sync(); err != nil {
		return MergeStats{}, err
	}

	// Commit: the manifest rename is the atomic switch to the new
	// generation; only then does the old data file go away.
	oldData := s.man.DataFile
	oldMan := s.man
	s.man = newMan
	if err := s.writeManifestLocked(); err != nil {
		s.man = oldMan
		return MergeStats{}, err
	}
	commit = true
	s.data.Close()
	s.data = out
	out = nil // keep the deferred Close from closing the live handle
	if oldData != newMan.DataFile {
		os.Remove(filepath.Join(s.dir, oldData))
	}
	s.dropCacheLocked() // offsets now name bytes of the new generation
	s.reindexLocked()
	s.presence = nil // entry set changed wholesale; reload to re-arm
	// Added = growth over what the store already held.
	var resident uint64
	for _, b := range oldMan.Blocks {
		resident += uint64(b.Entries)
	}
	stats.Added = stats.Total - resident
	return stats, nil
}

// carriedPrefix returns the number of leading blocks a merge whose
// shards bring no index below floor writes out unchanged: each holds
// exactly blockEntries entries and ends before floor and before every
// later block's first index. The merged stream then opens with exactly
// these blocks' lines, and cutting it every blockEntries entries from
// its first index reproduces them. A row that lies about its range is
// caught when the block is checked (checkBlock).
func carriedPrefix(blocks []blockMeta, blockEntries int, floor uint64) int {
	carried := len(blocks)
	limit := floor // min(floor, First of every block after j)
	for j := len(blocks) - 1; j >= 0; j-- {
		if blocks[j].Entries != blockEntries || blocks[j].Last >= limit {
			carried = j
		}
		limit = min(limit, blocks[j].First)
	}
	return carried
}

// load reads one stored block from f through c and runs every check a
// merge or LoadPresence applies to a stored block: decode's (CRC, gzip
// framing, entry count), an index parsed from every line, and
// checkBlock's. It returns the block's compressed bytes and its
// entries (see decode for own).
func (c *codec) load(f *os.File, b blockMeta, own bool) ([]byte, []blockEntry, error) {
	comp, err := readBlockBytes(f, b)
	if err != nil {
		return nil, nil, err
	}
	entries, err := c.decode(comp, b, own)
	if err == nil {
		err = indexAll(entries, b.Offset)
	}
	if err == nil {
		err = checkBlock(entries, b)
	}
	return comp, entries, err
}

// checkBlock requires a stored block's parsed indices to increase
// strictly from its manifest First to its Last: carriedPrefix chose
// the carried blocks by those bounds.
func checkBlock(entries []blockEntry, b blockMeta) error {
	for i := 1; i < len(entries); i++ {
		if entries[i].idx <= entries[i-1].idx {
			return fmt.Errorf("%w: block at %d is not sorted by index (%d after %d)",
				ErrCorrupt, b.Offset, entries[i].idx, entries[i-1].idx)
		}
	}
	if n := len(entries); n > 0 && (entries[0].idx != b.First || entries[n-1].idx != b.Last) {
		return fmt.Errorf("%w: block at %d spans [%d, %d], manifest says [%d, %d]",
			ErrCorrupt, b.Offset, entries[0].idx, entries[n-1].idx, b.First, b.Last)
	}
	return nil
}

// blockJob is one block for the pool: a stored block to read and
// check (check set; meta is its row) or lines cut by a merge (raw, meta
// without size and CRC). Its worker fills comp, entries and err and
// closes done; the pool's landing step then takes it.
type blockJob struct {
	check bool
	meta  blockMeta
	raw   []byte
	comp  []byte
	// entries are a checked block's lines. Their bytes alias the
	// worker's codec and are overwritten by its next job; only the
	// indices stay valid.
	entries []blockEntry
	err     error
	done    chan struct{}
}

// blockPool checks stored blocks and compresses cut ones on
// runtime.GOMAXPROCS(0) workers, each with its own codec, while one
// goroutine lands the finished blocks in submission order through the
// caller's step: a merge writes each at the next offset of the new
// generation, LoadPresence adds its indices to the filter.
type blockPool struct {
	src     *os.File // the live generation's data file
	land    func(*blockJob) error
	jobs    chan *blockJob
	order   chan *blockJob
	failed  atomic.Bool // set by the lander at the first failure
	workers sync.WaitGroup
	landed  chan struct{} // closed when the lander is done
	closed  bool
	err     error // owned by the lander until landed is closed
}

// newBlockPool starts the workers and the lander; wait stops them.
// land runs on the lander, once per block in submission order until
// one fails; what it writes belongs to the lander until wait returns.
// The caller holds the store's lock across submit's sends: the pool's
// goroutines never take it.
func newBlockPool(src *os.File, land func(*blockJob) error) *blockPool {
	w := runtime.GOMAXPROCS(0)
	p := &blockPool{
		src:  src,
		land: land,
		// One queued block per worker keeps each busy while the caller
		// prepares the next; the lander may trail by a few blocks per
		// worker before submit blocks. That bounds the blocks in
		// flight, and with them the pool's memory.
		jobs:   make(chan *blockJob, w),
		order:  make(chan *blockJob, 4*w),
		landed: make(chan struct{}),
	}
	p.workers.Add(w)
	for range w {
		go p.work()
	}
	go p.landAll()
	return p
}

// submit hands one block to the pool.
func (p *blockPool) submit(job *blockJob) {
	job.done = make(chan struct{})
	p.order <- job
	p.jobs <- job
}

// wait closes the pool to new blocks and waits for its goroutines. It
// returns the first failure in submission order. Later calls return
// the same.
func (p *blockPool) wait() error {
	if !p.closed {
		p.closed = true
		close(p.jobs)
		close(p.order)
		p.workers.Wait()
		<-p.landed
	}
	return p.err
}

func (p *blockPool) work() {
	defer p.workers.Done()
	var c codec
	for job := range p.jobs {
		switch {
		case p.failed.Load():
			// Nothing after the first failure lands.
		case job.check:
			job.comp, job.entries, job.err = c.load(p.src, job.meta, false)
		default:
			var comp []byte
			comp, job.meta, job.err = c.encode(job.raw, job.meta.Entries, job.meta.First, job.meta.Last)
			job.comp = bytes.Clone(comp)
		}
		close(job.done)
	}
}

func (p *blockPool) landAll() {
	defer close(p.landed)
	for job := range p.order {
		<-job.done
		if p.err != nil {
			continue
		}
		if job.err == nil {
			job.err = p.land(job)
		}
		if job.err != nil {
			p.err = job.err
			p.failed.Store(true)
		}
	}
}

// mergeSource yields (index, line) pairs in increasing index order from
// either a store block or a shard scanner.
type mergeSource struct {
	name string

	// Store-block source.
	store   *Store
	block   int
	entries []blockEntry
	pos     int

	// Shard source.
	scan    *bufio.Scanner
	started bool // a line has been read

	idx    uint64
	line   []byte
	orbit  bool   // shard lines: entry carries an orbit size
	solved bool   // shard lines: entry carries solve results
	task   string // shard lines: task spec the entry answers ("" = kset/classify)
}

// lineProbe extracts the merge-relevant fields of a census JSON line
// in one parse.
type lineProbe struct {
	Index     uint64 `json:"index"`
	OrbitSize uint64 `json:"orbit_size"`
	Solved    bool   `json:"solved"`
	Task      string `json:"task"`
}

// probeLine parses a shard line's lineProbe: by scanLine when it can,
// otherwise, and for every error, by json.Unmarshal.
func probeLine(line []byte) (lineProbe, error) {
	var p lineProbe
	if scanLine(line, &p, true) {
		return p, nil
	}
	p = lineProbe{}
	err := json.Unmarshal(line, &p)
	return p, err
}

// next advances to the following entry; false means exhausted. A
// shard source's line is valid until the next call.
func (m *mergeSource) next() (bool, error) {
	if m.store != nil {
		if m.entries == nil {
			// load's checks order the lines strictly (checkBlock).
			_, entries, err := m.store.codec.load(m.store.data, m.store.man.Blocks[m.block], true)
			if err != nil {
				return false, err
			}
			m.entries = entries
		}
		if m.pos >= len(m.entries) {
			return false, nil
		}
		m.idx, m.line = m.entries[m.pos].idx, m.entries[m.pos].line
		m.pos++
		return true, nil
	}
	var line []byte
	for len(bytes.TrimSpace(line)) == 0 {
		if !m.scan.Scan() {
			if err := m.scan.Err(); err != nil {
				return false, fmt.Errorf("store: read shard %s: %w", m.name, err)
			}
			return false, nil
		}
		line = m.scan.Bytes()
	}
	probe, err := probeLine(line)
	if err != nil {
		return false, fmt.Errorf("store: shard %s: %w", m.name, err)
	}
	if m.started && probe.Index < m.idx {
		return false, fmt.Errorf("store: source %s is not sorted by index (%d after %d)", m.name, probe.Index, m.idx)
	}
	m.idx, m.line, m.started = probe.Index, line, true
	m.orbit, m.solved, m.task = probe.OrbitSize > 0, probe.Solved, probe.Task
	return true, nil
}

// shardSource is a mergeSource over an open shard file.
type shardSource struct {
	*mergeSource
	f  *os.File
	zr *gzip.Reader
}

func (s *shardSource) Close() error {
	if s.zr != nil {
		s.zr.Close()
	}
	return s.f.Close()
}

// openShardSource opens a JSONL shard, inflating gzip transparently
// (by suffix or magic bytes).
func openShardSource(path string) (*shardSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open shard: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var r io.Reader = br
	src := &shardSource{f: f}
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: shard %s: %w", path, err)
		}
		src.zr = zr
		r = zr
	}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 1<<16), 1<<24)
	src.mergeSource = &mergeSource{name: filepath.Base(path), scan: scan}
	return src, nil
}

// sourceHeap is a min-heap of merge sources by current index (name as
// tiebreak for determinism).
type sourceHeap []*mergeSource

func (h sourceHeap) Len() int { return len(h) }
func (h sourceHeap) Less(i, j int) bool {
	if h[i].idx != h[j].idx {
		return h[i].idx < h[j].idx
	}
	return h[i].name < h[j].name
}
func (h sourceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sourceHeap) Push(x any)   { *h = append(*h, x.(*mergeSource)) }
func (h *sourceHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
