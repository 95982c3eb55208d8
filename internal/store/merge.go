package store

// Merging census shards into a store: a streaming k-way merge over the
// store's existing blocks and any number of JSONL shard files (plain or
// gzip — the census -compress output), producing a fresh generation of
// sorted, non-overlapping compressed blocks. Overlapping and adjacent
// index ranges fold together; two sources disagreeing on the bytes of
// one index are a conflict, not a silent overwrite. Memory is bounded
// by one block per source plus the block being built — campaign-sized
// shards merge without materializing the domain.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

	var sources []*mergeSource
	for j := range s.man.Blocks {
		sources = append(sources, &mergeSource{store: s, block: j, name: "store"})
	}
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for _, path := range shardPaths {
		src, err := openShardSource(path)
		if err != nil {
			return MergeStats{}, err
		}
		closers = append(closers, src)
		sources = append(sources, src.mergeSource)
	}

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

	var h sourceHeap
	for _, src := range sources {
		ok, err := src.next()
		if err != nil {
			return MergeStats{}, err
		}
		if ok {
			h = append(h, src)
		}
	}
	heap.Init(&h)

	var stats MergeStats
	zw := gzip.NewWriter(nil)
	var block [][]byte
	var first, last uint64
	var off int64
	haveLast := false
	var lastLine []byte
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		meta, err := appendBlock(out, zw, off, block, first, last)
		if err != nil {
			return err
		}
		off += meta.Size
		newMan.Blocks = append(newMan.Blocks, meta)
		block = block[:0]
		return nil
	}
	for h.Len() > 0 {
		src := h[0]
		idx, line := src.idx, src.line
		if ok, err := src.next(); err != nil {
			return MergeStats{}, err
		} else if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		if haveLast && idx == last {
			// Same index seen again (overlapping sources): must agree.
			if !bytes.Equal(line, lastLine) {
				return MergeStats{}, fmt.Errorf("%w: index %d (%s vs previous source)", ErrConflict, idx, src.name)
			}
			stats.Duplicates++
			continue
		}
		// Store-resident lines were admitted when first ingested; shard
		// lines are checked against (and commit) the store's kind once,
		// from the probe parsed during scanning — no reparse.
		if src.scan != nil {
			if err := admitKind(&newMan, src.orbit, idx); err != nil {
				return MergeStats{}, err
			}
			if err := admitTask(&newMan, src.task, src.solved, idx); err != nil {
				return MergeStats{}, err
			}
			if src.solved {
				newMan.Solve = true
			}
		}
		cp := append([]byte(nil), line...)
		if len(block) == 0 {
			first = idx
		}
		block = append(block, cp)
		last, lastLine, haveLast = idx, cp, true
		stats.Total++
		if len(block) >= blockEntries {
			if err := flush(); err != nil {
				return MergeStats{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return MergeStats{}, err
	}
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
	scan *bufio.Scanner

	idx     uint64
	line    []byte
	orbit   bool   // shard lines: entry carries an orbit size
	solved  bool   // shard lines: entry carries solve results
	task    string // shard lines: task spec the entry answers ("" = kset/classify)
	started bool
}

// lineProbe extracts the merge-relevant fields of a census JSON line
// in one parse.
type lineProbe struct {
	Index     uint64 `json:"index"`
	OrbitSize uint64 `json:"orbit_size"`
	Solved    bool   `json:"solved"`
	Task      string `json:"task"`
}

// next advances to the following entry; false means exhausted.
func (m *mergeSource) next() (bool, error) {
	prev, had := m.idx, m.started
	switch {
	case m.store != nil:
		if m.entries == nil {
			b := m.store.man.Blocks[m.block]
			entries, err := m.store.readBlockLocked(b)
			if err == nil {
				err = indexAll(entries, b.Offset)
			}
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
	default:
		if !m.scan.Scan() {
			if err := m.scan.Err(); err != nil {
				return false, fmt.Errorf("store: read shard %s: %w", m.name, err)
			}
			return false, nil
		}
		line := m.scan.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			return m.next()
		}
		var probe lineProbe
		if err := json.Unmarshal(line, &probe); err != nil {
			return false, fmt.Errorf("store: shard %s: %w", m.name, err)
		}
		m.idx, m.line = probe.Index, append([]byte(nil), line...)
		m.orbit, m.solved, m.task = probe.OrbitSize > 0, probe.Solved, probe.Task
	}
	if had && m.idx < prev {
		return false, fmt.Errorf("store: source %s is not sorted by index (%d after %d)", m.name, m.idx, prev)
	}
	m.started = true
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

// admitKind commits the merged manifest to the entry kind of the first
// entry and rejects mixing orbit-reduced and full-sweep entries.
func admitKind(man *manifest, orbit bool, idx uint64) error {
	kind := kindFull
	if orbit {
		kind = kindOrbit
	}
	switch man.EntryKind {
	case kindUnknown:
		man.EntryKind = kind
		return nil
	case kind:
		return nil
	default:
		return fmt.Errorf("%w: store holds %s entries, shard entry %d is %s",
			ErrKindMismatch, man.EntryKind, idx, kind)
	}
}
