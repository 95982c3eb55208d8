// Package store implements the queryable census store: a compact,
// compressed, indexed on-disk form of adversary-census results, built
// by merging census JSONL shards (including the nightly census-long
// artifacts) and served by the `factool serve` HTTP layer.
//
// A store is a directory holding a MANIFEST.json and one generation of
// block data (blocks-%06d.dat): gzip-compressed blocks of raw census
// JSON lines, each block covering a sorted range of enumeration
// indices. The manifest is the sparse index — per block its first/last
// index, offset, compressed size and CRC — kept sorted by first index
// so a point query binary-searches the manifest, inflates one block,
// and binary-searches its entries. Writes are crash-safe by
// construction: block data is referenced only once the manifest rename
// lands, merges write a fresh generation file before swapping the
// manifest, and appended bytes beyond the manifest's horizon are
// truncated away on open.
//
// Lookups are orbit-aware: a query for any adversary index resolves
// through adversary.Orbits.Canonical to its stored representative and
// rehydrates the entry for the queried index via Adversary.Permute —
// so a store built from an orbit-reduced sweep (up to n! smaller)
// answers for the whole domain.
package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/adversary"
	"repro/internal/census"
	"repro/internal/procs"
	"repro/internal/tasks"
)

const (
	manifestName  = "MANIFEST.json"
	formatVersion = 1

	// DefaultBlockEntries is the number of entries per compressed block:
	// large enough to compress well (JSON lines share most of their
	// structure), small enough that a point query inflates little.
	DefaultBlockEntries = 256

	// blockCacheSize bounds the per-store cache of inflated blocks.
	blockCacheSize = 16

	// maxEntriesPerByte bounds a block's entry count by its compressed
	// size: DEFLATE expands one byte to at most 1032, and every entry is
	// a non-empty line of at least one byte plus its newline.
	maxEntriesPerByte = 1032 / 2
)

// Errors surfaced by store operations.
var (
	// ErrConflict reports two shards (or a shard and the store) holding
	// different bytes for the same enumeration index — overlapping
	// inputs must agree byte-for-byte to merge.
	ErrConflict = errors.New("store: conflicting entries for the same index")
	// ErrCorrupt reports a store whose data fails validation (CRC, block
	// framing, or manifest/data disagreement).
	ErrCorrupt = errors.New("store: corrupt data")
	// ErrKindMismatch reports mixing incompatible entry populations in
	// one store — orbit-reduced vs full-sweep entries, or solve entries
	// answering different task specs — which would skew every aggregate
	// and answer.
	ErrKindMismatch = errors.New("store: incompatible entry kinds for one store")
)

// Entry kinds recorded in the manifest. A store is committed to one
// kind by its first ingested entry: orbit stores hold canonical
// representatives weighted by orbit size, full stores hold one entry
// per swept index.
const (
	kindUnknown = ""
	kindFull    = "full"
	kindOrbit   = "orbit"
)

// blockMeta is the sparse-index record of one compressed block.
type blockMeta struct {
	First   uint64 `json:"first"`
	Last    uint64 `json:"last"`
	Entries int    `json:"entries"`
	Offset  int64  `json:"offset"`
	Size    int64  `json:"size"`
	CRC     uint32 `json:"crc32"`
}

// manifest is the persistent index of a store.
type manifest struct {
	Version   int    `json:"version"`
	N         int    `json:"n"`
	EntryKind string `json:"entry_kind,omitempty"`

	// Solve records that the store holds entries of a solve-mode sweep
	// (set as soon as any ingested entry carries solve results). For
	// kset sweeps the exact solve configuration (k, rounds) is not
	// recoverable from entries unless Task below was bound, so the
	// serving layer disables classify write-backs into such a store
	// rather than mixing configurations.
	Solve bool `json:"solve,omitempty"`

	// Task is the canonical tasks.Spec string the store's solve entries
	// answer. It is committed by the first ingested entry carrying a
	// task field (non-kset sweeps stamp every entry), or bound
	// explicitly via BindTaskSpec (the fabric coordinator records its
	// campaign's spec, including kset ones, so `store verify` can
	// re-derive solve verdicts). Entries of a different spec never
	// merge. Empty means classification-only or an unbound kset store.
	Task string `json:"task,omitempty"`

	Generation int         `json:"generation"`
	DataFile   string      `json:"data_file"`
	Blocks     []blockMeta `json:"blocks"` // sorted by First
}

// Store is an open census store. Safe for concurrent use.
type Store struct {
	dir string
	n   int // the manifest's N, fixed for the store's life: read unlocked

	mu      sync.Mutex
	man     manifest
	data    *os.File
	dataEnd int64 // horizon of manifest-referenced bytes

	// prefixMaxLast[i] = max(Blocks[0..i].Last): the interval-stabbing
	// helper that bounds how far left of the binary-search point a
	// lookup must scan when appended blocks overlap merged ones.
	prefixMaxLast []uint64

	// blockCache is keyed by data-file offset — stable across manifest
	// inserts (PutNew), so appends never evict hot inflated blocks; a
	// merge swaps the data file and clears it explicitly.
	blockCache map[int64][]blockEntry
	cacheOrder []int64 // LRU order, oldest first

	// parsedBlocks holds the offsets of the blocks whose every line has
	// been parsed in this generation. Re-inflating one of them after an
	// eviction yields the same CRC-checked bytes, so its lines are left
	// for the lookup probe to parse on demand. Cleared with blockCache.
	parsedBlocks map[int64]struct{}

	// codec is the block compression state every read and PutNew
	// under mu reuses.
	codec codec

	summary *census.Summary // cached aggregate; nil after writes

	// presence, when loaded (LoadPresence), short-circuits definite
	// misses before any index probe or block inflation. Nil until
	// loaded; a merge drops it (the entry set changed wholesale).
	presence      *presenceFilter
	presenceSkips atomic.Uint64
}

// blockEntry is one inflated entry: its raw JSON line (newline
// excluded) and its enumeration index, parsed from the line on first
// use (parsed reports whether idx holds it).
type blockEntry struct {
	line   []byte
	idx    uint64
	parsed bool
}

// index returns the entry's enumeration index, parsing its line once.
// Callers hold the owning store's mu: the result is memoized in place.
func (be *blockEntry) index() (uint64, error) {
	if !be.parsed {
		idx, err := entryIndex(be.line)
		if err != nil {
			return 0, err
		}
		be.idx, be.parsed = idx, true
	}
	return be.idx, nil
}

// indexAll parses every line of the block at offset off not parsed yet.
func indexAll(entries []blockEntry, off int64) error {
	for i := range entries {
		if _, err := entries[i].index(); err != nil {
			return fmt.Errorf("%w: block at %d: %v", ErrCorrupt, off, err)
		}
	}
	return nil
}

// Create initializes an empty store for an n-process census in dir
// (created if needed). Fails if dir already holds a store.
func Create(dir string, n int) (*Store, error) {
	if n < 1 || n > 6 {
		return nil, fmt.Errorf("store: n must be in [1,6], got %d", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a store", dir)
	}
	s := &Store{
		dir: dir,
		n:   n,
		man: manifest{
			Version:    formatVersion,
			N:          n,
			Generation: 1,
			DataFile:   dataFileName(1),
		},
	}
	s.dropCacheLocked()
	f, err := os.OpenFile(filepath.Join(dir, s.man.DataFile), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	s.data = f
	if err := s.writeManifestLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Open opens an existing store, validating its manifest and truncating
// any unreferenced appended tail a crash may have left behind.
func Open(dir string) (*Store, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	var man manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("%w: parse manifest: %v", ErrCorrupt, err)
	}
	if man.Version != formatVersion {
		return nil, fmt.Errorf("%w: manifest version %d, want %d", ErrCorrupt, man.Version, formatVersion)
	}
	if man.N < 1 || man.N > 6 {
		return nil, fmt.Errorf("%w: manifest n=%d", ErrCorrupt, man.N)
	}
	if man.DataFile != dataFileName(man.Generation) {
		return nil, fmt.Errorf("%w: manifest generation %d names data file %q",
			ErrCorrupt, man.Generation, man.DataFile)
	}
	for j, b := range man.Blocks {
		if b.Offset < 0 || b.Size < 0 || b.Entries < 0 || b.Offset > math.MaxInt64-b.Size ||
			int64(b.Entries)/maxEntriesPerByte > b.Size {
			return nil, fmt.Errorf("%w: manifest block %d: offset %d, size %d, entries %d",
				ErrCorrupt, j, b.Offset, b.Size, b.Entries)
		}
	}
	s := &Store{dir: dir, n: man.N, man: man}
	s.dropCacheLocked()
	s.reindexLocked()
	f, err := os.OpenFile(filepath.Join(dir, man.DataFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < s.dataEnd {
		f.Close()
		return nil, fmt.Errorf("%w: data file %s is %d bytes, manifest references %d",
			ErrCorrupt, man.DataFile, st.Size(), s.dataEnd)
	}
	if st.Size() > s.dataEnd {
		// A crash between a block append and its manifest commit leaves
		// unreferenced bytes; drop them so the next append lands at the
		// manifest's horizon.
		if err := f.Truncate(s.dataEnd); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.data = f
	return s, nil
}

// OpenOrCreate opens the store in dir, creating an empty n-process one
// when none exists. An existing store must match n.
func OpenOrCreate(dir string, n int) (*Store, error) {
	s, err := Open(dir)
	if errors.Is(err, os.ErrNotExist) {
		return Create(dir, n)
	}
	if err != nil {
		return nil, err
	}
	if s.man.N != n {
		s.Close()
		return nil, fmt.Errorf("store: %s holds an n=%d store, want n=%d", dir, s.man.N, n)
	}
	return s, nil
}

// Close releases the data file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return nil
	}
	err := s.data.Close()
	s.data = nil
	return err
}

// N returns the system size of the census the store holds.
func (s *Store) N() int {
	return s.n
}

// Orbits reports whether the store holds orbit-reduced entries
// (canonical representatives weighted by orbit size).
func (s *Store) Orbits() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.EntryKind == kindOrbit
}

// SolveMode reports whether the store holds solve-mode sweep results.
func (s *Store) SolveMode() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Solve
}

// Task returns the canonical spec of the task the store's solve
// entries answer — empty for classification-only stores and for kset
// solve stores that were never bound via BindTaskSpec.
func (s *Store) Task() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Task
}

// BindTaskSpec records the task spec the store's solve entries answer,
// persisting it in the manifest. The fabric coordinator binds its
// campaign's spec so even kset stores — whose entries carry no task
// field for compatibility — become verifiable and guard their merges.
// Binding a spec over a different recorded one, or a non-kset spec
// over existing kset solve entries, is a kind mismatch.
func (s *Store) BindTaskSpec(spec string) error {
	if spec == "" {
		return nil
	}
	parsed, err := tasks.ParseSpec(spec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	canonical := parsed.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Task == canonical {
		return nil
	}
	if s.man.Task != "" {
		return fmt.Errorf("%w: store answers task %q, cannot bind %q",
			ErrKindMismatch, s.man.Task, canonical)
	}
	if s.man.Solve && !parsed.IsKSet() {
		return fmt.Errorf("%w: store holds kset solve entries, cannot bind task %q",
			ErrKindMismatch, canonical)
	}
	s.man.Task = canonical
	return s.writeManifestLocked()
}

// Stats describes a store's physical shape.
type Stats struct {
	N          int    `json:"n"`
	Entries    uint64 `json:"entries"`
	Blocks     int    `json:"blocks"`
	Bytes      int64  `json:"bytes"` // compressed block bytes
	Generation int    `json:"generation"`
	Orbits     bool   `json:"orbits,omitempty"`
}

// Stats returns the store's entry/block/byte counts.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		N:          s.man.N,
		Blocks:     len(s.man.Blocks),
		Generation: s.man.Generation,
		Orbits:     s.man.EntryKind == kindOrbit,
	}
	for _, b := range s.man.Blocks {
		st.Entries += uint64(b.Entries)
		st.Bytes += b.Size
	}
	return st
}

// reindexLocked rebuilds the derived lookup state after the manifest
// changes. The offset-keyed block cache survives (appends leave block
// data in place); dropCacheLocked handles data-file swaps. Callers
// hold s.mu (or own the store exclusively).
func (s *Store) reindexLocked() {
	s.prefixMaxLast = s.prefixMaxLast[:0]
	s.dataEnd = 0
	var max uint64
	for _, b := range s.man.Blocks {
		if b.Last > max {
			max = b.Last
		}
		s.prefixMaxLast = append(s.prefixMaxLast, max)
		if end := b.Offset + b.Size; end > s.dataEnd {
			s.dataEnd = end
		}
	}
	s.summary = nil
}

// dropCacheLocked empties the inflated-block cache and the set of
// parsed blocks — required whenever the data file itself is replaced
// (merge generations), where offsets name different bytes. Callers
// hold s.mu (or own the store exclusively).
func (s *Store) dropCacheLocked() {
	s.blockCache = make(map[int64][]blockEntry)
	s.cacheOrder = s.cacheOrder[:0]
	s.parsedBlocks = make(map[int64]struct{})
}

// Get returns the entry stored for the exact enumeration index, if any.
func (s *Store) Get(idx uint64) (*census.Entry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	line, ok, err := s.getRawLocked(idx)
	if err != nil || !ok {
		return nil, false, err
	}
	var e census.Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return nil, false, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, idx, err)
	}
	return &e, true, nil
}

// domainSizeLocked is the store's enumeration-domain size.
func (s *Store) domainSizeLocked() uint64 {
	return adversary.CensusSize(s.man.N)
}

// getRawLocked finds the raw JSON line of idx. Callers hold s.mu.
func (s *Store) getRawLocked(idx uint64) ([]byte, bool, error) {
	if s.presence != nil && !s.presence.mayContain(idx) {
		s.presenceSkips.Add(1)
		return nil, false, nil
	}
	blocks := s.man.Blocks
	// i = first block with First > idx; candidates are to its left.
	i := sort.Search(len(blocks), func(j int) bool { return blocks[j].First > idx })
	for j := i - 1; j >= 0 && s.prefixMaxLast[j] >= idx; j-- {
		if blocks[j].Last < idx {
			continue
		}
		entries, err := s.blockEntriesLocked(j)
		if err != nil {
			return nil, false, err
		}
		k, err := probe(entries, idx)
		if err != nil {
			return nil, false, fmt.Errorf("%w: block at %d: %v", ErrCorrupt, blocks[j].Offset, err)
		}
		if k < len(entries) && entries[k].idx == idx {
			return entries[k].line, true, nil
		}
	}
	return nil, false, nil
}

// probe returns the position of the first entry whose index is at
// least idx (len(entries) if none), parsing only the lines the binary
// search visits: at most ⌈log₂ B⌉+1 of a B-entry block. The entry at
// the returned position, if any, is parsed.
func probe(entries []blockEntry, idx uint64) (int, error) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v, err := entries[mid].index()
		if err != nil {
			return 0, err
		}
		if v < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// blockEntriesLocked inflates block j through the LRU cache (keyed by
// the block's data-file offset). A block's first inflation in a
// generation parses every line and checks their order (checkBlock), so
// no lookup is ever answered from a block this process has not fully
// parsed: the probe's binary search needs sorted lines. A re-inflation
// after an eviction leaves the lines for the lookup probe. Callers hold
// s.mu.
func (s *Store) blockEntriesLocked(j int) ([]blockEntry, error) {
	key := s.man.Blocks[j].Offset
	if entries, ok := s.blockCache[key]; ok {
		s.touchBlockLocked(key)
		return entries, nil
	}
	entries, err := s.readBlockLocked(s.man.Blocks[j])
	if err != nil {
		return nil, err
	}
	if _, ok := s.parsedBlocks[key]; !ok {
		if err := indexAll(entries, key); err != nil {
			return nil, err
		}
		if err := checkBlock(entries, s.man.Blocks[j]); err != nil {
			return nil, err
		}
		s.parsedBlocks[key] = struct{}{}
	}
	s.blockCache[key] = entries
	s.cacheOrder = append(s.cacheOrder, key)
	if len(s.cacheOrder) > blockCacheSize {
		evict := s.cacheOrder[0]
		s.cacheOrder = s.cacheOrder[1:]
		delete(s.blockCache, evict)
	}
	return entries, nil
}

// parsedBlockLocked is blockEntriesLocked with every line parsed: the
// whole-block walkers (Range, Summary) check every line of every block
// they read. Callers hold s.mu.
func (s *Store) parsedBlockLocked(j int) ([]blockEntry, error) {
	entries, err := s.blockEntriesLocked(j)
	if err != nil {
		return nil, err
	}
	if err := indexAll(entries, s.man.Blocks[j].Offset); err != nil {
		return nil, err
	}
	return entries, nil
}

func (s *Store) touchBlockLocked(key int64) {
	for i, b := range s.cacheOrder {
		if b == key {
			s.cacheOrder = append(append(s.cacheOrder[:i:i], s.cacheOrder[i+1:]...), key)
			return
		}
	}
}

// readBlockLocked reads, checks and inflates one block from the data
// file and splits it into lines, leaving them unparsed (see indexAll
// and probe). Callers hold s.mu.
func (s *Store) readBlockLocked(b blockMeta) ([]blockEntry, error) {
	if s.data == nil {
		return nil, errors.New("store: closed")
	}
	comp, err := readBlockBytes(s.data, b)
	if err != nil {
		return nil, err
	}
	return s.codec.decode(comp, b, true)
}

// readBlockBytes reads one block's compressed bytes from a data file.
func readBlockBytes(f *os.File, b blockMeta) ([]byte, error) {
	comp := make([]byte, b.Size)
	if _, err := f.ReadAt(comp, b.Offset); err != nil {
		return nil, fmt.Errorf("%w: read block at %d: %v", ErrCorrupt, b.Offset, err)
	}
	return comp, nil
}

// codec is one goroutine's block compression state: a gzip writer and
// reader reused across blocks and the buffers they fill. Every block
// the store reads or writes goes through a codec.
type codec struct {
	zw       *gzip.Writer
	zr       *gzip.Reader
	deflated bytes.Buffer
	inflated bytes.Buffer
}

// decode checks one block's compressed bytes against its manifest row
// (CRC, gzip framing, entry count) and splits it into lines, leaving
// them unparsed. With own set the lines live in a copy of the inflated
// bytes; otherwise they alias c's buffer and are valid until c's next
// use.
func (c *codec) decode(comp []byte, b blockMeta, own bool) ([]blockEntry, error) {
	if crc := crc32.ChecksumIEEE(comp); crc != b.CRC {
		return nil, fmt.Errorf("%w: block at %d: crc %08x, manifest %08x", ErrCorrupt, b.Offset, crc, b.CRC)
	}
	raw, err := c.inflate(comp)
	if err != nil {
		return nil, fmt.Errorf("%w: block at %d: %v", ErrCorrupt, b.Offset, err)
	}
	if own {
		raw = bytes.Clone(raw)
	}
	entries := make([]blockEntry, 0, min(b.Entries, bytes.Count(raw, []byte{'\n'})+1))
	for len(raw) > 0 {
		var line []byte
		line, raw, _ = bytes.Cut(raw, []byte{'\n'})
		if len(line) > 0 {
			entries = append(entries, blockEntry{line: line})
		}
	}
	if len(entries) != b.Entries {
		return nil, fmt.Errorf("%w: block at %d holds %d entries, manifest says %d",
			ErrCorrupt, b.Offset, len(entries), b.Entries)
	}
	return entries, nil
}

// inflate decompresses one block into c's buffer and returns its
// bytes, valid until c's next use. The buffer grows with what the
// stream yields: the gzip size trailer is never trusted for sizing.
func (c *codec) inflate(comp []byte) ([]byte, error) {
	src := bytes.NewReader(comp)
	if c.zr == nil {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return nil, err
		}
		c.zr = zr
	} else if err := c.zr.Reset(src); err != nil {
		return nil, err
	}
	c.inflated.Reset()
	if _, err := c.inflated.ReadFrom(c.zr); err != nil {
		return nil, err
	}
	if err := c.zr.Close(); err != nil {
		return nil, err
	}
	return c.inflated.Bytes(), nil
}

// encode compresses one block — raw holds its lines, each ending in a
// newline — and returns the compressed bytes and the block's manifest
// row, offset unset. The bytes are valid until c's next use. A reset
// writer produces the bytes a fresh one does, however raw was split
// into writes.
func (c *codec) encode(raw []byte, entries int, first, last uint64) ([]byte, blockMeta, error) {
	if c.zw == nil {
		c.zw = gzip.NewWriter(nil)
	}
	c.deflated.Reset()
	c.zw.Reset(&c.deflated)
	if _, err := c.zw.Write(raw); err != nil {
		return nil, blockMeta{}, err
	}
	if err := c.zw.Close(); err != nil {
		return nil, blockMeta{}, err
	}
	comp := c.deflated.Bytes()
	return comp, blockMeta{
		First:   first,
		Last:    last,
		Entries: entries,
		Size:    int64(len(comp)),
		CRC:     crc32.ChecksumIEEE(comp),
	}, nil
}

// entryIndex extracts the enumeration index from a census JSON line.
func entryIndex(line []byte) (uint64, error) {
	var p lineProbe
	if scanLine(line, &p, false) {
		return p.Index, nil
	}
	var e struct {
		Index uint64 `json:"index"`
	}
	if err := json.Unmarshal(line, &e); err != nil {
		return 0, err
	}
	return e.Index, nil
}

// scanLine reads a census line's index into p, and with probe set
// every lineProbe field, without json.Unmarshal's reflection. It
// answers only lines it reads exactly as json.Unmarshal would: a valid
// JSON object (json.Valid, the check Unmarshal runs first) whose keys
// are ASCII without escapes and whose wanted fields hold plain
// literals — digits strconv.ParseUint takes for the counts, true or
// false for solved, an ASCII string without escapes for task, or null,
// which leaves the field as it was. Keys match their field ignoring
// ASCII case and the last duplicate wins, as in Unmarshal. On false p
// may be partly filled; the caller unmarshals the line instead, which
// stays the reference and the only source of errors. Unmarshal folds
// non-ASCII keys too ("taſk" fills task), so those decline.
func scanLine(line []byte, p *lineProbe, probe bool) bool {
	if !json.Valid(line) {
		return false
	}
	// Valid guarantees the grammar below: every index the walk reads
	// exists, and after the object's '}' only whitespace remains.
	i := skipSpace(line, 0)
	if line[i] != '{' {
		return false
	}
	i = skipSpace(line, i+1)
	for line[i] != '}' {
		if line[i] == ',' {
			i = skipSpace(line, i+1)
		}
		// A key holding an escape has a backslash before the first
		// quote after its opening one, so plain refuses it whole.
		keyEnd := i + 1 + bytes.IndexByte(line[i+1:], '"')
		key := line[i+1 : keyEnd]
		if !plain(key) {
			return false
		}
		start := skipSpace(line, skipSpace(line, keyEnd+1)+1) // past ':'
		end := valueEnd(line, start)
		val := line[start:end]
		null := string(val) == "null"
		switch {
		case bytes.EqualFold(key, []byte("index")):
			if !null && !scanUint(val, &p.Index) {
				return false
			}
		case !probe:
			// entryIndex reads no other field.
		case bytes.EqualFold(key, []byte("orbit_size")):
			if !null && !scanUint(val, &p.OrbitSize) {
				return false
			}
		case bytes.EqualFold(key, []byte("solved")):
			switch string(val) {
			case "true", "false":
				p.Solved = val[0] == 't'
			case "null":
			default:
				return false
			}
		case bytes.EqualFold(key, []byte("task")):
			if !null {
				if val[0] != '"' || !plain(val) {
					return false
				}
				p.Task = string(val[1 : len(val)-1])
			}
		}
		i = skipSpace(line, end)
	}
	return true
}

// skipSpace returns the position of the first non-whitespace byte of
// line at or after i.
func skipSpace(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\n' || line[i] == '\r') {
		i++
	}
	return i
}

// valueEnd returns the end of the JSON value starting at line[i],
// which a valid document holds and follows by a delimiter.
func valueEnd(line []byte, i int) int {
	switch line[i] {
	case '"':
		for j := i + 1; ; j++ {
			switch line[j] {
			case '\\':
				j++
			case '"':
				return j + 1
			}
		}
	case '{', '[':
		depth := 0
		for j := i; ; j++ {
			switch line[j] {
			case '"':
				j = valueEnd(line, j) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return j + 1
				}
			}
		}
	default: // number, true, false or null
		j := i
		for ; j < len(line); j++ {
			switch line[j] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return j
			}
		}
		return j
	}
}

// scanUint stores a JSON number literal made only of digits into *v,
// as Unmarshal does for a uint64 field; a sign, fraction, exponent or
// overflow declines.
func scanUint(val []byte, v *uint64) bool {
	for _, c := range val {
		if c < '0' || c > '9' {
			return false
		}
	}
	n, err := strconv.ParseUint(string(val), 10, 64)
	if err != nil {
		return false
	}
	*v = n
	return true
}

// plain reports whether b is ASCII without a backslash: nothing for
// Unmarshal to unescape, and nothing it folds beyond ASCII case, as
// bytes.EqualFold then does too.
func plain(b []byte) bool {
	for _, c := range b {
		if c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// LookupSource reports how a Lookup resolved.
type LookupSource int

const (
	// LookupMiss: neither the index nor its orbit representative is
	// stored.
	LookupMiss LookupSource = iota
	// LookupDirect: the index itself is stored.
	LookupDirect
	// LookupRehydrated: the orbit's canonical representative is stored
	// and the entry was rehydrated for the queried index via Permute.
	LookupRehydrated
)

// Lookup resolves an enumeration index orbit-aware: a direct hit wins;
// otherwise the index's canonical representative (orbits must be the
// store's n) is fetched and rehydrated for the queried index. The
// rehydrated entry is exactly what a full sweep would have recorded for
// that index: identity fields recomputed through Permute, invariant
// classification and solvability fields carried over, no orbit size.
func (s *Store) Lookup(idx uint64, orbits *adversary.Orbits) (*census.Entry, LookupSource, error) {
	if e, ok, err := s.Get(idx); err != nil {
		return nil, LookupMiss, err
	} else if ok {
		return e, LookupDirect, nil
	}
	if orbits == nil {
		return nil, LookupMiss, nil
	}
	// One image scan yields the representative and the rehydration
	// permutation together (no second PermutationBetween scan).
	canon, _, perm := orbits.CanonicalWithWitness(idx)
	if canon == idx {
		return nil, LookupMiss, nil
	}
	ce, ok, err := s.Get(canon)
	if err != nil || !ok {
		return nil, LookupMiss, err
	}
	e, err := rehydrateWith(s.n, ce, idx, perm)
	if err != nil {
		return nil, LookupMiss, err
	}
	return e, LookupRehydrated, nil
}

// Rehydrate maps a stored canonical-representative entry onto another
// index of its orbit: the adversary is rebuilt by renaming the
// representative's processes (Adversary.Permute), the identity fields
// (index, printed form, live-set masks) are recomputed from it, and
// every class- and solvability-invariant field is carried over. The
// result equals the entry a full sweep computes directly for idx.
func Rehydrate(n int, canonical *census.Entry, idx uint64, orbits *adversary.Orbits) (*census.Entry, error) {
	perm, ok := orbits.PermutationBetween(canonical.Index, idx)
	if !ok {
		return nil, fmt.Errorf("store: index %d is not in the orbit of %d", idx, canonical.Index)
	}
	return rehydrateWith(n, canonical, idx, perm)
}

// rehydrateWith is Rehydrate with the witness permutation already in
// hand (the single-scan CanonicalWithWitness path of Lookup and the
// serving layer).
func rehydrateWith(n int, canonical *census.Entry, idx uint64, perm []procs.ID) (*census.Entry, error) {
	a := adversary.AdversaryAt(n, canonical.Index).Permute(perm)
	if got := adversary.EnumerationIndex(a); got != idx {
		return nil, fmt.Errorf("store: rehydration of %d via %d landed on %d", idx, canonical.Index, got)
	}
	e := canonical.Clone()
	e.Index = idx
	e.Adversary = a.String()
	live := a.LiveSets()
	masks := make([]uint32, len(live))
	for i, ls := range live {
		masks[i] = uint32(ls)
	}
	e.LiveSetMasks = masks
	// A direct full-sweep entry carries no orbit size; neither does a
	// rehydrated one.
	e.OrbitSize = 0
	return e, nil
}

// PutNew appends one entry — the write-back path of the serving layer's
// live-computation fallback. The append is durable before the manifest
// commits, an entry already stored under the same index is left alone
// (reported as added=false; differing bytes are a conflict), and the
// entry's kind (orbit-weighted or plain) and task must match the
// store's. A rejected entry leaves the store as it was: the kind, task
// and solve flag it would commit are admitted into a copy of the
// manifest, which replaces the live one only with the new block.
func (s *Store) PutNew(e *census.Entry) (added bool, err error) {
	line, err := json.Marshal(e)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return false, errors.New("store: closed")
	}
	if e.Index >= s.domainSizeLocked() {
		return false, fmt.Errorf("store: index %d beyond the n=%d domain", e.Index, s.man.N)
	}
	man := s.man
	if err := admitKind(&man, e.OrbitSize > 0, e.Index); err != nil {
		return false, err
	}
	if err := admitTask(&man, e.Task, e.Solved, e.Index); err != nil {
		return false, err
	}
	if e.Solved {
		man.Solve = true
	}
	if prev, ok, err := s.getRawLocked(e.Index); err != nil {
		return false, err
	} else if ok {
		if !bytes.Equal(prev, line) {
			return false, fmt.Errorf("%w: index %d", ErrConflict, e.Index)
		}
		return false, nil
	}
	comp, meta, err := s.codec.encode(append(line, '\n'), 1, e.Index, e.Index)
	if err != nil {
		return false, err
	}
	if _, err := s.data.WriteAt(comp, s.dataEnd); err != nil {
		return false, err
	}
	meta.Offset = s.dataEnd
	if err := s.data.Sync(); err != nil {
		return false, err
	}
	// Insert sorted by First so binary search keeps working. Clipped,
	// the insert copies, so the live manifest keeps its blocks until
	// the commit.
	at := sort.Search(len(man.Blocks), func(j int) bool { return man.Blocks[j].First > meta.First })
	man.Blocks = slices.Insert(slices.Clip(man.Blocks), at, meta)
	old := s.man
	s.man = man
	if err := s.writeManifestLocked(); err != nil {
		s.man = old
		return false, err
	}
	s.reindexLocked()
	if s.presence != nil {
		s.presence.add(e.Index)
	}
	return true, nil
}

// admitKind commits the manifest to the entry kind of the first entry
// and rejects mixing orbit-reduced and full-sweep entries afterwards.
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
		return fmt.Errorf("%w: store holds %s entries, entry %d is %s",
			ErrKindMismatch, man.EntryKind, idx, kind)
	}
}

// taskIsKSet reports whether a canonical manifest task string names the
// kset compat family, whose entries carry no task field.
func taskIsKSet(task string) bool {
	return task == "kset" || (len(task) > 5 && task[:5] == "kset:")
}

// admitTask commits the manifest to the task spec of the first entry
// carrying one and rejects mixing specs afterwards. Entries without a
// task field are the kset compat population: their solved entries are
// admissible only into stores whose recorded task (if any) is a kset
// spec. Callers update man.Solve after this check, never before.
func admitTask(man *manifest, task string, solved bool, idx uint64) error {
	if task == "" {
		if solved && man.Task != "" && !taskIsKSet(man.Task) {
			return fmt.Errorf("%w: store answers task %q, entry %d is a kset solve entry",
				ErrKindMismatch, man.Task, idx)
		}
		return nil
	}
	switch man.Task {
	case task:
		return nil
	case "":
		if man.Solve {
			return fmt.Errorf("%w: store holds kset solve entries, entry %d answers task %q",
				ErrKindMismatch, idx, task)
		}
		man.Task = task
		return nil
	default:
		return fmt.Errorf("%w: store answers task %q, entry %d answers %q",
			ErrKindMismatch, man.Task, idx, task)
	}
}

// writeManifestLocked persists the manifest atomically (tmp file,
// sync, rename). Callers hold s.mu (or own the store exclusively).
func (s *Store) writeManifestLocked() error {
	b, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(s.dir, manifestName+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.dir, manifestName))
}

func dataFileName(gen int) string {
	return fmt.Sprintf("blocks-%06d.dat", gen)
}

// Summary aggregates every stored entry through census.Summary
// aggregation: orbit stores report full-domain totals (each canonical
// representative weighted by its orbit size), full stores report plain
// counts over what is stored. Cached until the next write.
func (s *Store) Summary() (census.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.summary != nil {
		return *s.summary, nil
	}
	sum := census.NewSummary(s.man.N)
	for j := range s.man.Blocks {
		entries, err := s.parsedBlockLocked(j)
		if err != nil {
			return census.Summary{}, err
		}
		for _, be := range entries {
			var e census.Entry
			if err := json.Unmarshal(be.line, &e); err != nil {
				return census.Summary{}, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, be.idx, err)
			}
			sum.Accumulate(&e)
		}
	}
	s.summary = &sum
	return sum, nil
}
