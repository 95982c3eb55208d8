package chromatic

// TowerCache memoizes iterated subdivisions R_A^l(I) across solvability
// queries: an entry is keyed by the membership predicate's signature and
// the input complex's hash, and holds one Tower that is extended lazily
// and monotonically. Every decision that shares a cache — the queries
// of one fact.Model, a census run, a serving process — therefore builds
// each level exactly once. Acquire is the only way to obtain a tower: a
// nil *TowerCache shares nothing and hands out a fresh tower per call.
//
// Memory can be bounded for long-running enumeration campaigns: with a
// byte budget set (NewTowerCacheWithBudget), entries are tracked in
// least-recently-acquired order with an approximate resident size, and
// unpinned entries are evicted from the cold end whenever the budget
// is exceeded — the cache runs flat instead of accreting one
// tower per distinct R_A signature over a whole census. Entries are
// pinned while acquired: Acquire pins, CachedTower.Release unpins, and
// only unpinned entries are evicted, so a tower never disappears under
// a running solve. An evicted tower still held by a caller remains
// fully usable (it is simply no longer shared); its next Acquire is a
// miss that rebuilds.

import (
	"container/list"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sc"
)

// TowerCache is a concurrency-safe cache of iterated subdivisions.
// The zero value is not usable; create instances with NewTowerCache or
// NewTowerCacheWithBudget. A nil *TowerCache is usable: Acquire hands
// out unshared towers.
type TowerCache struct {
	mu       sync.Mutex
	entries  map[string]*cacheEntry
	lru      *list.List // front = most recently acquired
	maxBytes int64
	bytes    int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is the LRU bookkeeping of one cached tower.
type cacheEntry struct {
	key     string
	ct      *CachedTower
	elem    *list.Element
	bytes   int64
	pins    int
	evicted bool
}

// NewTowerCache creates an empty cache with no byte budget.
func NewTowerCache() *TowerCache {
	return &TowerCache{entries: make(map[string]*cacheEntry), lru: list.New()}
}

// NewTowerCacheWithBudget creates an empty cache that evicts
// least-recently-acquired unpinned towers once the approximate resident
// size exceeds maxBytes. maxBytes <= 0 means unbounded.
func NewTowerCacheWithBudget(maxBytes int64) *TowerCache {
	c := NewTowerCache()
	c.maxBytes = maxBytes
	return c
}

// CachedTower is a shared, lazily extended tower. Extension is
// serialized internally; the underlying Tower may be read concurrently
// up to any height already ensured. One handed out by a nil cache
// belongs to its caller alone.
type CachedTower struct {
	mu    sync.Mutex
	tower *Tower

	cache *TowerCache
	entry *cacheEntry
}

// Acquire returns the cached tower for (sig, input), creating it on a
// miss. sig must uniquely determine the membership predicate (use
// affine.Task.Signature for affine tasks); the input complex is hashed.
// workers configures extensions of a freshly created tower; a cache hit
// keeps the existing tower's worker count.
//
// The entry is pinned until Release: on caches with a byte budget,
// callers should Release the tower when done so it becomes evictable
// (unbounded caches never evict, so legacy callers that never Release
// only forgo eviction, nothing else).
//
// On a nil cache Acquire ignores sig and returns a new tower that no
// other call sees; its Release does nothing.
func (c *TowerCache) Acquire(sig string, input *sc.Complex, workers int) *CachedTower {
	if c == nil {
		return &CachedTower{tower: newTower(input, workers)}
	}
	key := sig + "\x00" + input.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		e.pins++
		c.lru.MoveToFront(e.elem)
		return e.ct
	}
	c.misses.Add(1)
	tower := newTower(input, workers)
	e := &cacheEntry{key: key, bytes: tower.ApproxBytes(), pins: 1}
	e.ct = &CachedTower{tower: tower, cache: c, entry: e}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += e.bytes
	c.evictLocked()
	return e.ct
}

// Release unpins one Acquire of this tower, making the entry evictable
// once every holder has released it. Releasing more times than acquired
// is a no-op; releasing a tower whose entry was already evicted (or one
// not owned by a cache) is too.
func (ct *CachedTower) Release() {
	c := ct.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := ct.entry
	if e.evicted || e.pins == 0 {
		return
	}
	e.pins--
	c.evictLocked()
}

// resize refreshes the recorded size of a grown tower and enforces the
// budget. Called after EnsureHeightTables extensions.
func (c *TowerCache) resize(ct *CachedTower) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := ct.entry
	if e.evicted {
		return
	}
	nb := ct.tower.ApproxBytes()
	c.bytes += nb - e.bytes
	e.bytes = nb
	c.evictLocked()
}

// evictLocked drops least-recently-acquired unpinned entries until the
// cache fits its budget. Pinned entries are skipped, so a cache whose
// live working set exceeds the budget temporarily runs over it (a soft
// bound) rather than corrupting in-flight solves.
func (c *TowerCache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for elem := c.lru.Back(); elem != nil && c.bytes > c.maxBytes; {
		e := elem.Value.(*cacheEntry)
		prev := elem.Prev()
		if e.pins == 0 {
			c.lru.Remove(elem)
			delete(c.entries, e.key)
			c.bytes -= e.bytes
			e.evicted = true
			c.evictions.Add(1)
		}
		elem = prev
	}
}

// Stats reports cache hits and misses (Acquire calls that found,
// respectively created, an entry).
func (c *TowerCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// CacheStats is a point-in-time snapshot of a TowerCache: the hit/miss
// counters plus size accounting — the number of cached towers, their
// total built levels, the total vertices across those levels, the
// approximate resident bytes, and the eviction counters when a byte
// budget is set. With a budget, eviction timing depends on goroutine
// scheduling, so Hits/Misses/Evictions/Bytes are not
// worker-count-deterministic — keep budgeted cache stats out of
// byte-compared outputs.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Towers    int   `json:"towers"`
	Levels    int   `json:"levels"`
	Vertices  int   `json:"vertices"`
	Bytes     int64 `json:"bytes,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
	Evictions int64 `json:"evictions,omitempty"`
}

// Snapshot collects the cache statistics. Towers mid-extension are
// counted at the height already built.
func (c *TowerCache) Snapshot() CacheStats {
	c.mu.Lock()
	entries := make([]*cacheEntry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Towers:    len(entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Evictions: c.evictions.Load(),
	}
	c.mu.Unlock()
	for _, e := range entries {
		h := e.ct.tower.Height()
		st.Levels += h
		for level := 1; level <= h; level++ {
			st.Vertices += e.ct.tower.LevelComplex(level).NumVertices()
		}
	}
	return st
}

// WritePrometheus emits the cache counters and size gauges in
// Prometheus text format. Unlike Snapshot it never walks the towers
// (Levels/Vertices are omitted), so it is cheap enough for every
// scrape of a long campaign; it implements obs.Collector so a cache
// registers directly into a telemetry registry.
func (c *TowerCache) WritePrometheus(w io.Writer) {
	c.mu.Lock()
	towers := len(c.entries)
	bytes, maxBytes := c.bytes, c.maxBytes
	c.mu.Unlock()
	obs.WriteGauge(w, "factool_tower_cache_towers", "Towers resident in the shared subdivision cache.", int64(towers))
	obs.WriteGauge(w, "factool_tower_cache_bytes", "Approximate resident bytes of the shared subdivision cache.", bytes)
	obs.WriteGauge(w, "factool_tower_cache_max_bytes", "Byte budget of the shared subdivision cache (0 = unbounded).", maxBytes)
	obs.WriteGauge(w, "factool_tower_cache_hits", "Subdivision cache hits.", c.hits.Load())
	obs.WriteGauge(w, "factool_tower_cache_misses", "Subdivision cache misses.", c.misses.Load())
	obs.WriteGauge(w, "factool_tower_cache_evictions", "Subdivision cache evictions.", c.evictions.Load())
}

// Len returns the number of cached towers.
func (c *TowerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Tower returns the underlying tower. Callers must only read levels up
// to a height previously ensured via EnsureHeightTables.
func (ct *CachedTower) Tower() *Tower { return ct.tower }

// EnsureHeightTables extends the tower to at least the given height
// using the membership-table provider (the rank-indexed fast path),
// which must match the signature the tower was acquired under.
// Extensions are serialized; already-built levels are never rebuilt,
// and a call whose height is already built returns without waiting for
// another caller's extension.
func (ct *CachedTower) EnsureHeightTables(tables MemberTables, height int) error {
	return ct.EnsureHeightTablesTraced(tables, height, nil)
}

// EnsureHeightTablesTraced is EnsureHeightTables recording a
// chromatic.tower_extend child of parent, in parent's tracer, when the
// tower actually grows (already-built heights record nothing, keeping
// the per-round fast path span-free). A nil parent records nothing.
func (ct *CachedTower) EnsureHeightTablesTraced(tables MemberTables, height int, parent *obs.ActiveSpan) error {
	// Tower.extend publishes a level only once its root-carrier table
	// is built, so a published height can be read without ct.mu.
	if ct.tower.Height() >= height {
		return nil
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	from := ct.tower.Height()
	if from >= height {
		return nil
	}
	span := parent.Child("chromatic.tower_extend",
		"from", strconv.Itoa(from), "to", strconv.Itoa(height))
	for ct.tower.Height() < height {
		if err := ct.tower.extend(tables); err != nil {
			span.End()
			return err
		}
	}
	span.End()
	if ct.cache != nil {
		ct.cache.resize(ct)
	}
	return nil
}
