package store

// Tests for the block read path: manifests whose block metadata cannot
// describe real data are refused at Open; point lookups into blocks
// re-inflated after an eviction, which parse only the lines their
// binary search visits, answer exactly what the census shard holds; a
// malformed line is caught on a block's first inflation whether or not
// a lookup probes it; and cold reads stay race-free under mixed load.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/census"
)

func readManifest(t *testing.T, dir string) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeManifest(t *testing.T, dir string, m manifest) {
	t.Helper()
	b, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsImpossibleBlocks: block metadata no store can hold is
// corruption at Open, before any read could size a buffer from it.
func TestOpenRejectsImpossibleBlocks(t *testing.T) {
	dir := t.TempDir()
	st, want := buildStore(t, dir, 3, census.Options{Workers: 1})
	st.Close()
	storeDir := filepath.Join(dir, "store-n3")
	good := readManifest(t, storeDir)

	cases := []struct {
		name string
		edit func(m *manifest)
	}{
		{"negative offset", func(m *manifest) { m.Blocks[0].Offset = -1 }},
		{"negative size", func(m *manifest) { m.Blocks[0].Size = -5 }},
		{"negative entries", func(m *manifest) { m.Blocks[0].Entries = -1 }},
		{"offset+size overflows", func(m *manifest) { m.Blocks[0].Offset, m.Blocks[0].Size = 1, math.MaxInt64 }},
		{"more entries than the size inflates to", func(m *manifest) { m.Blocks[0].Entries = 1 << 40 }},
		{"data file outside the store", func(m *manifest) { m.DataFile = "../escape.dat" }},
		{"data file is the manifest", func(m *manifest) { m.DataFile = manifestName }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := good
			m.Blocks = append([]blockMeta(nil), good.Blocks...)
			tc.edit(&m)
			writeManifest(t, storeDir, m)
			s, err := Open(storeDir)
			if err == nil {
				// What acceptance leads to: reads sized from the block.
				_, _, gerr := s.Get(want[0].Index)
				perr := s.LoadPresence()
				s.Close()
				t.Fatalf("Open accepted the manifest (Get: %v, LoadPresence: %v)", gerr, perr)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want ErrCorrupt", err)
			}
		})
	}

	writeManifest(t, storeDir, good)
	s, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, ok, err := s.Get(want[0].Index); err != nil || !ok || mustJSON(t, got) != mustJSON(t, &want[0]) {
		t.Fatalf("restored manifest: Get = %v, %v", ok, err)
	}
}

// TestOutOfDomainIndices: an index past the n-domain is a miss for Get
// with a presence filter armed, a refused write for PutNew, and
// corruption for the presence walk when a block holds one.
func TestOutOfDomainIndices(t *testing.T) {
	dir := t.TempDir()
	st, want := buildStore(t, dir, 3, census.Options{Workers: 1, MaxIndices: 16})
	if err := st.LoadPresence(); err != nil {
		t.Fatal(err)
	}
	domain := adversary.CensusSize(3)
	if _, ok, err := st.Get(domain + 64); err != nil || ok {
		t.Fatalf("Get past the domain: ok=%v err=%v", ok, err)
	}
	e := want[0]
	e.Index = domain
	if _, err := st.PutNew(&e); err == nil {
		t.Fatal("PutNew accepted an index past the domain")
	}

	shard := filepath.Join(dir, "beyond.jsonl")
	if err := os.WriteFile(shard, []byte(mustJSON(t, &e)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := Create(filepath.Join(dir, "beyond"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Merge([]string{shard}, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := bad.LoadPresence(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadPresence over an index past the domain: %v, want ErrCorrupt", err)
	}
}

// TestLoadPresencePool: LoadPresence checks blocks on the merge's
// worker pool and lands them in manifest order, so with later blocks
// in flight it returns the error of the first failing block: an index
// past the domain in block k wins over a broken CRC in block k+3, and
// the broken CRC alone is that block's corruption. A clean load marks
// every block parsed and leaves no goroutine behind, while Gets from
// four goroutines run alongside it and answer.
func TestLoadPresencePool(t *testing.T) {
	const blockEntries, k = 8, 40
	dir := t.TempDir()
	sweep, entries := sweepShard(t, dir, 640)
	lines := jsonLines(t, sweep)
	var clean [][][]byte
	for lo := 0; lo < len(lines); lo += blockEntries {
		clean = append(clean, lines[lo:lo+blockEntries])
	}
	beyond := entries[(k+1)*blockEntries-1]
	beyond.Index = adversary.CensusSize(4) + 5
	outside := slices.Clone(clean)
	outside[k] = slices.Clone(clean[k])
	outside[k][blockEntries-1] = []byte(mustJSON(t, &beyond))

	// load writes the blocks, breaks the manifest CRC of block broken
	// (if any), and runs fn alongside LoadPresence on the opened store.
	// Every goroutine the load started must be gone when it returns.
	load := func(t *testing.T, groups [][][]byte, broken int, fn func(st *Store)) (*Store, []blockMeta, error) {
		t.Helper()
		storeDir := filepath.Join(t.TempDir(), "store")
		rows := handStore(t, storeDir, gzip.DefaultCompression, groups)
		if len(rows) < 64 {
			t.Fatalf("%d blocks, want at least 64", len(rows))
		}
		if broken >= 0 {
			m := readManifest(t, storeDir)
			m.Blocks[broken].CRC ^= 1
			writeManifest(t, storeDir, m)
		}
		st, err := Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		goroutines := runtime.NumGoroutine()
		var wg sync.WaitGroup
		if fn != nil {
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fn(st)
				}()
			}
		}
		err = st.LoadPresence()
		wg.Wait()
		// Exited goroutines leave the count a moment after they signal.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after LoadPresence, %d before", runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}
		return st, rows, err
	}

	t.Run("first failure in manifest order", func(t *testing.T) {
		_, rows, err := load(t, outside, k+3, nil)
		want := fmt.Sprintf("%v: block at %d: entry index %d beyond the n=4 domain", ErrCorrupt, rows[k].Offset, beyond.Index)
		if !errors.Is(err, ErrCorrupt) || err.Error() != want {
			t.Fatalf("LoadPresence: %v, want %q", err, want)
		}
	})

	t.Run("broken CRC", func(t *testing.T) {
		_, rows, err := load(t, clean, k+3, nil)
		want := fmt.Sprintf("%v: block at %d: crc ", ErrCorrupt, rows[k+3].Offset)
		if !errors.Is(err, ErrCorrupt) || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("LoadPresence: %v, want %q...", err, want)
		}
	})

	t.Run("clean", func(t *testing.T) {
		st, rows, err := load(t, clean, -1, func(st *Store) {
			for i := range entries {
				e, ok, err := st.Get(entries[i].Index)
				if err != nil || !ok {
					t.Errorf("Get(%d): ok=%v err=%v", entries[i].Index, ok, err)
					return
				}
				if got, err := json.Marshal(e); err != nil || !bytes.Equal(got, lines[i]) {
					t.Errorf("Get(%d) = %s, %v; want %s", entries[i].Index, got, err, lines[i])
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		for _, b := range rows {
			if _, ok := st.parsedBlocks[b.Offset]; !ok {
				t.Errorf("block at %d not marked parsed", b.Offset)
			}
		}
		st.mu.Unlock()
		if _, ok, err := st.Get(adversary.CensusSize(4) - 1); ok || err != nil || st.PresenceSkips() == 0 {
			t.Fatalf("Get past the stored range: ok=%v err=%v, %d presence skips", ok, err, st.PresenceSkips())
		}
		checkProbeParses(t, st, blockEntries)
	})
}

// TestColdLookupOracle answers every index of the n=4 domain twice from
// stores with more blocks than the cache, in an order that evicts
// constantly: the first pass parses each block whole, later
// re-inflations parse only what the probe visits. Every hit must be the
// shard's line, every withheld index a miss, at every block size.
func TestColdLookupOracle(t *testing.T) {
	dir := t.TempDir()
	full, want := censusJSONL(t, dir, "full.jsonl", 4, census.Options{Workers: 2})
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(raw)
	domain := uint64(len(lines))
	// Every 4099th index comes back through PutNew as a one-entry block
	// inside a merged block's range; every 89th stays absent.
	putBack := func(i uint64) bool { return i%4099 == 5 }
	absent := func(i uint64) bool { return i%89 == 3 && !putBack(i) }
	var kept []byte
	for i, line := range lines {
		if !putBack(uint64(i)) && !absent(uint64(i)) {
			kept = append(append(kept, line...), '\n')
		}
	}
	shard := filepath.Join(dir, "kept.jsonl")
	if err := os.WriteFile(shard, kept, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, be := range []int{1, 7, DefaultBlockEntries} {
		st, err := Create(filepath.Join(dir, fmt.Sprintf("store-%d", be)), 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Merge([]string{shard}, MergeOptions{BlockEntries: be}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if putBack(want[i].Index) {
				if added, err := st.PutNew(&want[i]); err != nil || !added {
					t.Fatalf("B=%d: PutNew(%d): added=%v err=%v", be, want[i].Index, added, err)
				}
			}
		}
		if blocks := st.Stats().Blocks; blocks <= blockCacheSize {
			t.Fatalf("B=%d: %d blocks fit the %d-block cache", be, blocks, blockCacheSize)
		}
		// Each pass visits B-index chunks in a strided order that leaves
		// the cache behind (7919 is prime and the chunk counts are
		// coprime to it), and each chunk's indices in turn: a chunk's
		// first lookup re-inflates its block, the rest probe the
		// partly parsed cached copy.
		size := uint64(be)
		chunks := (domain + size - 1) / size
		for pass := 0; pass < 2; pass++ {
			for k := uint64(0); k < chunks; k++ {
				c := k * 7919 % chunks
				for idx := c * size; idx < min(c*size+size, domain); idx++ {
					got, ok, err := st.Get(idx)
					if err != nil {
						t.Fatalf("B=%d pass %d: Get(%d): %v", be, pass, idx, err)
					}
					if absent(idx) {
						if ok {
							t.Fatalf("B=%d pass %d: absent index %d answered", be, pass, idx)
						}
						continue
					}
					if !ok {
						t.Fatalf("B=%d pass %d: index %d missing", be, pass, idx)
					}
					if g := mustJSON(t, got); g != string(lines[idx]) {
						t.Fatalf("B=%d pass %d: index %d = %s, shard holds %s", be, pass, idx, g, lines[idx])
					}
				}
			}
		}
		checkProbeParses(t, st, be)
		st.Close()
	}
}

// checkProbeParses re-inflates one fully parsed block that the cache
// no longer holds and checks that a lookup into it parsed at most
// ⌈log₂ B⌉+1 of its B lines.
func checkProbeParses(t *testing.T, st *Store, be int) {
	t.Helper()
	st.mu.Lock()
	j := -1
	for k, b := range st.man.Blocks {
		_, cached := st.blockCache[b.Offset]
		_, parsed := st.parsedBlocks[b.Offset]
		if b.Entries == be && !cached && parsed {
			j = k
			break
		}
	}
	if j < 0 {
		st.mu.Unlock()
		t.Fatalf("B=%d: no evicted, parsed block of %d entries", be, be)
	}
	b := st.man.Blocks[j]
	st.mu.Unlock()
	if _, ok, err := st.Get(b.First + (b.Last-b.First)/2); err != nil {
		t.Fatalf("B=%d: %v", be, err)
	} else if b.First == b.Last && !ok {
		t.Fatalf("B=%d: index %d missing", be, b.First)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	parsed := 0
	for _, e := range st.blockCache[b.Offset] {
		if e.parsed {
			parsed++
		}
	}
	if limit := bits.Len(uint(be-1)) + 1; parsed > limit {
		t.Fatalf("B=%d: a re-inflated block's lookup parsed %d lines, limit %d", be, parsed, limit)
	}
}

// TestParseOnceGuarantee: a malformed line where the binary search
// never looks is still corruption on the block's first inflation, for
// point lookups and every whole-block walker alike.
func TestParseOnceGuarantee(t *testing.T) {
	dir := t.TempDir()
	st, want := buildStore(t, dir, 3, census.Options{Workers: 1})
	st.Close()
	storeDir := filepath.Join(dir, "store-n3")

	// Re-merge into 16-entry blocks, then rewrite block 2 with its last
	// line broken. A lookup of the block's first index probes lines
	// 8, 4, 2, 1, 0 and never line 15.
	st, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Merge(nil, MergeOptions{BlockEntries: 16}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	m := readManifest(t, storeDir)
	const j = 2
	target := m.Blocks[j].First
	dataPath := filepath.Join(storeDir, m.DataFile)
	data, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for i := range want {
		if want[i].Index >= m.Blocks[j].First && want[i].Index <= m.Blocks[j].Last {
			lines = append(lines, []byte(mustJSON(t, &want[i])))
		}
	}
	if len(lines) != 16 {
		t.Fatalf("block %d holds %d lines, want 16", j, len(lines))
	}
	lines[15] = []byte(`{"index": oops`)
	var blk bytes.Buffer
	zw := gzip.NewWriter(&blk)
	for _, line := range lines {
		zw.Write(append(line, '\n'))
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	m.Blocks[j].Offset = int64(len(data))
	m.Blocks[j].Size = int64(blk.Len())
	m.Blocks[j].CRC = crc32.ChecksumIEEE(blk.Bytes())
	if err := os.WriteFile(dataPath, append(data, blk.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, storeDir, m)

	ops := []struct {
		name string
		run  func(s *Store) error
	}{
		{"Get", func(s *Store) error {
			_, _, err := s.Get(target)
			return err
		}},
		{"LoadPresence", func(s *Store) error { return s.LoadPresence() }},
		{"Range", func(s *Store) error {
			_, err := s.Range(0, adversary.CensusSize(3), 1000)
			return err
		}},
		{"Summary", func(s *Store) error {
			_, err := s.Summary()
			return err
		}},
		{"Merge", func(s *Store) error {
			_, err := s.Merge(nil, MergeOptions{})
			return err
		}},
	}
	for _, op := range ops {
		s, err := Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: a block that failed its first parse is never cached
		// as parsed.
		for try := 0; try < 2; try++ {
			if err := op.run(s); !errors.Is(err, ErrCorrupt) {
				s.Close()
				t.Fatalf("%s (try %d): %v, want ErrCorrupt", op.name, try, err)
			}
		}
		s.Close()
	}

	s, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Other blocks still answer.
	if got, ok, err := s.Get(want[0].Index); err != nil || !ok || mustJSON(t, got) != mustJSON(t, &want[0]) {
		t.Fatalf("block 0: Get = %v, %v", ok, err)
	}
	rep, err := s.Verify(VerifyOptions{SpotChecks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("a malformed line passed verification")
	}
}

// TestColdReadsConcurrent runs point lookups, range pages, summaries
// and write-backs from many goroutines against one store with more
// blocks than the cache, so memoized indices, the shared inflate state
// and re-inflation of parsed blocks all meet under -race.
func TestColdReadsConcurrent(t *testing.T) {
	dir := t.TempDir()
	full, want := censusJSONL(t, dir, "full.jsonl", 3, census.Options{Workers: 1})
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(raw)
	domain := uint64(len(lines))
	withheld := func(i uint64) bool { return i%4 == 1 }
	var kept []byte
	var missing []uint64
	for i, line := range lines {
		if withheld(uint64(i)) {
			missing = append(missing, uint64(i))
		} else {
			kept = append(append(kept, line...), '\n')
		}
	}
	shard := filepath.Join(dir, "kept.jsonl")
	if err := os.WriteFile(shard, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Merge([]string{shard}, MergeOptions{BlockEntries: 2}); err != nil {
		t.Fatal(err)
	}
	if blocks := st.Stats().Blocks; blocks <= blockCacheSize {
		t.Fatalf("%d blocks fit the %d-block cache", blocks, blockCacheSize)
	}
	if err := st.LoadPresence(); err != nil {
		t.Fatal(err)
	}
	orbits := adversary.NewOrbits(3)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			switch w % 4 {
			case 0:
				err = lookupAll(st, orbits, lines, withheld, uint64(2*w+1))
			case 1:
				err = rangeAll(st, lines, withheld, w+1)
			case 2:
				for i := 0; i < 4 && err == nil; i++ {
					var sum census.Summary
					if sum, err = st.Summary(); err == nil && (sum.Total < domain*3/4 || sum.Total > domain) {
						err = fmt.Errorf("summary total %d outside [%d, %d]", sum.Total, domain*3/4, domain)
					}
				}
			default:
				for k := w / 4; k < len(missing) && err == nil; k += workers / 4 {
					_, err = st.PutNew(&want[missing[k]])
				}
			}
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := lookupAll(st, orbits, lines, func(uint64) bool { return false }, 1); err != nil {
		t.Fatal(err)
	}
}

// lookupAll resolves every index through Lookup in a strided order: a
// hit, direct or rehydrated, must be the full sweep's line; only a
// withheld index may miss.
func lookupAll(st *Store, orbits *adversary.Orbits, lines [][]byte, withheld func(uint64) bool, stride uint64) error {
	domain := uint64(len(lines))
	for i := uint64(0); i < domain; i++ {
		idx := i * stride % domain
		e, src, err := st.Lookup(idx, orbits)
		if err != nil {
			return err
		}
		if src == LookupMiss {
			if !withheld(idx) {
				return fmt.Errorf("index %d missing", idx)
			}
			continue
		}
		got, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, lines[idx]) {
			return fmt.Errorf("index %d (source %d) = %s, want %s", idx, src, got, lines[idx])
		}
	}
	return nil
}

// rangeAll pages through the whole store: lines in strictly increasing
// index order, each the full sweep's, and every index not withheld
// present.
func rangeAll(st *Store, lines [][]byte, withheld func(uint64) bool, limit int) error {
	domain := uint64(len(lines))
	next := uint64(0)
	for from, more := uint64(0), true; more; {
		page, err := st.Range(from, domain, limit)
		if err != nil {
			return err
		}
		for i, idx := range page.Indices {
			if !bytes.Equal(page.Lines[i], lines[idx]) {
				return fmt.Errorf("range index %d = %s, want %s", idx, page.Lines[i], lines[idx])
			}
			for ; next < idx; next++ {
				if !withheld(next) {
					return fmt.Errorf("range skipped index %d", next)
				}
			}
			next = idx + 1
		}
		from, more = page.Next, page.More
	}
	for ; next < domain; next++ {
		if !withheld(next) {
			return fmt.Errorf("range skipped index %d", next)
		}
	}
	return nil
}
