package store

// Fuzz targets for the store's on-disk formats: the manifest with its
// data file, and a single block payload. Both check the same
// properties: no input panics, every failed read wraps ErrCorrupt, and
// merging a valid shard into the store either lands the shard or fails
// with a corruption, conflict or kind error and leaves the store's
// files as they were. Seed corpora live under testdata/fuzz/; the
// targets add real n=3 stores as further seeds.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/census"
)

// seedStore builds a small n=3 store and returns its manifest and data
// bytes.
func seedStore(f *testing.F, opts census.Options, blockEntries int) (man, data []byte) {
	f.Helper()
	dir := f.TempDir()
	path := filepath.Join(dir, "shard.jsonl")
	sink, err := census.NewJSONLSink(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := census.Stream(3, opts, sink); err != nil {
		f.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	st, err := Create(filepath.Join(dir, "store"), 3)
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Merge([]string{path}, MergeOptions{BlockEntries: blockEntries}); err != nil {
		f.Fatal(err)
	}
	if man, err = os.ReadFile(filepath.Join(dir, "store", manifestName)); err != nil {
		f.Fatal(err)
	}
	if data, err = os.ReadFile(filepath.Join(dir, "store", st.man.DataFile)); err != nil {
		f.Fatal(err)
	}
	return man, data
}

// seedShard sweeps n=3 indices [40, 60), just past the seed stores,
// and returns the JSONL shard's bytes.
func seedShard(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "shard.jsonl")
	sink, err := census.NewJSONLSink(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := census.SweepRange(3, census.Options{Workers: 1}, sink, 40, 60); err != nil {
		f.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// checkCorrupt fails the fuzz run on a read error that is not
// corruption.
func checkCorrupt(t *testing.T, op string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: %v, want nil or ErrCorrupt", op, err)
	}
}

// exerciseStore runs every read path over an open store: Get across
// the domain, LoadPresence, a paged Range walk and the deep check.
// Verify's semantic spot checks re-derive entries, which for solve
// stores or large n can run for as long as the fuzzed entries ask, so
// those get the physical pass only. Last it merges shard (see
// mergeShard).
func exerciseStore(t *testing.T, st *Store, shard []byte) {
	t.Helper()
	domain := adversary.CensusSize(st.N())
	for i := uint64(0); i < 64; i++ {
		_, _, err := st.Get(i * (domain / 64))
		checkCorrupt(t, "Get", err)
	}
	checkCorrupt(t, "LoadPresence", st.LoadPresence())
	for from, more := uint64(0), true; more; {
		page, err := st.Range(from, domain, 64)
		checkCorrupt(t, "Range", err)
		if err != nil {
			break
		}
		from, more = page.Next, page.More
	}
	if st.N() <= 3 && !st.SolveMode() {
		if _, err := st.Verify(VerifyOptions{SpotChecks: 2}); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	} else if _, _, _, _, err := st.verifyPhysical(&VerifyReport{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	mergeShard(t, st, shard)
}

// mergeShard merges a valid shard into the store in 8-entry blocks,
// the seed stores' size, so their full leading blocks are carried. A
// merge that succeeds must serve every shard line as it is; one that
// fails must wrap ErrCorrupt, ErrConflict or ErrKindMismatch and leave
// the store's files and manifest bytes as they were.
func mergeShard(t *testing.T, st *Store, shard []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	if err := os.WriteFile(path, shard, 0o644); err != nil {
		t.Fatal(err)
	}
	names, man, _ := storeFiles(t, st)
	_, err := st.Merge([]string{path}, MergeOptions{BlockEntries: 8})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrConflict) && !errors.Is(err, ErrKindMismatch) {
			t.Fatalf("Merge: %v, want ErrCorrupt, ErrConflict or ErrKindMismatch", err)
		}
		if gotNames, gotMan, _ := storeFiles(t, st); !slices.Equal(gotNames, names) || !bytes.Equal(gotMan, man) {
			t.Fatalf("failed Merge changed the store: files %v -> %v, manifest %q -> %q", names, gotNames, man, gotMan)
		}
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, line := range bytes.Split(bytes.TrimSpace(shard), []byte{'\n'}) {
		idx, err := entryIndex(line)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := st.getRawLocked(idx)
		if err != nil || !ok || !bytes.Equal(got, line) {
			t.Fatalf("after Merge, index %d: ok=%v err=%v, line %q, want %q", idx, ok, err, got, line)
		}
	}
}

// FuzzStoreOpen opens a store from fuzzed manifest and data bytes and
// drives every read path over it.
func FuzzStoreOpen(f *testing.F) {
	for _, orbits := range []bool{false, true} {
		man, data := seedStore(f, census.Options{Workers: 1, Orbits: orbits, MaxIndices: 40}, 8)
		f.Add(man, data)
	}
	shard := seedShard(f)
	f.Fuzz(func(t *testing.T, man, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
		// Open requires the data file its generation names; a manifest
		// that does not parse is refused before any data file is read.
		var hdr struct {
			Generation int `json:"generation"`
		}
		json.Unmarshal(man, &hdr)
		if err := os.WriteFile(filepath.Join(dir, dataFileName(hdr.Generation)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			checkCorrupt(t, "Open", err)
			return
		}
		defer st.Close()
		exerciseStore(t, st, shard)
	})
}

// FuzzBlockDecode writes one fuzzed block into a one-block n=3 store
// whose manifest carries the block's CRC, so inflate, line split and
// the lookup probe are all reached. A gzipped payload is stored as
// is; a plain one is compressed first, so its lines always reach the
// split. Every index is looked up twice: once on the first inflation,
// which parses every line, and again after an eviction, when the probe
// parses only the lines it visits. The answers must agree.
func FuzzBlockDecode(f *testing.F) {
	man, data := seedStore(f, census.Options{Workers: 1, MaxIndices: 12}, 0)
	shard := seedShard(f)
	var m manifest
	if err := json.Unmarshal(man, &m); err != nil {
		f.Fatal(err)
	}
	blk := data[m.Blocks[0].Offset : m.Blocks[0].Offset+m.Blocks[0].Size]
	f.Add(blk, true)
	if zr, err := gzip.NewReader(bytes.NewReader(blk)); err == nil {
		var plain bytes.Buffer
		if _, err := plain.ReadFrom(zr); err != nil {
			f.Fatal(err)
		}
		f.Add(plain.Bytes(), false)
	}
	f.Fuzz(func(t *testing.T, payload []byte, gzipped bool) {
		block := payload
		if !gzipped {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(payload)
			zw.Close()
			block = buf.Bytes()
		}
		// The manifest's range and count follow the payload's lines
		// when they inflate and parse, so the split and probe are
		// reached; otherwise they cover the whole domain.
		meta := blockMeta{First: 0, Last: adversary.CensusSize(3) - 1, Entries: 1,
			Size: int64(len(block)), CRC: crc32.ChecksumIEEE(block)}
		if zr, err := gzip.NewReader(bytes.NewReader(block)); err == nil {
			var plain bytes.Buffer
			if _, err := plain.ReadFrom(zr); err == nil {
				var lines [][]byte
				for _, line := range bytes.Split(plain.Bytes(), []byte{'\n'}) {
					if len(line) > 0 {
						lines = append(lines, line)
					}
				}
				meta.Entries = len(lines)
				if len(lines) > 0 {
					first, err1 := entryIndex(lines[0])
					last, err2 := entryIndex(lines[len(lines)-1])
					if err1 == nil && err2 == nil {
						meta.First, meta.Last = first, last
					}
				}
			}
		}
		dir := t.TempDir()
		writeManifest(t, dir, manifest{Version: formatVersion, N: 3, Generation: 1,
			DataFile: dataFileName(1), Blocks: []blockMeta{meta}})
		if err := os.WriteFile(filepath.Join(dir, dataFileName(1)), block, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			checkCorrupt(t, "Open", err)
			return
		}
		defer st.Close()

		domain := adversary.CensusSize(3)
		type answer struct {
			line   string
			ok     bool
			failed bool
		}
		lookupAll := func() []answer {
			out := make([]answer, domain)
			st.mu.Lock()
			defer st.mu.Unlock()
			for idx := uint64(0); idx < domain; idx++ {
				line, ok, err := st.getRawLocked(idx)
				checkCorrupt(t, "Get", err)
				out[idx] = answer{string(line), ok, err != nil}
			}
			return out
		}
		first := lookupAll()
		st.mu.Lock()
		clear(st.blockCache) // evict; the block stays parsed
		st.cacheOrder = st.cacheOrder[:0]
		st.mu.Unlock()
		if again := lookupAll(); !slices.Equal(first, again) {
			t.Fatalf("lookups after re-inflation disagree with the first parse")
		}
		_, err = st.Summary()
		checkCorrupt(t, "Summary", err)
		exerciseStore(t, st, shard)
	})
}

// lineSeeds returns real census lines of every kind a store holds —
// full, orbit, kset solve, task-stamped, and one PutNew wrote — each
// of which the line scan must answer itself.
func lineSeeds(f *testing.F) [][]byte {
	f.Helper()
	var lines [][]byte
	add := func(e *census.Entry) {
		b, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, b)
	}
	for _, opts := range []census.Options{{}, {Solve: true}, {Task: "consensus"}} {
		ex, err := census.NewExaminer(3, opts)
		if err != nil {
			f.Fatal(err)
		}
		for _, idx := range []uint64{0, 37, 100, 127} {
			e, err := ex.Examine(idx)
			if err != nil {
				f.Fatal(err)
			}
			add(&e)
		}
	}
	col := &census.Collector{}
	if _, err := census.Stream(3, census.Options{Workers: 1, Orbits: true, MaxIndices: 40}, col); err != nil {
		f.Fatal(err)
	}
	for i := range col.Entries {
		add(&col.Entries[i])
	}
	st, err := Create(filepath.Join(f.TempDir(), "store"), 3)
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	if _, err := st.PutNew(&col.Entries[1]); err != nil {
		f.Fatal(err)
	}
	st.mu.Lock()
	line, ok, err := st.getRawLocked(col.Entries[1].Index)
	st.mu.Unlock()
	if err != nil || !ok {
		f.Fatalf("PutNew line: ok=%v err=%v", ok, err)
	}
	return append(lines, line)
}

// FuzzLineScan holds the line scan to json.Unmarshal: for any bytes,
// entryIndex answers what unmarshaling into struct{Index uint64}
// answers and the merge probe what unmarshaling into lineProbe
// answers, in value and in error text.
func FuzzLineScan(f *testing.F) {
	for _, line := range lineSeeds(f) {
		var p lineProbe
		if !scanLine(line, &p, true) {
			f.Fatalf("the line scan declined a real census line: %s", line)
		}
		f.Add(line)
	}
	for _, s := range []string{
		// Keys Unmarshal matches to a field, or may: case-folded,
		// escaped, long s and Kelvin sign.
		`{"INDEX":5,"Orbit_Size":2,"SOLVED":true,"Task":"x"}`,
		`{"index":7}`, `{"index":1,"task":"y"}`, `{"index":1,"task":"a\"b"}`,
		"{\"index\":2,\"ta\u017fk\":\"z\",\"\u017folved\":true}", "{\"index\":3,\"tas\u212a\":\"k\"}",
		`{"index":4,"task":"é"}`, `{"ind\u0065x":5}`, `{"index":4,"task":"\u0041"}`,
		// Duplicates: the last wins, null keeps the field, a mistyped
		// one fails.
		`{"index":1,"index":2}`, `{"index":1,"index":null}`, `{"index":1,"index":true}`,
		`{"solved":true,"solved":null}`, `{"solved":true,"solved":false}`, `{"orbit_size":3,"orbit_size":"3"}`,
		`{"task":"a","task":null}`, `{"task":"a","task":1}`,
		// Literals a uint64 field refuses.
		`{"index":null}`, `{"index":-1}`, `{"index":1.0}`, `{"index":1e3}`, `{"index":18446744073709551616}`,
		`{"index":18446744073709551615}`, `{"index":"5"}`, `{"index":[5]}`, `{"solved":1}`,
		// Nesting, spacing and trailing bytes.
		`{"x":{"index":5},"index":2}`, `{"x":["}","{",{"index":9}],"index":2}`, `{"index":{"index":5}}`,
		` { "index" : 5 , "solved" : true } `, "{\"index\":5}\n", `{"index":5} x`, `{"index":5}{}`,
		`{}`, `{"index":5`,
		// Top-level values other than an object.
		`[1,2]`, `"index"`, `null`, `5`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		idx, err := entryIndex(line)
		var e struct {
			Index uint64 `json:"index"`
		}
		werr := json.Unmarshal(line, &e)
		if fmt.Sprint(err) != fmt.Sprint(werr) || (werr == nil && idx != e.Index) {
			t.Fatalf("entryIndex(%q) = %d, %v; json.Unmarshal: %d, %v", line, idx, err, e.Index, werr)
		}
		p, err := probeLine(line)
		var want lineProbe
		werr = json.Unmarshal(line, &want)
		if fmt.Sprint(err) != fmt.Sprint(werr) || (werr == nil && p != want) {
			t.Fatalf("probeLine(%q) = %+v, %v; json.Unmarshal: %+v, %v", line, p, err, want, werr)
		}
	})
}
