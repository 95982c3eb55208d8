package fabric

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/census"
	"repro/internal/store"
)

// FuzzValidateShard feeds fuzzed uploads to the coordinator's shard
// check for one 2-rank unit of a full n=3 campaign. No input panics,
// every rejection wraps ErrInvalidShard, and when an accepted shard
// merges into a fresh store, both of the unit's indices read back
// through Store.Get.
func FuzzValidateShard(f *testing.F) {
	unit := Unit{Lo: 0, Hi: 2, Ranks: 2}
	dir := f.TempDir()
	path := filepath.Join(dir, "unit.jsonl.gz")
	sink, err := census.NewJSONLSinkCompressed(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := census.SweepRange(3, census.Options{Workers: 1}, sink, unit.Lo, unit.Hi); err != nil {
		f.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	shard, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(shard))
	if err != nil {
		f.Fatal(err)
	}
	plain, err := io.ReadAll(gz)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(plain, []byte("\n"))
	var e census.Entry
	if err := json.Unmarshal(lines[1], &e); err != nil {
		f.Fatal(err)
	}
	e.Index = unit.Hi
	outside, err := json.Marshal(&e)
	if err != nil {
		f.Fatal(err)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	nl := []byte("\n")

	f.Add(shard)
	f.Add(shard[:len(shard)/2]) // truncated gzip
	f.Add(plain)
	f.Add([]byte(`{"index":0,"setcon":"x"}` + "\n" + `{"index":1,"live_set_masks":7}` + "\n"))
	f.Add(join(lines[0], outside, nl))                  // index outside the unit
	f.Add(join(lines[0], lines[0]))                     // duplicate index
	f.Add(join(nl, lines[0], nl, nl, lines[1], nl, nl)) // blank lines

	f.Fuzz(func(t *testing.T, upload []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "upload.jsonl")
		if err := os.WriteFile(path, upload, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := validateShard(path, unit); err != nil {
			if !errors.Is(err, ErrInvalidShard) {
				t.Fatalf("rejection %v does not wrap ErrInvalidShard", err)
			}
			return
		}
		st, err := store.Create(filepath.Join(dir, "store"), 3)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Merge([]string{path}, store.MergeOptions{}); err != nil {
			return
		}
		for idx := unit.Lo; idx < unit.Hi; idx++ {
			got, ok, err := st.Get(idx)
			if err != nil || !ok || got.Index != idx {
				t.Fatalf("merged index %d reads back as (%v, %v, %v)", idx, got, ok, err)
			}
		}
	})
}
