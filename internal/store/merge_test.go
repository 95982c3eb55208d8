package store

// Tests for the merge write path: the bytes of every generation a
// sequence of merges and write-backs produces are pinned, and blocks
// a merge carries over unchanged are checked like any other stored
// block.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/census"
)

// sweepShard sweeps the n=4 census over [0, hi) into a JSONL file and
// returns its path and entries.
func sweepShard(t testing.TB, dir string, hi uint64) (string, []census.Entry) {
	t.Helper()
	path := filepath.Join(dir, "sweep.jsonl")
	sink, err := census.NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	col := &census.Collector{}
	if _, err := census.SweepRange(4, census.Options{Workers: 1}, teeSink{sink, col}, 0, hi); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return path, col.Entries
}

// writeStep is one write of a pinned sequence: a merge of the shards
// cut from lines [lo, hi) of the sweep, or, with put set, a PutNew of
// each entry in [lo, hi).
type writeStep struct {
	ranges [][2]int
	put    bool
}

func mergeStep(ranges ...[2]int) writeStep { return writeStep{ranges: ranges} }
func putStep(lo, hi int) writeStep         { return writeStep{ranges: [][2]int{{lo, hi}}, put: true} }

// TestMergeSequenceBytes pins the sha256 of MANIFEST.json and of the
// data file after every write of several merge sequences, at three
// block sizes. The digests were recorded with a merge that re-encoded
// every stored block, so they hold the carried-over blocks to the
// bytes a full rewrite produces.
func TestMergeSequenceBytes(t *testing.T) {
	dir := t.TempDir()
	sweep, entries := sweepShard(t, dir, 640)
	cuts := []int{0, 100, 290, 400, 530, 640}
	unit := func(i int) [2]int { return [2]int{cuts[i], cuts[i+1]} }
	sequences := []struct {
		name  string
		steps []writeStep
	}{
		{"in-order", []writeStep{mergeStep(unit(0)), mergeStep(unit(1)), mergeStep(unit(2)), mergeStep(unit(3)), mergeStep(unit(4))}},
		{"reverse", []writeStep{mergeStep(unit(4)), mergeStep(unit(3)), mergeStep(unit(2)), mergeStep(unit(1)), mergeStep(unit(0))}},
		{"shuffled", []writeStep{mergeStep(unit(2)), mergeStep(unit(4)), mergeStep(unit(0)), mergeStep(unit(3)), mergeStep(unit(1))}},
		{"overlapping", []writeStep{
			mergeStep([2]int{0, 300}), mergeStep([2]int{250, 420}),
			mergeStep([2]int{100, 200}, [2]int{150, 500}), mergeStep([2]int{480, 640}), mergeStep([2]int{0, 640}),
		}},
		{"put-new-prefix", []writeStep{
			mergeStep([2]int{0, 260}), putStep(260, 262), putStep(275, 276), mergeStep([2]int{300, 420}),
			putStep(630, 631), mergeStep([2]int{420, 640}), mergeStep([2]int{0, 640}),
		}},
	}
	want := map[string]string{
		"in-order/B=1":         "9e0c62d719ed3f17ec5a7d1e64b85567509ad117660cbb1e2bb0ac840f31a69b",
		"in-order/B=7":         "448fd9da7d39045409f8c2b2f71ffdf7bdcf020414303ae74ca501979392e8e4",
		"in-order/B=256":       "99cfef79516565adc84647ee441fd85d191f34dcddc697ec5465a8cc8a8af5a7",
		"reverse/B=1":          "820997950600fa38d57e2519990990303c2e03113aea221696be93b5c543c972",
		"reverse/B=7":          "26aab4ce0f94f65532b28f633215fa80d32c90b44941e85bd248ecb455d2e0dd",
		"reverse/B=256":        "0fd28c0ebcd119903f01fa54b752d891a73bb828e7273245755825f172529a67",
		"shuffled/B=1":         "c61eabf55f32ad3327c9964d1c7ab18d7246164b2b85e467f2eb8af7943cce63",
		"shuffled/B=7":         "f86927e0ea2eb1f103a123dc8fb413dceeae799a0768181bc775fe5262a91d33",
		"shuffled/B=256":       "b339d74eb0b9f574f9efc8b2ea18e838d19c03ab5550df17943b5ef2fb6b8d06",
		"overlapping/B=1":      "733d82130adb23cb1bab57b528568d14256be8574ffa18a8ef2faf62fdae0905",
		"overlapping/B=7":      "ea5f43a70900ab295fdcd215fe507a9cccda452ba7d3f3243ce7e693d167f7b7",
		"overlapping/B=256":    "9a2e7ff414eed75064b7e39ca44881f913f87f13a058466f0a7101069a273fdf",
		"put-new-prefix/B=1":   "f98046044dacd322a9fbb031795b179675c87847d4415a9aae825773a98f78d8",
		"put-new-prefix/B=7":   "bc7de95598b39da38657e5c75576c55507825886903fe3465bb9a4788c40cbbf",
		"put-new-prefix/B=256": "9dc9b3a81e69b4de0577b33487b50b647f93fac20b57371e1bc2444e63be3624",
	}
	for _, seq := range sequences {
		for _, b := range []int{1, 7, 256} {
			name := fmt.Sprintf("%s/B=%d", seq.name, b)
			t.Run(name, func(t *testing.T) {
				sdir := t.TempDir()
				st, err := Create(filepath.Join(sdir, "store"), 4)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				digest := sha256.New()
				for i, step := range seq.steps {
					if step.put {
						for k := step.ranges[0][0]; k < step.ranges[0][1]; k++ {
							if _, err := st.PutNew(&entries[k]); err != nil {
								t.Fatalf("step %d: PutNew(%d): %v", i, k, err)
							}
						}
					} else {
						var shards []string
						for j, r := range step.ranges {
							shards = append(shards, splitJSONL(t, sweep, filepath.Join(sdir, fmt.Sprintf("s%d-%d.jsonl", i, j)), r[0], r[1]))
						}
						if _, err := st.Merge(shards, MergeOptions{BlockEntries: b}); err != nil {
							t.Fatalf("step %d: merge: %v", i, err)
						}
					}
					t.Logf("step %d: %s", i, fileDigests(t, digest, filepath.Join(sdir, "store"), st.man.DataFile))
				}
				if got := hex.EncodeToString(digest.Sum(nil)); got != want[name] {
					t.Errorf("sequence digest %s, pinned %s", got, want[name])
				}
			})
		}
	}
}

// fileDigests feeds the sha256 of the store's manifest and data file
// into digest and returns them for the log.
func fileDigests(t *testing.T, digest hash.Hash, dir, dataFile string) string {
	t.Helper()
	var out string
	for _, name := range []string{manifestName, dataFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		digest.Write(sum[:])
		out += fmt.Sprintf(" %s=%x", name, sum[:8])
	}
	return out
}

// handStore writes a generation-1 n=4 store of full-sweep entries
// whose blocks hold the given line groups, each compressed at the
// given gzip level, and returns its rows.
func handStore(t *testing.T, dir string, level int, groups [][][]byte) []blockMeta {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var data []byte
	var rows []blockMeta
	for _, lines := range groups {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			zw.Write(append(append([]byte(nil), line...), '\n'))
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		first, err1 := entryIndex(lines[0])
		last, err2 := entryIndex(lines[len(lines)-1])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		rows = append(rows, blockMeta{First: first, Last: last, Entries: len(lines),
			Offset: int64(len(data)), Size: int64(buf.Len()), CRC: crc32.ChecksumIEEE(buf.Bytes())})
		data = append(data, buf.Bytes()...)
	}
	if err := os.WriteFile(filepath.Join(dir, dataFileName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, manifest{Version: formatVersion, N: 4, EntryKind: kindFull,
		Generation: 1, DataFile: dataFileName(1), Blocks: rows})
	return rows
}

// jsonLines returns the sweep file's lines.
func jsonLines(t *testing.T, path string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return splitLines(b)
}

// TestMergeCarriesPrefixBytes: leading blocks written at BestSpeed,
// which a merge's own compression never produces, keep their bytes and
// rows through a merge of a later shard, so they were carried, not
// re-encoded. The rewrite starts at the first partial block, and the
// full block after it is re-cut with the shard's lines.
func TestMergeCarriesPrefixBytes(t *testing.T) {
	dir := t.TempDir()
	sweep, entries := sweepShard(t, dir, 200)
	lines := jsonLines(t, sweep)
	storeDir := filepath.Join(dir, "store")
	rows := handStore(t, storeDir, gzip.BestSpeed, [][][]byte{
		lines[0:16], lines[16:32], lines[32:40], lines[40:56],
	})
	old, err := os.ReadFile(filepath.Join(storeDir, dataFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Merge([]string{splitJSONL(t, sweep, filepath.Join(dir, "late.jsonl"), 56, 200)}, MergeOptions{BlockEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != 200 || stats.Added != 144 || stats.Duplicates != 0 {
		t.Fatalf("merge stats %+v, want total=200 added=144", stats)
	}
	data, err := os.ReadFile(filepath.Join(storeDir, st.man.DataFile))
	if err != nil {
		t.Fatal(err)
	}
	for j, row := range rows {
		carried := j < 2
		if got := st.man.Blocks[j] == row; got != carried {
			t.Errorf("block %d: row %+v, hand-written %+v; want carried=%v", j, st.man.Blocks[j], row, carried)
		}
		if got := bytes.Equal(data[row.Offset:row.Offset+row.Size], old[row.Offset:row.Offset+row.Size]); got != carried {
			t.Errorf("block %d: bytes kept=%v, want %v", j, got, carried)
		}
	}
	var fresh bytes.Buffer
	zw := gzip.NewWriter(&fresh)
	for _, line := range lines[0:16] {
		zw.Write(append(append([]byte(nil), line...), '\n'))
	}
	zw.Close()
	if bytes.Equal(fresh.Bytes(), old[:rows[0].Size]) {
		t.Fatal("a default-level rewrite would reproduce the BestSpeed bytes; the test proves nothing")
	}
	for i := range entries {
		if e, ok, err := st.Get(entries[i].Index); err != nil || !ok || mustJSON(t, e) != mustJSON(t, &entries[i]) {
			t.Fatalf("Get(%d) after the merge: ok=%v err=%v", entries[i].Index, ok, err)
		}
	}
}

// storeFiles returns the store directory's file names and the bytes
// of its manifest and data file.
func storeFiles(t *testing.T, st *Store) (names []string, man, data []byte) {
	t.Helper()
	des, err := os.ReadDir(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		names = append(names, de.Name())
	}
	if man, err = os.ReadFile(filepath.Join(st.dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(filepath.Join(st.dir, st.man.DataFile)); err != nil {
		t.Fatal(err)
	}
	return names, man, data
}

// failMerge runs a merge that must fail with target and checks that it
// failed cleanly: no new generation file, the manifest and data bytes
// unchanged, the store still readable and verifiable, and no goroutine
// left behind.
func failMerge(t *testing.T, st *Store, shards []string, b int, target error, entries []census.Entry) error {
	t.Helper()
	names, man, data := storeFiles(t, st)
	goroutines := runtime.NumGoroutine()
	_, err := st.Merge(shards, MergeOptions{BlockEntries: b})
	if !errors.Is(err, target) {
		t.Fatalf("merge: err=%v, want %v", err, target)
	}
	gotNames, gotMan, gotData := storeFiles(t, st)
	if !slices.Equal(gotNames, names) || !bytes.Equal(gotMan, man) || !bytes.Equal(gotData, data) {
		t.Fatalf("failed merge changed the store: files %v -> %v, manifest or data bytes differ", names, gotNames)
	}
	for i := range entries {
		if e, ok, err := st.Get(entries[i].Index); err != nil || !ok || mustJSON(t, e) != mustJSON(t, &entries[i]) {
			t.Fatalf("Get(%d) after the failed merge: ok=%v err=%v", entries[i].Index, ok, err)
		}
	}
	// Exited goroutines leave the count a moment after they signal.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed merge, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	return err
}

// TestMergeFailuresAreClean: a conflict on a shard's last line, after
// every other block went to the pool, and a corrupt block in the
// carried prefix each fail the merge and leave the store as it was.
func TestMergeFailuresAreClean(t *testing.T) {
	dir := t.TempDir()
	sweep, entries := sweepShard(t, dir, 640)
	lines := jsonLines(t, sweep)
	st, err := Create(filepath.Join(dir, "store"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Merge([]string{sweep}, MergeOptions{BlockEntries: 16}); err != nil {
		t.Fatal(err)
	}

	t.Run("conflict on the last line", func(t *testing.T) {
		bad := entries[len(entries)-1]
		bad.CSize++
		shard := filepath.Join(dir, "conflict.jsonl")
		var out []byte
		for _, line := range lines[320 : len(lines)-1] {
			out = append(append(out, line...), '\n')
		}
		out = append(append(out, mustJSON(t, &bad)...), '\n')
		if err := os.WriteFile(shard, out, 0o644); err != nil {
			t.Fatal(err)
		}
		failMerge(t, st, []string{shard}, 16, ErrConflict, entries)
	})

	t.Run("corrupt carried block", func(t *testing.T) {
		// Damage block 5's bytes in place; its manifest CRC no longer
		// matches. Nothing reads it before the merge carries it.
		row := st.man.Blocks[5]
		f, err := os.OpenFile(filepath.Join(st.dir, st.man.DataFile), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]byte, 1)
		f.ReadAt(orig, row.Offset+row.Size/2)
		f.WriteAt([]byte{orig[0] ^ 0xff}, row.Offset+row.Size/2)
		defer func() {
			f.WriteAt(orig, row.Offset+row.Size/2)
			f.Close()
		}()
		shard := splitJSONL(t, sweep, filepath.Join(dir, "late.jsonl"), 600, 640)
		err = failMerge(t, st, []string{shard}, 16, ErrCorrupt, append(entries[:80:80], entries[96:]...))
		if !strings.Contains(err.Error(), "crc") {
			t.Errorf("merge: %v, want the CRC mismatch", err)
		}
	})
}

// TestMergeDisorderedStoredBlock: a stored block whose CRC matches but
// whose lines are out of order is corruption, whether the merge would
// carry it or re-cut it; an unsorted shard is the caller's error, not
// the store's.
func TestMergeDisorderedStoredBlock(t *testing.T) {
	dir := t.TempDir()
	sweep, entries := sweepShard(t, dir, 64)
	lines := jsonLines(t, sweep)
	swapped := slices.Clone(lines[16:32])
	swapped[3], swapped[4] = swapped[4], swapped[3]
	for _, tc := range []struct {
		name   string
		lo, hi int // shard lines
	}{
		{"carried", 48, 64},
		{"re-cut", 24, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			storeDir := filepath.Join(t.TempDir(), "store")
			handStore(t, storeDir, gzip.DefaultCompression, [][][]byte{lines[0:16], swapped, lines[32:48]})
			st, err := Open(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			shard := splitJSONL(t, sweep, filepath.Join(t.TempDir(), "shard.jsonl"), tc.lo, tc.hi)
			err = failMerge(t, st, []string{shard}, 16, ErrCorrupt, append(entries[:16:16], entries[32:48]...))
			if !strings.Contains(err.Error(), "not sorted by index") {
				t.Errorf("merge: %v, want the disorder named", err)
			}
		})
	}

	t.Run("unsorted shard", func(t *testing.T) {
		st, err := Create(filepath.Join(t.TempDir(), "store"), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		shard := filepath.Join(t.TempDir(), "unsorted.jsonl")
		out := bytes.Join([][]byte{lines[1], lines[0], nil}, []byte{'\n'})
		if err := os.WriteFile(shard, out, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = st.Merge([]string{shard}, MergeOptions{})
		want := "store: source unsorted.jsonl is not sorted by index (0 after 1)"
		if err == nil || err.Error() != want || errors.Is(err, ErrCorrupt) {
			t.Fatalf("merge: %v, want %q without ErrCorrupt", err, want)
		}
	})
}

// TestDisorderedStoredBlockReads: the reads refuse the disordered
// stored block of TestMergeDisorderedStoredBlock too. The lookup probe
// binary-searches a block's lines, so answering from an unsorted block
// would report stored indices as missing, and the serving layer would
// recompute and append a second copy of each.
func TestDisorderedStoredBlockReads(t *testing.T) {
	dir := t.TempDir()
	sweep, entries := sweepShard(t, dir, 48)
	lines := jsonLines(t, sweep)
	swapped := slices.Clone(lines[16:32])
	swapped[3], swapped[4] = swapped[4], swapped[3]
	storeDir := filepath.Join(dir, "store")
	handStore(t, storeDir, gzip.DefaultCompression, [][][]byte{lines[0:16], swapped, lines[32:48]})
	st, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for _, e := range entries[16:32] {
		if _, ok, err := st.Get(e.Index); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Get(%d): ok=%v err=%v, want ErrCorrupt", e.Index, ok, err)
		}
		if _, src, err := st.Lookup(e.Index, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Lookup(%d): source %v err=%v, want ErrCorrupt", e.Index, src, err)
		}
	}
	if err := st.LoadPresence(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LoadPresence: %v, want ErrCorrupt", err)
	}
	if _, err := st.Summary(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Summary: %v, want ErrCorrupt", err)
	}
	if _, err := st.Range(0, 48, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Range: %v, want ErrCorrupt", err)
	}
	// The sorted blocks around it still answer.
	for _, e := range append(entries[:16:16], entries[32:48]...) {
		if got, ok, err := st.Get(e.Index); err != nil || !ok || mustJSON(t, got) != mustJSON(t, &e) {
			t.Fatalf("Get(%d): ok=%v err=%v", e.Index, ok, err)
		}
	}
}

// TestMergeBlankLines: a shard's blank lines are skipped in a loop, so
// a shard of millions of them merges in constant stack. The stack
// limit is lowered for the test so that one frame per blank line would
// overflow it well before the shard ends.
func TestMergeBlankLines(t *testing.T) {
	dir := t.TempDir()
	sweep, entries := sweepShard(t, dir, 2)
	lines := jsonLines(t, sweep)
	shard := filepath.Join(dir, "blank.jsonl.gz")
	f, err := os.Create(shard)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	zw.Write(append(lines[0], '\n'))
	zw.Write(bytes.Repeat([]byte{'\n'}, 2<<20))
	zw.Write(append(lines[1], '\n'))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	st, err := Create(filepath.Join(dir, "store"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Merge([]string{shard}, MergeOptions{})
	if err != nil || stats.Total != 2 {
		t.Fatalf("merge: stats %+v, err %v", stats, err)
	}
	for i := range entries {
		if e, ok, err := st.Get(entries[i].Index); err != nil || !ok || mustJSON(t, e) != mustJSON(t, &entries[i]) {
			t.Fatalf("Get(%d): ok=%v err=%v", entries[i].Index, ok, err)
		}
	}
}
