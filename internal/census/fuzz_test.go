package census

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
)

// FuzzFamilySpec checks the adversary-family parser on arbitrary specs
// over n ∈ [1, 5] (corpus in testdata/fuzz/FuzzFamilySpec): an accepted
// spec's canonical string resolves to the same canonical string and the
// same member set, and every rejection wraps ErrBadFamily.
//
//	go test -run '^$' -fuzz '^FuzzFamilySpec$' -fuzztime 30s ./internal/census
func FuzzFamilySpec(f *testing.F) {
	for _, kind := range FamilyKinds() {
		f.Add(kind, uint8(2))
	}
	f.Fuzz(func(t *testing.T, spec string, nb uint8) {
		n := 1 + int(nb%5)
		fam, err := resolveFamily(spec, n)
		if err != nil {
			if !errors.Is(err, ErrBadFamily) {
				t.Fatalf("n=%d %q: %v does not wrap ErrBadFamily", n, spec, err)
			}
			return
		}
		if fam == nil {
			if spec != "" {
				t.Fatalf("n=%d %q: accepted without a filter", n, spec)
			}
			return
		}
		again, err := resolveFamily(fam.canonical, n)
		if err != nil {
			t.Fatalf("n=%d: canonical form %q of %q rejected: %v", n, fam.canonical, spec, err)
		}
		if again.canonical != fam.canonical || !maps.Equal(again.indices, fam.indices) {
			t.Fatalf("n=%d %q: canonical form %q resolves to %q with %d members, want %d",
				n, spec, fam.canonical, again.canonical, len(again.indices), len(fam.indices))
		}
	})
}

// FuzzCheckpointDecode decodes fuzzed checkpoint sidecars and validates
// them against the n=3 run whose real sidecar seeds the corpus. No input
// panics, and a sidecar validate accepts has its frontier inside the
// domain, no more entries emitted than indices swept, a non-negative
// output offset and one histogram bucket per setcon value 0..n.
//
//	go test -run '^$' -fuzz '^FuzzCheckpointDecode$' -fuzztime 30s ./internal/census
func FuzzCheckpointDecode(f *testing.F) {
	const n = 3
	dir := f.TempDir()
	ckPath := filepath.Join(dir, "ck.json")
	sink, err := NewJSONLSink(filepath.Join(dir, "part.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	opts := Options{Workers: 1, Checkpoint: ckPath, CheckpointEvery: 16, MaxIndices: 48}
	if _, err := Stream(n, opts, sink); err != nil {
		f.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(ckPath)
	if err != nil {
		f.Fatal(err)
	}
	run, err := decodeCheckpoint(seed)
	if err != nil {
		f.Fatal(err)
	}
	total := adversary.CensusSize(n)
	if err := run.validate(run.Fingerprint, total, n, run.SinkKind); err != nil {
		f.Fatalf("the seed run's own sidecar: %v", err)
	}
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(`"out_bytes": `), []byte(`"out_bytes": -1`), 1))
	f.Add(bytes.Replace(seed, []byte(`"emitted": `), []byte(`"emitted": 9`), 1))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		if err := ck.validate(run.Fingerprint, total, n, run.SinkKind); err != nil {
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("rejection %v does not wrap ErrCheckpointMismatch", err)
			}
			return
		}
		if ck.NextIndex > total || ck.Emitted > ck.NextIndex || ck.OutBytes < 0 || len(ck.Summary.SetconHist) != n+1 {
			t.Fatalf("accepted an impossible sidecar: next_index %d of %d, emitted %d, out_bytes %d, %d buckets",
				ck.NextIndex, total, ck.Emitted, ck.OutBytes, len(ck.Summary.SetconHist))
		}
	})
}
