package census

import (
	"errors"
	"maps"
	"testing"
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
