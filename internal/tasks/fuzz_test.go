package tasks

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseSpec checks the task-spec parser on arbitrary strings
// (corpus in testdata/fuzz/FuzzParseSpec): every accepted spec
// round-trips — parse → String → parse is a fixed point — and every
// rejection wraps ErrBadSpec.
//
//	go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 30s ./internal/tasks
func FuzzParseSpec(f *testing.F) {
	for _, kind := range RegisteredKinds() {
		f.Add(kind)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpec(%q): %v does not wrap ErrBadSpec", s, err)
			}
			return
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, s, err)
		}
		if again.String() != canon || !reflect.DeepEqual(again, spec) {
			t.Fatalf("%q: parse → String → parse moved %+v to %+v", s, spec, again)
		}
	})
}
