package census

import (
	"path/filepath"
	"testing"
)

// TestCheckpointStringsPinned pins, as literals, the fingerprint and
// sink kind a checkpoint sidecar records. Campaigns already hold
// sidecars with these strings (the nightly n=5 orbit campaign restores
// the gzip one from its cache), and a resume refuses any sidecar whose
// strings differ from the ones the run computes.
func TestCheckpointStringsPinned(t *testing.T) {
	const classify3 = "census:v1:n=3:orbits=false:solve=false:k=1:rounds=1:verify=false"
	for _, tc := range []struct {
		name     string
		n        int
		opts     Options
		out      string // JSONL output file name; "" streams to volatile
		volatile Sink
		fp, kind string
	}{
		{"classify", 3, Options{}, "out.jsonl", nil, classify3, "persistent"},
		{"nightly n=5 orbits", 5, Options{Orbits: true}, "entries.jsonl.gz", nil,
			"census:v1:n=5:orbits=true:solve=false:k=1:rounds=1:verify=false", "persistent-gzip"},
		{"kset:k=1", 3, Options{Task: "kset:k=1"}, "out.jsonl", nil,
			"census:v1:n=3:orbits=false:solve=true:k=1:rounds=1:verify=false", "persistent"},
		{"loop-agreement", 3, Options{Task: "loop-agreement"}, "out.jsonl", nil,
			"census:v1:n=3:orbits=false:solve=true:task=loop-agreement:rounds=1:verify=false", "persistent"},
		{"symmetric family", 3, Options{Family: "symmetric"}, "out.jsonl", nil,
			classify3 + ":family=symmetric", "persistent"},
		{"nil sink", 3, Options{}, "", nil, classify3, "volatile"},
		{"collector", 3, Options{}, "", &Collector{}, classify3, "volatile"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := tc.opts
			opts.Checkpoint = filepath.Join(dir, "ck.json")
			opts.MaxIndices = 8
			sink := tc.volatile
			if tc.out != "" {
				js, err := NewJSONLSink(filepath.Join(dir, tc.out))
				if err != nil {
					t.Fatal(err)
				}
				defer js.Close()
				sink = js
			}
			if _, err := Stream(tc.n, opts, sink); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(opts.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Fingerprint != tc.fp {
				t.Errorf("fingerprint %q, want %q", ck.Fingerprint, tc.fp)
			}
			if ck.SinkKind != tc.kind {
				t.Errorf("sink kind %q, want %q", ck.SinkKind, tc.kind)
			}
		})
	}
}
