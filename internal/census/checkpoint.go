package census

// Checkpointing for long streaming sweeps: a small sidecar file records
// the contiguous completed frontier of the enumeration plus the running
// aggregates, so a killed n=5 campaign restarts where it left off and
// still produces byte-identical final output. The sidecar is written
// atomically (temp file + rename) and only after the sink has flushed,
// so it never points past durable output.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointVersion guards the sidecar schema.
const checkpointVersion = 1

// Checkpoint is the resume state of a streaming census run.
type Checkpoint struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"` // run parameters that must match to resume

	// NextIndex is the contiguous completed frontier: every enumeration
	// index below it has been examined and its entry (if any) emitted.
	NextIndex uint64 `json:"next_index"`
	// Emitted counts entries delivered to the sink — below NextIndex in
	// orbit mode, equal to it otherwise.
	Emitted uint64 `json:"emitted"`
	// OutBytes is the sink byte offset after the Emitted-th entry.
	OutBytes int64 `json:"out_bytes"`

	// SinkKind records whether the interrupted run streamed to a
	// persistent sink ("persistent" or "persistent-gzip": entries live
	// in a JSONL stream the run can reposition) or not ("volatile":
	// summary-only or in-memory).
	// Resuming with a different kind would silently drop the swept
	// prefix from the output, so it is rejected instead.
	SinkKind string `json:"sink_kind"`

	// Summary holds the running aggregates over [0, NextIndex).
	Summary Summary `json:"summary"`
}

// sinkKind classifies a run's output for checkpoint compatibility: the
// JSONL stream js is "persistent", or "persistent-gzip" so a resume
// never splices plain lines into a gzip stream (or back); a run
// without one (js nil) is "volatile". Sidecars on disk hold these
// strings, so they never change.
func sinkKind(js *JSONLSink) string {
	switch {
	case js == nil:
		return "volatile"
	case js.compress:
		return "persistent-gzip"
	}
	return "persistent"
}

// ErrCheckpointMismatch reports a checkpoint that does not belong to
// the attempted run (different n, mode flags, or schema).
var ErrCheckpointMismatch = errors.New("census: checkpoint does not match run parameters")

// fingerprint captures every option that shapes the output stream.
// Worker count and shard size are deliberately excluded: they change
// scheduling, never bytes, and a resumed run may use different ones.
// The task identity segment is `k=<k>` on the kset compat path — the
// exact pre-spec form, so old sidecars resume — and `task=<spec>` for
// every other spec, so a sweep can never silently resume a sidecar
// written for a different task. A classify run fingerprints the
// default spec, kset:k=1, as it always has. A family filter appends
// its own segment the same way.
func (env *runEnv) fingerprint(orbits bool, family *familyFilter) string {
	taskSeg := fmt.Sprintf("task=%s", env.spec)
	if env.spec.IsKSet() {
		taskSeg = fmt.Sprintf("k=%d", env.spec.Param("k"))
	}
	fp := fmt.Sprintf("census:v%d:n=%d:orbits=%t:solve=%t:%s:rounds=%d:verify=%t",
		checkpointVersion, env.n, orbits, env.task != nil, taskSeg, env.maxRounds, env.verify)
	if family != nil {
		fp += ":family=" + family.canonical
	}
	return fp
}

// LoadCheckpoint reads a checkpoint sidecar. A missing file returns
// os.ErrNotExist (callers treat it as a fresh start).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("census: parse checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint parses the bytes of a checkpoint sidecar. Whether
// the checkpoint fits a run is validate's question.
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(b, &ck); err != nil {
		return nil, err
	}
	return &ck, nil
}

// validate checks a loaded checkpoint against this run's parameters.
func (ck *Checkpoint) validate(fp string, total uint64, n int, kind string) error {
	if ck.Version != checkpointVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrCheckpointMismatch, ck.Version, checkpointVersion)
	}
	if ck.Fingerprint != fp {
		return fmt.Errorf("%w: fingerprint %q, want %q", ErrCheckpointMismatch, ck.Fingerprint, fp)
	}
	if ck.SinkKind != kind {
		return fmt.Errorf("%w: checkpoint was written with a %s sink, this run uses a %s one — the swept prefix would be missing from the output; resume with the same output setup (or start a fresh checkpoint)",
			ErrCheckpointMismatch, ck.SinkKind, kind)
	}
	if ck.NextIndex > total {
		return fmt.Errorf("%w: frontier %d beyond domain %d", ErrCheckpointMismatch, ck.NextIndex, total)
	}
	if ck.Emitted > ck.NextIndex {
		return fmt.Errorf("%w: %d entries emitted below frontier %d", ErrCheckpointMismatch, ck.Emitted, ck.NextIndex)
	}
	if ck.OutBytes < 0 {
		return fmt.Errorf("%w: negative output offset %d", ErrCheckpointMismatch, ck.OutBytes)
	}
	if len(ck.Summary.SetconHist) != n+1 {
		return fmt.Errorf("%w: setcon histogram has %d buckets, want %d", ErrCheckpointMismatch, len(ck.Summary.SetconHist), n+1)
	}
	return nil
}

// write persists the checkpoint atomically: temp file in the same
// directory, fsync, rename over the target.
func (ck *Checkpoint) write(path string) error {
	b, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("census: checkpoint: %w", err)
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
	return os.Rename(tmp.Name(), path)
}
