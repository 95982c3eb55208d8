package census

// Rank-range-scoped sweeps: the library entrypoint the distributed
// fabric's workers drive. A range sweep is an ordinary Stream over the
// raw index window [lo, hi), in full or orbit mode alike, so its output
// is byte-identical to the corresponding slice of a whole-domain sweep,
// and shards produced by disjoint ranges merge into exactly the
// single-node store.

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
)

// SweepRange sweeps exactly the raw enumeration indices [lo, hi) of
// the n-process domain, emitting to the sink in index order. In orbit
// mode only the canonical representatives inside the range are
// examined (ranges with boundaries on arbitrary raw indices partition
// the canonical sequence cleanly). The report is Incomplete only when
// the sweep stopped short of hi (Budget or Stop); range sweeps never
// checkpoint — re-acquiring the range is the resume mechanism — so
// opts.Checkpoint, opts.Resume and opts.MaxIndices must be unset.
func SweepRange(n int, opts Options, sink Sink, lo, hi uint64) (*Report, error) {
	if n < 1 || n > 6 {
		return nil, fmt.Errorf("census: n must be in [1,6], got %d", n)
	}
	total := adversary.CensusSize(n)
	if lo > hi || hi > total {
		return nil, fmt.Errorf("census: range [%d, %d) outside the n=%d domain [0, %d]", lo, hi, n, total)
	}
	if opts.Checkpoint != "" || opts.Resume {
		return nil, errors.New("census: range sweeps cannot checkpoint or resume")
	}
	if opts.MaxIndices > 0 {
		return nil, errors.New("census: SweepRange bounds the sweep itself; MaxIndices must be unset")
	}
	if lo == hi {
		rep := &Report{Summary: NewSummary(n)}
		if js, ok := sink.(*JSONLSink); ok {
			if err := js.Flush(); err != nil {
				return nil, err
			}
		}
		return rep, nil
	}
	opts.startIndex = lo
	opts.endIndex = hi
	rep, err := Stream(n, opts, sink)
	if err != nil {
		return nil, err
	}
	// Stream judges completeness against the whole domain; a range
	// sweep is complete once its frontier reaches hi.
	if rep.Incomplete && rep.NextIndex >= hi {
		rep.Incomplete = false
		rep.NextIndex = 0
	}
	return rep, nil
}
