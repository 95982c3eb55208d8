package store

// Deep verification: `factool store verify`. A full walk over the
// physical store — every block read, CRC-checked, inflated and framed —
// plus logical consistency of the manifest against the data (sorted
// blocks, exact First/Last/Entries, in-domain indices, byte-identical
// duplicates across overlapping blocks, kind discipline) and an
// orbit-consistency spot check re-deriving canonicality, orbit sizes
// and whole entries from scratch — classification entries always, and
// solve entries whenever the manifest records which task the store's
// verdicts answer.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/census"
	"repro/internal/chromatic"
)

// VerifyOptions tune a deep check.
type VerifyOptions struct {
	// SpotChecks bounds how many entries get semantically re-derived
	// (canonicality + orbit size, and a from-scratch reclassification
	// on classify stores). <= 0 selects 8; the sample is spread
	// deterministically across the stored sequence.
	SpotChecks int
}

// VerifyReport is the outcome of a deep check.
type VerifyReport struct {
	Blocks       int      `json:"blocks"`
	Entries      uint64   `json:"entries"`
	Unique       uint64   `json:"unique"`
	Bytes        int64    `json:"bytes"`
	SpotChecked  int      `json:"spot_checked"`
	Reclassified int      `json:"reclassified"`
	Problems     []string `json:"problems,omitempty"`
}

// OK reports a clean check.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

func (r *VerifyReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Verify deep-checks the store. The returned error is only for
// environmental failures (an unreadable store, a failed examiner);
// data corruption lands in VerifyReport.Problems so one walk surfaces
// every finding, not just the first. Memory stays bounded by a few
// inflated blocks: the logical walk pages through Range.
func (s *Store) Verify(opts VerifyOptions) (*VerifyReport, error) {
	spot := opts.SpotChecks
	if spot <= 0 {
		spot = 8
	}
	rep := &VerifyReport{}
	n, domain, orbitKind, solveMode, err := s.verifyPhysical(rep)
	if err != nil {
		return nil, err
	}

	// Logical walk in index order through Range pages: every line
	// parses, agrees with its key, and obeys the manifest's kind and
	// solve commitments. Range itself enforces byte-identical
	// duplicates and ordering (ErrCorrupt), which counts as a finding.
	var orbits *adversary.Orbits
	if orbitKind {
		orbits = adversary.NewOrbits(n)
	}
	var examiner *census.Examiner
	if !solveMode {
		if examiner, err = census.NewExaminer(n, census.Options{}); err != nil {
			return nil, err
		}
	}
	// Solve stores are re-derivable once the manifest records the task
	// their verdicts answer (a kset spec bound there re-derives compat
	// entries byte-identically: those carry no task field either way).
	var solve *solveRederiver
	if task := s.Task(); solveMode && task != "" {
		solve = &solveRederiver{
			n:        n,
			task:     task,
			universe: chromatic.SharedUniverse(n),
			cache:    chromatic.NewTowerCache(),
		}
	}
	// Evenly-spread semantic sample over the unique entry sequence.
	step := uint64(1)
	if u := s.Stats().Entries; u > uint64(spot) {
		step = u / uint64(spot)
	}
	sawSolve := false
	var pos uint64
	for from, more := uint64(0), true; more; {
		page, err := s.Range(from, domain, DefaultBlockEntries)
		if err != nil {
			rep.problemf("range walk from %d: %v", from, err)
			break
		}
		from, more = page.Next, page.More
		for i, line := range page.Lines {
			idx := page.Indices[i]
			rep.Unique++
			var e census.Entry
			if err := json.Unmarshal(line, &e); err != nil {
				rep.problemf("index %d: unparseable entry: %v", idx, err)
				continue
			}
			if e.Index != idx {
				rep.problemf("index %d: line declares index %d", idx, e.Index)
			}
			if orbitKind && e.OrbitSize == 0 {
				rep.problemf("index %d: orbit store holds a plain entry", idx)
			}
			if !orbitKind && e.OrbitSize != 0 {
				rep.problemf("index %d: full store holds an orbit-weighted entry", idx)
			}
			if e.Solved {
				sawSolve = true
			}
			if pos%step == 0 && rep.SpotChecked < spot {
				rep.SpotChecked++
				s.spotCheck(rep, orbits, examiner, solve, idx, &e, line)
			}
			pos++
		}
	}
	if sawSolve && !solveMode {
		rep.problemf("manifest: solve entries present but Solve flag unset")
	}
	return rep, nil
}

// verifyPhysical walks every block bypassing the cache: CRC, gzip
// framing, entry counts, in-block ordering, and manifest agreement.
func (s *Store) verifyPhysical(rep *VerifyReport) (n int, domain uint64, orbitKind, solveMode bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return 0, 0, false, false, fmt.Errorf("store: closed")
	}
	n = s.man.N
	domain = s.domainSizeLocked()
	orbitKind = s.man.EntryKind == kindOrbit
	solveMode = s.man.Solve
	rep.Blocks = len(s.man.Blocks)
	var prevFirst uint64
	for j, b := range s.man.Blocks {
		rep.Bytes += b.Size
		if j > 0 && b.First < prevFirst {
			rep.problemf("manifest: block %d First=%d precedes block %d First=%d", j, b.First, j-1, prevFirst)
		}
		prevFirst = b.First
		if b.First > b.Last {
			rep.problemf("manifest: block %d First=%d > Last=%d", j, b.First, b.Last)
			continue
		}
		entries, err := s.readBlockLocked(b)
		if err == nil {
			err = indexAll(entries, b.Offset)
		}
		if err != nil {
			rep.problemf("block %d: %v", j, err)
			continue
		}
		rep.Entries += uint64(len(entries))
		for i, be := range entries {
			if i > 0 && be.idx <= entries[i-1].idx {
				rep.problemf("block %d: entry %d index %d not above %d", j, i, be.idx, entries[i-1].idx)
			}
			if be.idx < b.First || be.idx > b.Last {
				rep.problemf("block %d: entry index %d outside manifest range [%d, %d]", j, be.idx, b.First, b.Last)
			}
			if be.idx >= domain {
				rep.problemf("block %d: entry index %d beyond the n=%d domain (%d)", j, be.idx, n, domain)
			}
		}
		if len(entries) > 0 {
			if entries[0].idx != b.First {
				rep.problemf("block %d: first entry %d, manifest First %d", j, entries[0].idx, b.First)
			}
			if entries[len(entries)-1].idx != b.Last {
				rep.problemf("block %d: last entry %d, manifest Last %d", j, entries[len(entries)-1].idx, b.Last)
			}
		}
	}
	return n, domain, orbitKind, solveMode, nil
}

// solveRederiver re-derives solve-mode entries under the task spec the
// manifest records. The Universe and TowerCache are shared across the
// whole sample; the Examiner is fresh per entry because MaxRounds is
// pinned to that entry's recorded rounds.
type solveRederiver struct {
	n        int
	task     string
	universe *chromatic.Universe
	cache    *chromatic.TowerCache
}

// rederive recomputes the entry from scratch at MaxRounds = max(1,
// e.Rounds): exact for solvable entries (the solver reports the
// minimal round count), and sound for unsolvable ones (solvability is
// monotone in rounds, so unsolvable within R implies unsolvable
// within 1).
func (v *solveRederiver) rederive(e *census.Entry) ([]byte, error) {
	rounds := e.Rounds
	if rounds < 1 {
		rounds = 1
	}
	ex, err := census.NewExaminer(v.n, census.Options{
		Task:      v.task,
		MaxRounds: rounds,
		Universe:  v.universe,
		Cache:     v.cache,
	})
	if err != nil {
		return nil, err
	}
	want, err := ex.Examine(e.Index)
	if err != nil {
		return nil, err
	}
	want.OrbitSize = e.OrbitSize
	return json.Marshal(&want)
}

// spotCheck re-derives one entry from scratch: canonicality and orbit
// size on orbit stores, and the whole entry byte-for-byte wherever the
// sweep configuration is fully known — always on classify stores, and
// on solve stores whose manifest records the task (an unbound solve
// store's (task, rounds) is not recoverable, so it gets the orbit
// checks only; undecided entries are skipped, their search budget is
// not recorded).
func (s *Store) spotCheck(rep *VerifyReport, orbits *adversary.Orbits, examiner *census.Examiner,
	solve *solveRederiver, idx uint64, e *census.Entry, line []byte) {
	if orbits != nil {
		if !orbits.IsCanonical(idx) {
			rep.problemf("index %d: orbit store entry is not a canonical representative", idx)
			return
		}
		if _, size, _ := orbits.CanonicalWithWitness(idx); size != e.OrbitSize {
			rep.problemf("index %d: stored orbit size %d, derived %d", idx, e.OrbitSize, size)
		}
	}
	if solve != nil && !e.Undecided {
		wb, err := solve.rederive(e)
		if err != nil {
			rep.problemf("index %d: solve re-derivation failed: %v", idx, err)
			return
		}
		rep.Reclassified++
		if !bytes.Equal(wb, line) {
			rep.problemf("index %d: stored entry differs from solve re-derivation: stored %s, derived %s", idx, line, wb)
		}
		return
	}
	if examiner == nil {
		return
	}
	want, err := examiner.Examine(idx)
	if err != nil {
		rep.problemf("index %d: reclassification failed: %v", idx, err)
		return
	}
	want.OrbitSize = e.OrbitSize
	wb, err := json.Marshal(&want)
	if err != nil {
		rep.problemf("index %d: reclassification marshal: %v", idx, err)
		return
	}
	rep.Reclassified++
	if string(wb) != string(line) {
		rep.problemf("index %d: stored entry differs from reclassification: stored %s, derived %s", idx, line, wb)
	}
}
