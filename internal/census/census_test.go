package census

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestCensusFigure2 pins the n=3 census to the Figure 2 numbers the
// serial EnumerateAdversaries loop established (experiment E8).
func TestCensusFigure2(t *testing.T) {
	rep, err := Run(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.Total != 128 || s.SupersetClosed != 19 || s.Symmetric != 8 || s.Fair != 44 {
		t.Errorf("summary = (total %d, superset %d, symmetric %d, fair %d), want (128, 19, 8, 44)",
			s.Total, s.SupersetClosed, s.Symmetric, s.Fair)
	}
	if s.InclusionViolations != 0 {
		t.Errorf("inclusion violations = %d, want 0", s.InclusionViolations)
	}
	wantHist := []uint64{1, 24, 18, 1}
	for k, w := range wantHist {
		if s.SetconHist[k] != w {
			t.Errorf("setcon=%d count = %d, want %d", k, s.SetconHist[k], w)
		}
	}
	if len(rep.Entries) != 128 {
		t.Fatalf("entries = %d, want 128", len(rep.Entries))
	}
	for i, e := range rep.Entries {
		if e.Index != uint64(i) {
			t.Fatalf("entry %d has index %d — aggregation out of enumeration order", i, e.Index)
		}
	}
}

// TestTowerExtendSpansFollowTracer checks that a solve sweep's
// chromatic.tower_extend spans land in the sweep's own tracer, each
// under a census.solve span of that tracer: one per tower the run's
// private cache built (every tower is extended once, to height 1).
func TestTowerExtendSpansFollowTracer(t *testing.T) {
	tr := obs.NewTracer(0)
	rep, err := Run(3, Options{Task: "kset:k=1", Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	extends := 0
	for _, sp := range spans {
		if sp.Name != "chromatic.tower_extend" {
			continue
		}
		extends++
		if parent := byID[sp.Parent]; parent.Name != "census.solve" {
			t.Errorf("tower_extend span %d: parent %d is %q in this tracer, want census.solve", sp.ID, sp.Parent, parent.Name)
		}
	}
	if extends == 0 || extends != rep.Cache.Towers {
		t.Errorf("tower_extend spans in the sweep's tracer = %d, want one per cached tower (%d)", extends, rep.Cache.Towers)
	}
}

// TestCensusDeterminism asserts the tentpole invariant: the census JSON
// is byte-identical for every worker count and shard size.
func TestCensusDeterminism(t *testing.T) {
	baseline, err := Run(3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Workers: 8},
		{Workers: 8, ShardSize: 1},
		{Workers: 3, ShardSize: 7},
	} {
		rep, err := Run(3, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("census JSON differs for %+v", opts)
		}
	}
}

// TestCensusSolveDeterminism runs the solve mode at n=2 (8 adversaries,
// tiny towers) and checks worker-count invariance of the solve fields
// and cache statistics too.
func TestCensusSolveDeterminism(t *testing.T) {
	opts := Options{Task: "kset:k=1", VerifyWitnesses: true}
	opts.Workers = 1
	serial, err := Run(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(serial, "", "  ")
	opts.Workers = 8
	parallel, err := Run(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.MarshalIndent(parallel, "", "  ")
	if !bytes.Equal(got, want) {
		t.Fatalf("solve-mode census JSON differs across worker counts:\n%s\n---\n%s", want, got)
	}
	if serial.Summary.Solved == 0 || serial.Summary.Solvable == 0 {
		t.Fatalf("solve mode decided nothing: %+v", serial.Summary)
	}
	if serial.Cache == nil || serial.Cache.Towers == 0 {
		t.Fatalf("solve mode should populate cache stats: %+v", serial.Cache)
	}
}

// TestCensusSolveFACT cross-checks the solve mode against the FACT
// prediction at n=3: 1-set consensus is solvable iff setcon == 1 ...
// i.e. for every solved fair adversary, solvable ⇔ k ≥ setcon.
func TestCensusSolveFACT(t *testing.T) {
	if testing.Short() {
		t.Skip("solve census over 128 adversaries in -short mode")
	}
	rep, err := Run(3, Options{Task: "kset:k=2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Entries {
		if !e.Solved || e.Solvable == nil {
			continue
		}
		want := 2 >= e.Setcon
		if *e.Solvable != want {
			t.Errorf("%s: setcon=%d, 2-set consensus solvable=%v — FACT predicts %v",
				e.Adversary, e.Setcon, *e.Solvable, want)
		}
	}
}

// TestCensusProgress checks the progress callback reaches the domain
// size exactly once at completion.
func TestCensusProgress(t *testing.T) {
	var last atomic.Uint64
	_, err := Run(3, Options{Workers: 4, Progress: func(done, total uint64) {
		if done > total {
			t.Errorf("progress overshoot: %d > %d", done, total)
		}
		for {
			cur := last.Load()
			if done <= cur || last.CompareAndSwap(cur, done) {
				break
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last.Load() != 128 {
		t.Errorf("final progress = %d, want 128", last.Load())
	}
}

func TestCensusDomainTooLarge(t *testing.T) {
	if _, err := Run(5, Options{}); err == nil {
		t.Fatal("n=5 census (2^31 adversaries) should be rejected")
	}
}
