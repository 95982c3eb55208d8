package adversary

import (
	"errors"
	"testing"

	"repro/internal/procs"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); !errors.Is(err, ErrBadSize) {
		t.Errorf("want ErrBadSize, got %v", err)
	}
	if _, err := New(3, procs.EmptySet); !errors.Is(err, ErrEmptyLiveSet) {
		t.Errorf("want ErrEmptyLiveSet, got %v", err)
	}
	if _, err := New(2, procs.SetOf(3)); !errors.Is(err, ErrOutOfSystem) {
		t.Errorf("want ErrOutOfSystem, got %v", err)
	}
	// Deduplication.
	a := MustNew(3, procs.SetOf(0), procs.SetOf(0))
	if a.NumLiveSets() != 1 {
		t.Errorf("duplicates not removed")
	}
}

func TestConstructorsBasics(t *testing.T) {
	wf := WaitFree(3)
	if wf.NumLiveSets() != 7 {
		t.Errorf("wait-free live sets = %d, want 7", wf.NumLiveSets())
	}
	tr := TResilient(3, 1)
	if tr.NumLiveSets() != 4 { // three pairs + full set
		t.Errorf("1-resilient live sets = %d, want 4", tr.NumLiveSets())
	}
	kof := KObstructionFree(3, 1)
	if kof.NumLiveSets() != 3 {
		t.Errorf("1-OF live sets = %d, want 3", kof.NumLiveSets())
	}
	sym := SymmetricFromSizes(4, 2, 4)
	if sym.NumLiveSets() != 7 { // C(4,2)=6 plus the full set
		t.Errorf("symmetric live sets = %d, want 7", sym.NumLiveSets())
	}
	fig5b, err := SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	// {p2} and supersets: 4; {p1,p3}: itself + full (already counted): +1.
	if fig5b.NumLiveSets() != 5 {
		t.Errorf("figure 5b live sets = %d, want 5: %v", fig5b.NumLiveSets(), fig5b)
	}
	if !fig5b.Contains(procs.SetOf(1)) || fig5b.Contains(procs.SetOf(0)) {
		t.Errorf("Contains wrong for %v", fig5b)
	}
}

func TestSupersetClosureErrors(t *testing.T) {
	if _, err := SupersetClosure(3, procs.EmptySet); !errors.Is(err, ErrEmptyLiveSet) {
		t.Errorf("want ErrEmptyLiveSet, got %v", err)
	}
	if _, err := SupersetClosure(2, procs.SetOf(5)); !errors.Is(err, ErrOutOfSystem) {
		t.Errorf("want ErrOutOfSystem, got %v", err)
	}
}

func TestClassPredicates(t *testing.T) {
	cases := []struct {
		name      string
		a         *Adversary
		superset  bool
		symmetric bool
		fair      bool
	}{
		{"wait-free", WaitFree(3), true, true, true},
		{"1-resilient", TResilient(3, 1), true, true, true},
		{"2-resilient", TResilient(3, 2), true, true, true},
		{"1-OF", KObstructionFree(3, 1), false, true, true},
		{"2-OF", KObstructionFree(3, 2), false, true, true},
		{"fig5b", mustSuperset(t, 3, procs.SetOf(1), procs.SetOf(0, 2)), true, false, true},
		{"unfair example", MustNew(3, procs.SetOf(0, 1), procs.SetOf(2)), false, false, false},
	}
	for _, c := range cases {
		if got := c.a.IsSupersetClosed(); got != c.superset {
			t.Errorf("%s: IsSupersetClosed = %v, want %v", c.name, got, c.superset)
		}
		if got := c.a.IsSymmetric(); got != c.symmetric {
			t.Errorf("%s: IsSymmetric = %v, want %v", c.name, got, c.symmetric)
		}
		if got := c.a.IsFair(); got != c.fair {
			t.Errorf("%s: IsFair = %v, want %v", c.name, got, c.fair)
		}
	}
}

func mustSuperset(t *testing.T, n int, gens ...procs.Set) *Adversary {
	t.Helper()
	a, err := SupersetClosure(n, gens...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestUnfairWitness(t *testing.T) {
	// A = {{p1,p2},{p3}}: restricting to P={p1,p3}, Q={p1} gives an empty
	// A|P,Q while min(|Q|, setcon(A|P)) = 1.
	a := MustNew(3, procs.SetOf(0, 1), procs.SetOf(2))
	p, q, fair := a.FairnessWitness()
	if fair {
		t.Fatalf("adversary should be unfair")
	}
	if SetconOf(a.RestrictTouching(p, q)) == min(q.Size(), a.Alpha(p)) {
		t.Fatalf("witness (%v,%v) does not violate fairness", p, q)
	}
}

func TestSetconTResilient(t *testing.T) {
	// setcon of the t-resilient adversary is t+1 (symmetric formula),
	// and equals csize for this superset-closed adversary.
	for n := 2; n <= 5; n++ {
		for tt := 0; tt < n; tt++ {
			a := TResilient(n, tt)
			if got := a.Setcon(); got != tt+1 {
				t.Errorf("n=%d t=%d: setcon = %d, want %d", n, tt, got, tt+1)
			}
			if got := a.CSize(); got != tt+1 {
				t.Errorf("n=%d t=%d: csize = %d, want %d", n, tt, got, tt+1)
			}
		}
	}
}

func TestSetconKObstructionFree(t *testing.T) {
	// α(P) = min(|P|, k) for the k-OF adversary.
	for n := 2; n <= 4; n++ {
		for k := 1; k <= n; k++ {
			a := KObstructionFree(n, k)
			procs.ForEachSubset(procs.FullSet(n), func(p procs.Set) bool {
				want := p.Size()
				if want > k {
					want = k
				}
				if got := a.Alpha(p); got != want {
					t.Errorf("n=%d k=%d α(%v) = %d, want %d", n, k, p, got, want)
				}
				return true
			})
		}
	}
}

func TestSetconSupersetClosedEqualsCSize(t *testing.T) {
	// Gafni-Kuznetsov: for superset-closed adversaries setcon = csize.
	gens := [][]procs.Set{
		{procs.SetOf(1)},
		{procs.SetOf(1), procs.SetOf(0, 2)},
		{procs.SetOf(0, 1), procs.SetOf(1, 2), procs.SetOf(0, 2)},
		{procs.SetOf(0), procs.SetOf(1), procs.SetOf(2)},
		{procs.SetOf(0, 1, 2, 3)},
		{procs.SetOf(0, 1), procs.SetOf(2, 3)},
	}
	for _, g := range gens {
		n := 3
		for _, s := range g {
			if s.Contains(3) {
				n = 4
			}
		}
		a := mustSuperset(t, n, g...)
		if got, want := a.Setcon(), a.CSize(); got != want {
			t.Errorf("%v: setcon = %d, csize = %d", a, got, want)
		}
	}
}

func TestSymmetricSetconFormula(t *testing.T) {
	// For symmetric adversaries: setcon = number of distinct live-set
	// sizes present (Section 3).
	cases := [][]int{{1}, {2}, {1, 3}, {2, 3}, {1, 2, 3}, {3}}
	for _, sizes := range cases {
		a := SymmetricFromSizes(3, sizes...)
		if got := a.Setcon(); got != len(sizes) {
			t.Errorf("sizes %v: setcon = %d, want %d", sizes, got, len(sizes))
		}
	}
}

func TestFigure5bAgreementFunction(t *testing.T) {
	a := mustSuperset(t, 3, procs.SetOf(1), procs.SetOf(0, 2))
	want := map[procs.Set]int{
		procs.EmptySet:    0,
		procs.SetOf(0):    0,
		procs.SetOf(1):    1,
		procs.SetOf(2):    0,
		procs.SetOf(0, 1): 1,
		procs.SetOf(0, 2): 1,
		procs.SetOf(1, 2): 1,
		procs.FullSet(3):  2,
	}
	af := a.AgreementFunction()
	for p, w := range want {
		if af[p] != w {
			t.Errorf("α(%v) = %d, want %d", p, af[p], w)
		}
	}
}

func TestAgreementLawsHold(t *testing.T) {
	advs := []*Adversary{
		WaitFree(3), TResilient(3, 1), TResilient(4, 2),
		KObstructionFree(3, 2), KObstructionFree(4, 3),
		mustSuperset(t, 3, procs.SetOf(1), procs.SetOf(0, 2)),
		MustNew(3, procs.SetOf(0, 1), procs.SetOf(2)), // even unfair ones
	}
	for _, a := range advs {
		if p, q, ok := a.ValidateAgreementLaws(); !ok {
			t.Errorf("%v: agreement laws fail at (%v,%v)", a, p, q)
		}
	}
}

func TestAlphaModel(t *testing.T) {
	a := TResilient(3, 1)
	m := a.AlphaModel()
	if m.N() != 3 {
		t.Errorf("N = %d", m.N())
	}
	full := procs.FullSet(3)
	if m.Alpha(full) != 2 || m.MaxFailures(full) != 1 {
		t.Errorf("α/failures wrong: %d/%d", m.Alpha(full), m.MaxFailures(full))
	}
	if !m.Allows(full, procs.SetOf(0)) {
		t.Errorf("one failure must be allowed at full participation")
	}
	if m.Allows(full, procs.SetOf(0, 1)) {
		t.Errorf("two failures must be rejected")
	}
	if m.Allows(procs.SetOf(0), procs.SetOf(1)) {
		t.Errorf("faulty set must be within participation")
	}
	// α(P)=0 participation is not permitted at all.
	b := mustSuperset(t, 3, procs.SetOf(1))
	if b.AlphaModel().Allows(procs.SetOf(0), procs.EmptySet) {
		t.Errorf("participation with α=0 must be disallowed")
	}
}

func TestEnumerateAdversariesCensus(t *testing.T) {
	// n = 2: adversaries are subsets of {{p1},{p2},{p1,p2}} → 8 total.
	count := 0
	EnumerateAdversaries(2, func(*Adversary) bool {
		count++
		return true
	})
	if count != 8 {
		t.Errorf("n=2 adversary count = %d, want 8", count)
	}
	// Early stop works.
	count = 0
	EnumerateAdversaries(2, func(*Adversary) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop failed: %d", count)
	}
}

func TestSetconOfDirect(t *testing.T) {
	if SetconOf(nil) != 0 {
		t.Errorf("setcon(∅) must be 0")
	}
	// Single live set of size k has setcon... min over removals:
	// setcon({S}|S\{a}) = 0 (S ⊄ S\{a}), so setcon = 1 regardless of k.
	if got := SetconOf([]procs.Set{procs.FullSet(4)}); got != 1 {
		t.Errorf("single live set setcon = %d, want 1", got)
	}
	// Wait-free n-process: setcon = n.
	for n := 1; n <= 4; n++ {
		if got := SetconOf(procs.NonemptySubsets(procs.FullSet(n))); got != n {
			t.Errorf("wait-free n=%d setcon = %d", n, got)
		}
	}
}

func TestRestrict(t *testing.T) {
	a := TResilient(3, 1)
	r := a.Restrict(procs.SetOf(0, 1))
	if r.NumLiveSets() != 1 || !r.Contains(procs.SetOf(0, 1)) {
		t.Errorf("Restrict wrong: %v", r)
	}
	touching := a.RestrictTouching(procs.FullSet(3), procs.SetOf(2))
	for _, s := range touching {
		if !s.Contains(2) {
			t.Errorf("RestrictTouching returned %v without p3", s)
		}
	}
	if len(touching) != 3 {
		t.Errorf("touching count = %d, want 3", len(touching))
	}
}
