package adversary

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/hitting"
	"repro/internal/procs"
)

// reference classifies a live-set family the way the package did before
// the dense tables: a lazily filled setcon(A|P,Q) memo shared by α and
// the fairness sweep, Contains by binary search, the class predicates by
// subset enumeration and csize by hitting.Size. The table-driven
// methods must agree with it field for field.
type reference struct {
	n    int
	live []procs.Set
	memo map[uint64]int
}

func newReference(n int, sets []procs.Set) *reference {
	seen := make(map[procs.Set]bool, len(sets))
	var live []procs.Set
	for _, s := range sets {
		if !seen[s] {
			seen[s] = true
			live = append(live, s)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		si, sj := live[i].Size(), live[j].Size()
		if si != sj {
			return si < sj
		}
		return live[i] < live[j]
	})
	return &reference{n: n, live: live, memo: make(map[uint64]int)}
}

func (r *reference) setconTouch(p, q procs.Set) int {
	q = q.Intersect(p)
	key := uint64(p)<<32 | uint64(q)
	if v, ok := r.memo[key]; ok {
		return v
	}
	best := 0
	for _, s := range r.live {
		if !s.SubsetOf(p) || !s.Intersects(q) {
			continue
		}
		inner := -1
		s.ForEach(func(x procs.ID) {
			v := r.setconTouch(s.Remove(x), q) + 1
			if inner < 0 || v < inner {
				inner = v
			}
		})
		if inner > best {
			best = inner
		}
	}
	r.memo[key] = best
	return best
}

func (r *reference) alpha(p procs.Set) int { return r.setconTouch(p, p) }

func (r *reference) fairnessWitness() (p, q procs.Set, fair bool) {
	violated := false
	procs.ForEachSubset(procs.FullSet(r.n), func(pp procs.Set) bool {
		alphaP := r.alpha(pp)
		procs.ForEachSubset(pp, func(qq procs.Set) bool {
			if r.setconTouch(pp, qq) != min(qq.Size(), alphaP) {
				violated = true
				p, q = pp, qq
				return false
			}
			return true
		})
		return !violated
	})
	return p, q, !violated
}

func (r *reference) contains(s procs.Set) bool {
	i := sort.Search(len(r.live), func(i int) bool {
		li := r.live[i]
		if li.Size() != s.Size() {
			return li.Size() >= s.Size()
		}
		return li >= s
	})
	return i < len(r.live) && r.live[i] == s
}

func (r *reference) supersetClosed() bool {
	full := procs.FullSet(r.n)
	for _, s := range r.live {
		missing := false
		procs.ForEachSubset(full.Diff(s), func(extra procs.Set) bool {
			if !r.contains(s.Union(extra)) {
				missing = true
				return false
			}
			return true
		})
		if missing {
			return false
		}
	}
	return true
}

func (r *reference) symmetric() bool {
	sizes := make(map[int]bool)
	for _, s := range r.live {
		sizes[s.Size()] = true
	}
	for k := range sizes {
		for _, s := range procs.SubsetsOfSize(procs.FullSet(r.n), k) {
			if !r.contains(s) {
				return false
			}
		}
	}
	return true
}

func (r *reference) String() string {
	parts := make([]string, len(r.live))
	for i, s := range r.live {
		names := make([]string, 0, s.Size())
		s.ForEach(func(p procs.ID) { names = append(names, fmt.Sprintf("p%d", int(p)+1)) })
		parts[i] = "{" + strings.Join(names, ",") + "}"
	}
	return "A{" + strings.Join(parts, ",") + "}"
}

// checkAgainstReference builds the adversary of sets and compares every
// classification field with the reference.
func checkAgainstReference(t *testing.T, n int, sets []procs.Set) {
	t.Helper()
	a, err := New(n, sets...)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(n, sets)
	name := ref.String()
	if got := a.String(); got != name {
		t.Fatalf("String = %q, reference %q", got, name)
	}
	if got := fmt.Sprint(a.LiveSets()); got != fmt.Sprint(ref.live) {
		t.Fatalf("%s: LiveSets = %s, reference %v", name, got, ref.live)
	}
	bad := false
	procs.ForEachSubset(procs.FullSet(n), func(p procs.Set) bool {
		if got, want := a.Alpha(p), ref.alpha(p); got != want {
			t.Errorf("%s: α(%v) = %d, reference %d", name, p, got, want)
			bad = true
		}
		if got, want := a.Contains(p), ref.contains(p); got != want {
			t.Errorf("%s: Contains(%v) = %v, reference %v", name, p, got, want)
			bad = true
		}
		return !bad
	})
	gp, gq, gfair := a.FairnessWitness()
	wp, wq, wfair := ref.fairnessWitness()
	if gp != wp || gq != wq || gfair != wfair {
		t.Errorf("%s: FairnessWitness = (%v, %v, %v), reference (%v, %v, %v)", name, gp, gq, gfair, wp, wq, wfair)
	}
	if got, want := a.Setcon(), ref.alpha(procs.FullSet(n)); got != want {
		t.Errorf("%s: Setcon = %d, reference %d", name, got, want)
	}
	if got, want := a.CSize(), hitting.Size(ref.live); got != want {
		t.Errorf("%s: CSize = %d, reference %d", name, got, want)
	}
	if got, want := a.IsSupersetClosed(), ref.supersetClosed(); got != want {
		t.Errorf("%s: IsSupersetClosed = %v, reference %v", name, got, want)
	}
	if got, want := a.IsSymmetric(), ref.symmetric(); got != want {
		t.Errorf("%s: IsSymmetric = %v, reference %v", name, got, want)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// selected returns the live sets bit i of idx picks from the domain.
func selected(domain []procs.Set, idx uint64) []procs.Set {
	var sets []procs.Set
	for i, s := range domain {
		if idx&(1<<uint(i)) != 0 {
			sets = append(sets, s)
		}
	}
	return sets
}

// TestClassificationMatchesReference: the dense α and fairness tables
// classify exactly as the memoized recursion did — every adversary for
// n ≤ 4, a seeded sample of 2^15 n=5 indices of mixed density, and the
// named families up to n=7, where the fairness table no longer fits the
// stack buffer.
func TestClassificationMatchesReference(t *testing.T) {
	for n := 1; n <= 4; n++ {
		domain := EnumerationDomain(n)
		for idx := uint64(0); idx < CensusSize(n); idx++ {
			checkAgainstReference(t, n, selected(domain, idx))
		}
	}

	samples := 1 << 15
	if testing.Short() {
		samples = 1 << 11 // keeps -race runs at several GOMAXPROCS values short
	}
	domain := EnumerationDomain(5)
	mask := CensusSize(5) - 1
	rng := rand.New(rand.NewPCG(17, 5))
	for i := 0; i < samples; i++ {
		idx := rng.Uint64()
		switch i % 3 {
		case 1:
			idx &= rng.Uint64() // sparse
		case 2:
			idx |= rng.Uint64() // dense
		}
		checkAgainstReference(t, 5, selected(domain, idx&mask))
	}

	for n := 5; n <= 7; n++ {
		families := [][]procs.Set{WaitFree(n).LiveSets()}
		for k := 0; k < n; k++ {
			families = append(families, TResilient(n, k).LiveSets(), KObstructionFree(n, k+1).LiveSets())
		}
		for _, sets := range families {
			checkAgainstReference(t, n, sets)
		}
	}
}

// TestPredicatesDoNotAllocate: after New, the classification reads are
// table lookups and stack-buffered passes.
func TestPredicatesDoNotAllocate(t *testing.T) {
	for _, a := range []*Adversary{WaitFree(5), TResilient(5, 2), AdversaryAt(5, 0x5a5a5a5)} {
		reads := map[string]func(){
			"Alpha":            func() { _ = a.Alpha(procs.SetOf(0, 2, 4)) },
			"Setcon":           func() { _ = a.Setcon() },
			"IsFair":           func() { _ = a.IsFair() },
			"FairnessWitness":  func() { _, _, _ = a.FairnessWitness() },
			"CSize":            func() { _ = a.CSize() },
			"IsSupersetClosed": func() { _ = a.IsSupersetClosed() },
			"IsSymmetric":      func() { _ = a.IsSymmetric() },
		}
		for name, read := range reads {
			if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
				t.Errorf("%v: %s allocates %.1f times per call", a, name, allocs)
			}
		}
	}
}

// TestAdversaryConcurrentReads: one *Adversary shared by eight
// goroutines answers every read as a serial reader does. Run under
// -race, this checks that no method writes to the value.
func TestAdversaryConcurrentReads(t *testing.T) {
	unfair := MustNew(4, procs.SetOf(0, 1), procs.SetOf(2), procs.SetOf(1, 3), procs.SetOf(0, 2, 3))
	if unfair.IsFair() {
		t.Fatalf("%v should be unfair", unfair)
	}
	type reads struct {
		alpha     []int
		wp, wq    procs.Set
		fair      bool
		setcon    int
		csize     int
		rendered  string
		superset  bool
		symmetric bool
	}
	readAll := func(a *Adversary) reads {
		var r reads
		procs.ForEachSubset(procs.FullSet(a.N()), func(p procs.Set) bool {
			r.alpha = append(r.alpha, a.Alpha(p))
			return true
		})
		r.wp, r.wq, r.fair = a.FairnessWitness()
		r.setcon = a.Setcon()
		r.csize = a.CSize()
		r.rendered = a.String()
		r.superset = a.IsSupersetClosed()
		r.symmetric = a.IsSymmetric()
		return r
	}
	for _, a := range []*Adversary{WaitFree(5), TResilient(5, 2), unfair} {
		// The serial reads run on a twin, so the shared value is first
		// read by the concurrent goroutines.
		want := fmt.Sprint(readAll(MustNew(a.N(), a.LiveSets()...)))
		var wg sync.WaitGroup
		got := make([]string, 8)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = fmt.Sprint(readAll(a))
			}()
		}
		wg.Wait()
		for g, r := range got {
			if r != want {
				t.Errorf("%v: goroutine %d read %s, serial %s", a, g, r, want)
			}
		}
	}
}
