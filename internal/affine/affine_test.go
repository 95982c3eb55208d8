package affine

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/sc"
)

func seq(ids ...procs.ID) procs.OrderedPartition { return procs.SingletonOrder(ids...) }

func fig5bAdversary(t *testing.T) *adversary.Adversary {
	t.Helper()
	a, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFigure4aContention: two reversed sequential runs — every subset of
// processes is contending.
func TestFigure4aContention(t *testing.T) {
	full := procs.FullSet(3)
	want := procs.Set(1)
	newFacetContention(full).forEach(full, viewRow(seq(1, 0, 2)), viewRow(seq(2, 0, 1)), func(theta, _ procs.Set) bool {
		if theta != want {
			t.Errorf("contention simplex %v visited, want %v", theta, want)
		}
		want++
		return true
	})
	if want != 8 {
		t.Errorf("visited %d contention simplices, want all 7 non-empty subsets", want-1)
	}
}

// viewRow returns the per-process views of op as a dense row indexed by
// process ID, the form chromatic.PartitionViews holds.
func viewRow(op procs.OrderedPartition) []procs.Set {
	row := make([]procs.Set, procs.MaxProcs)
	op.Ground().ForEach(func(p procs.ID) { row[p], _ = op.ViewOf(p) })
	return row
}

// TestFigure4bContention: runs {p1},{p2},{p3} then {p2},{p3,p1} — the
// only contending couple is {p1,p2}.
func TestFigure4bContention(t *testing.T) {
	run := chromatic.Run2{
		R1: seq(0, 1, 2),
		R2: procs.OrderedPartition{procs.SetOf(1), procs.SetOf(0, 2)},
	}
	u := chromatic.NewUniverse(3)
	ids := run.FacetIDs(u)
	verts := make([]chromatic.Vertex2, 3)
	for i, id := range ids {
		verts[i] = u.Vertex(id)
	}
	type pair struct{ a, b int }
	want := map[pair]bool{{0, 1}: true, {0, 2}: false, {1, 2}: false}
	for p, w := range want {
		if got := Contending(verts[p.a], verts[p.b]); got != w {
			t.Errorf("pair (%d,%d): contending = %v, want %v", p.a, p.b, got, w)
		}
	}
	if !IsContentionSimplex(verts[:2]) {
		t.Errorf("{p1,p2} must be a contention simplex")
	}
	if IsContentionSimplex(verts) {
		t.Errorf("full facet must not be a contention simplex")
	}
	if !IsContentionSimplex(verts[:1]) || !IsContentionSimplex(nil) {
		t.Errorf("singletons and empty sets are vacuously contention simplices")
	}
}

// TestFigure4cCont2Census pins the measured census of the 2-contention
// complex for n=3 (Figure 4c): 78 contending pairs, 6 contending
// triangles (the 3! pairs of fully reversed sequential runs yield 6
// distinct triangles).
func TestFigure4cCont2Census(t *testing.T) {
	u := chromatic.NewUniverse(3)
	simps := Cont2Simplices(u, 1)
	pairs, tris := 0, 0
	for _, s := range simps {
		switch s.Dim() {
		case 1:
			pairs++
		case 2:
			tris++
		}
	}
	if pairs != 78 || tris != 6 {
		t.Errorf("Cont² census = (%d pairs, %d triangles), want (78, 6)", pairs, tris)
	}
}

// TestCont2InclusionClosed: faces of contention simplices are contention
// simplices (Cont² is a complex).
func TestCont2InclusionClosed(t *testing.T) {
	u := chromatic.NewUniverse(3)
	for _, s := range Cont2Simplices(u, 2) {
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if !Contending(u.Vertex(s[i]), u.Vertex(s[j])) {
					t.Fatalf("face of contention simplex not contending")
				}
			}
		}
	}
}

// TestFigure5aCritical1OF: for α(P)=min(|P|,1) (1-obstruction-freedom),
// the critical simplices of a Chr-s facet are exactly its first block.
func TestFigure5aCritical1OF(t *testing.T) {
	alpha := adversary.KObstructionFree(3, 1).Alpha
	for _, op := range procs.EnumerateOrderedPartitions(procs.FullSet(3)) {
		s := FromPartition(op)
		cs := CriticalSimplices(alpha, s)
		if len(cs) != 1 || cs[0] != op[0] {
			t.Errorf("partition %v: critical = %v, want [%v]", op, cs, op[0])
		}
		info := Critical(alpha, s)
		if info.CSM != op[0] || info.CSV != op[0] || info.Conc != 1 {
			t.Errorf("partition %v: info = %+v", op, info)
		}
	}
}

// TestFigure5bCritical: critical simplices for the adversary
// {p2},{p1,p3} + supersets on representative schedules.
func TestFigure5bCritical(t *testing.T) {
	alpha := fig5bAdversary(t).Alpha
	// Run {p2},{p1},{p3}: critical = {p2} (new α level 1) and {p3}
	// (completes Π, new α level 2).
	s := FromPartition(seq(1, 0, 2))
	cs := CriticalSimplices(alpha, s)
	wantSets := map[procs.Set]bool{procs.SetOf(1): true, procs.SetOf(2): true}
	if len(cs) != 2 || !wantSets[cs[0]] || !wantSets[cs[1]] {
		t.Errorf("critical simplices = %v, want {p2} and {p3}", cs)
	}
	info := Critical(alpha, s)
	if info.Conc != 2 {
		t.Errorf("Conc = %d, want 2", info.Conc)
	}
	// Synchronous run: the single group Π with α=2; every non-empty
	// subset θ has α(Π\θ) ≤ 1 < 2, so all 7 subsets are critical.
	sync := FromPartition(procs.Synchronous(procs.FullSet(3)))
	if got := len(CriticalSimplices(alpha, sync)); got != 7 {
		t.Errorf("sync critical count = %d, want 7", got)
	}
	// Run {p1},{p2},{p3}: {p1} has α({p1})=0 — never critical; {p2}
	// completes {p1,p2} (α 0→1): critical; {p3} completes Π (1→2).
	s3 := FromPartition(seq(0, 1, 2))
	cs3 := CriticalSimplices(alpha, s3)
	if len(cs3) != 2 || cs3[0] != procs.SetOf(1) || cs3[1] != procs.SetOf(2) {
		t.Errorf("critical = %v, want [{p2} {p3}]", cs3)
	}
}

// TestCriticalGroupConsistency cross-validates the group-based critical
// computation against the literal Definition 7 on every simplex of
// Chr s (n = 3 and 4).
func TestCriticalGroupConsistency(t *testing.T) {
	advs := []*adversary.Adversary{
		adversary.KObstructionFree(3, 1),
		adversary.TResilient(3, 1),
		fig5bAdversary(t),
		adversary.KObstructionFree(4, 2),
		adversary.TResilient(4, 2),
	}
	for _, a := range advs {
		alpha := a.Alpha
		ground := procs.FullSet(a.N())
		ForEachChr1Simplex(ground, func(s Chr1Simplex) bool {
			// Reference: enumerate all θ via Definition 7 directly.
			var refCSM, refCSV procs.Set
			refConc := 0
			for _, theta := range procs.NonemptySubsets(s.Procs()) {
				if !IsCriticalSimplex(alpha, s, theta) {
					continue
				}
				refCSM = refCSM.Union(theta)
				var carrier procs.Set
				theta.ForEach(func(q procs.ID) { carrier = s.Views[q] })
				refCSV = refCSV.Union(carrier)
				if av := alpha(carrier); av > refConc {
					refConc = av
				}
			}
			info := Critical(alpha, s)
			if info.CSM != refCSM || info.CSV != refCSV || info.Conc != refConc {
				t.Fatalf("%v: mismatch: got CSM=%v CSV=%v Conc=%d, ref CSM=%v CSV=%v Conc=%d",
					s.Views, info.CSM, info.CSV, info.Conc, refCSM, refCSV, refConc)
			}
			return true
		})
	}
}

// TestFigure6ConcurrencyLevels: concurrency map values on
// representative simplices (Figure 6).
func TestFigure6ConcurrencyLevels(t *testing.T) {
	oneOF := adversary.KObstructionFree(3, 1).Alpha
	// Lone vertex (p1, {p1,p2}): group incomplete — level 0 (black).
	v := Chr1Simplex{Views: map[procs.ID]procs.Set{0: procs.SetOf(0, 1)}}
	if got := Critical(oneOF, v).Conc; got != 0 {
		t.Errorf("1-OF Conc of incomplete block vertex = %d, want 0", got)
	}
	// Lone corner (p1, {p1}): critical — level 1 (orange/green region).
	c := Chr1Simplex{Views: map[procs.ID]procs.Set{0: procs.SetOf(0)}}
	if got := Critical(oneOF, c).Conc; got != 1 {
		t.Errorf("1-OF Conc of corner = %d, want 1", got)
	}
	fig5b := fig5bAdversary(t).Alpha
	// (p2, {p2}) is a witness of agreement power 1.
	p2solo := Chr1Simplex{Views: map[procs.ID]procs.Set{1: procs.SetOf(1)}}
	if got := Critical(fig5b, p2solo).Conc; got != 1 {
		t.Errorf("fig5b Conc of p2 corner = %d, want 1", got)
	}
	// (p1, {p1}) has α({p1}) = 0: level 0.
	p1solo := Chr1Simplex{Views: map[procs.ID]procs.Set{0: procs.SetOf(0)}}
	if got := Critical(fig5b, p1solo).Conc; got != 0 {
		t.Errorf("fig5b Conc of p1 corner = %d, want 0", got)
	}
	// Full synchronous facet: level 2 (green center).
	sync := FromPartition(procs.Synchronous(procs.FullSet(3)))
	if got := Critical(fig5b, sync).Conc; got != 2 {
		t.Errorf("fig5b Conc of sync facet = %d, want 2", got)
	}
}

// TestRAEqualsRkOF1 is experiment E9 for k=1: Definition 9 (union
// reading) coincides with Definition 6 for 1-obstruction-freedom.
func TestRAEqualsRkOF1(t *testing.T) {
	for _, n := range []int{3, 4} {
		u := chromatic.NewUniverse(n)
		kof := adversary.KObstructionFree(n, 1)
		rkof, err := BuildRkOF(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := BuildRA(u, kof.Alpha, VariantUnion)
		if err != nil {
			t.Fatal(err)
		}
		if !ra.Equal(rkof) {
			t.Errorf("n=%d: R_A(1-OF) != R_{1-OF}: %d vs %d facets",
				n, ra.NumFacets(), rkof.NumFacets())
		}
	}
}

// TestRAStrictlyInsideRkOF2 pins the measured finding of E9 for k ≥ 2:
// R_A is a strict sub-complex of R_{k-OF} (Definition 9 additionally
// rejects runs that Algorithm 1's wait-phase cannot generate). At n=3,
// k=2: 142 vs 163 facets, with R_A ⊆ R_{k-OF}.
func TestRAStrictlyInsideRkOF2(t *testing.T) {
	u := chromatic.NewUniverse(3)
	kof := adversary.KObstructionFree(3, 2)
	rkof, err := BuildRkOF(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := BuildRA(u, kof.Alpha, VariantUnion)
	if err != nil {
		t.Fatal(err)
	}
	if got := rkof.NumFacets(); got != 163 {
		t.Errorf("R_{2-OF} facets = %d, want 163", got)
	}
	if got := ra.NumFacets(); got != 142 {
		t.Errorf("R_A(2-OF) facets = %d, want 142", got)
	}
	if miss := ra.MissingFrom(rkof); len(miss) != 0 {
		t.Errorf("R_A must be inside R_{2-OF}; %d facets escape", len(miss))
	}
	// The canonical rejected witness: p3 last in IS1 but solo-first in
	// IS2 — exactly a schedule blocked by Algorithm 1 (rank ≥ conc).
	witness := chromatic.Run2{R1: seq(0, 1, 2), R2: seq(2, 0, 1)}
	if ra.ContainsRun(witness) {
		t.Errorf("witness run should be rejected by Definition 9")
	}
	if !rkof.ContainsRun(witness) {
		t.Errorf("witness run should be accepted by Definition 6")
	}
}

// TestRTresMatchesRA is experiment E2: for t-resilient adversaries,
// Definition 9 (union reading) reproduces the Saraph-Herlihy-Gafni
// affine task R_{t-res} exactly, for every t, at n=3 and n=4.
func TestRTresMatchesRA(t *testing.T) {
	for _, n := range []int{3, 4} {
		for tt := 0; tt < n; tt++ {
			u := chromatic.NewUniverse(n)
			tr := adversary.TResilient(n, tt)
			rtres, err := BuildRTres(u, tt)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := BuildRA(u, tr.Alpha, VariantUnion)
			if err != nil {
				t.Fatal(err)
			}
			if !ra.Equal(rtres) {
				t.Errorf("n=%d t=%d: R_A != R_{t-res}: %d vs %d facets",
					n, tt, ra.NumFacets(), rtres.NumFacets())
			}
		}
	}
}

// TestIntersectionVariantDiffers documents why the union reading is the
// default: the literal Definition 9 intersection guard fails the
// R_{1-OF} cross-check.
func TestIntersectionVariantDiffers(t *testing.T) {
	u := chromatic.NewUniverse(3)
	kof := adversary.KObstructionFree(3, 1)
	rkof, err := BuildRkOF(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := BuildRA(u, kof.Alpha, VariantIntersection)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Equal(rkof) {
		t.Errorf("intersection variant unexpectedly matches R_{1-OF}; revisit the DefaultVariant choice in ra.go")
	}
	if got := ra.NumFacets(); got != 49 {
		t.Errorf("intersection variant facets = %d, want measured 49", got)
	}
}

// TestFigure1bRTresCount pins the measured size of R_{1-res} for n=3
// (Figure 1b) and checks purity.
func TestFigure1bRTresCount(t *testing.T) {
	u := chromatic.NewUniverse(3)
	task, err := BuildRTres(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := task.NumFacets(); got != 142 {
		t.Errorf("R_{1-res} facets = %d, want 142", got)
	}
	cplx := task.Complex()
	if !cplx.IsPure() || cplx.Dimension() != 2 {
		t.Errorf("R_{1-res} must be pure of dimension 2")
	}
	// Wait-free degenerate cases: t = n-1 gives all of Chr² s.
	all, err := BuildRTres(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumFacets() != 169 {
		t.Errorf("R_{2-res} facets = %d, want 169", all.NumFacets())
	}
}

// TestWaitFreeRAIsFullChr2: the wait-free adversary's affine task is all
// of Chr² s — the FACT theorem degenerates to the ACT.
func TestWaitFreeRAIsFullChr2(t *testing.T) {
	u := chromatic.NewUniverse(3)
	wf := adversary.WaitFree(3)
	ra, err := BuildRA(u, wf.Alpha, DefaultVariant)
	if err != nil {
		t.Fatal(err)
	}
	if ra.NumFacets() != 169 {
		t.Errorf("wait-free R_A facets = %d, want 169", ra.NumFacets())
	}
}

// TestFigure7RA pins the measured affine-task sizes of Figure 7 and
// structural invariants.
func TestFigure7RA(t *testing.T) {
	u := chromatic.NewUniverse(3)
	oneOF, err := BuildRA(u, adversary.KObstructionFree(3, 1).Alpha, DefaultVariant)
	if err != nil {
		t.Fatal(err)
	}
	if oneOF.NumFacets() != 73 {
		t.Errorf("R_A(1-OF) facets = %d, want 73", oneOF.NumFacets())
	}
	fig5b, err := BuildRA(u, fig5bAdversary(t).Alpha, DefaultVariant)
	if err != nil {
		t.Fatal(err)
	}
	if fig5b.NumFacets() != 145 {
		t.Errorf("R_A(fig5b) facets = %d, want measured 145", fig5b.NumFacets())
	}
	for _, task := range []*Task{oneOF, fig5b} {
		c := task.Complex()
		if !c.IsPure() || c.Dimension() != 2 || !c.IsChromatic() {
			t.Errorf("%s: must be pure chromatic of dim 2", task.Name)
		}
	}
	// The synchronous-synchronous run has no contention and full
	// participation witnesses: in both tasks.
	sync := chromatic.Run2{
		R1: procs.Synchronous(procs.FullSet(3)),
		R2: procs.Synchronous(procs.FullSet(3)),
	}
	if !oneOF.ContainsRun(sync) || !fig5b.ContainsRun(sync) {
		t.Errorf("sync/sync run must belong to every R_A")
	}
}

// TestTaskBasics covers the Task container API.
func TestTaskBasics(t *testing.T) {
	u := chromatic.NewUniverse(3)
	if _, err := NewTask("empty", u, nil); err == nil {
		t.Errorf("empty task must be rejected")
	}
	sync := chromatic.Run2{
		R1: procs.Synchronous(procs.FullSet(3)),
		R2: procs.Synchronous(procs.FullSet(3)),
	}
	task, err := NewTask("one", u, []chromatic.Run2{sync})
	if err != nil {
		t.Fatal(err)
	}
	if task.N() != 3 || task.NumFacets() != 1 || task.Universe() != u {
		t.Errorf("metadata wrong")
	}
	if !task.ContainsRun(sync) {
		t.Errorf("ContainsRun false negative")
	}
	other := chromatic.Run2{R1: seq(0, 1, 2), R2: seq(0, 1, 2)}
	if task.ContainsRun(other) {
		t.Errorf("ContainsRun false positive")
	}
	if task.VertexCensus() != 3 {
		t.Errorf("vertex census = %d", task.VertexCensus())
	}
	ids := sync.FacetIDs(u)
	if !task.ContainsSimplex(ids) || !task.ContainsSimplex(ids[:1]) {
		t.Errorf("ContainsSimplex should accept faces of facets")
	}
	if task.ContainsSimplex(nil) {
		t.Errorf("empty simplex not contained")
	}
	// Membership predicate: sub-ground runs must resolve via faces.
	member := task.Membership()
	if !member(sync, sync.Key()) {
		t.Errorf("membership of facet run")
	}
	soloP1 := chromatic.Run2{R1: seq(0), R2: seq(0)}
	// (p1 alone in both rounds) is a face of sync/sync? p1's content
	// there is {p1 -> {p1,p2,p3}}, not {p1 -> {p1}}: not a face.
	if member(soloP1, soloP1.Key()) {
		t.Errorf("solo run should not be a face of the sync facet")
	}
	// A task equals itself and differs from another.
	if !task.Equal(task) {
		t.Errorf("Equal reflexive")
	}
	task2, err := NewTask("two", u, []chromatic.Run2{other})
	if err != nil {
		t.Fatal(err)
	}
	if task.Equal(task2) {
		t.Errorf("Equal false positive")
	}
	if len(task.MissingFrom(task2)) != 1 {
		t.Errorf("MissingFrom wrong")
	}
}

// TestLemma3Distribution is experiment E14: the Lemma 3 inequality holds
// for every simplex with full carrier coverage and every level, for a
// battery of fair adversaries at n=3 (and a spot check at n=4).
func TestLemma3Distribution(t *testing.T) {
	advs := []*adversary.Adversary{
		adversary.WaitFree(3),
		adversary.TResilient(3, 1),
		adversary.KObstructionFree(3, 1),
		adversary.KObstructionFree(3, 2),
		fig5bAdversary(t),
		adversary.TResilient(4, 2),
	}
	for _, a := range advs {
		ground := procs.FullSet(a.N())
		ForEachChr1Simplex(ground, func(s Chr1Simplex) bool {
			for l := 1; l <= a.N(); l++ {
				if ok, skip := CheckLemma3(a.Alpha, s, l); !skip && !ok {
					t.Fatalf("%v: Lemma 3 fails at %v l=%d", a, s.Views, l)
				}
				if !CheckCorollary4(a.Alpha, s, l) {
					t.Fatalf("%v: Corollary 4 fails at %v l=%d", a, s.Views, l)
				}
			}
			return true
		})
	}
}

// TestLemma11 is experiment E15.
func TestLemma11(t *testing.T) {
	advs := []*adversary.Adversary{
		adversary.WaitFree(3),
		adversary.TResilient(3, 1),
		adversary.KObstructionFree(3, 2),
		fig5bAdversary(t),
		adversary.TResilient(4, 1),
	}
	for _, a := range advs {
		ForEachChr1Simplex(procs.FullSet(a.N()), func(s Chr1Simplex) bool {
			if !CheckLemma11(a.Alpha, s) {
				t.Fatalf("%v: Lemma 11 fails at %v", a, s.Views)
			}
			return true
		})
	}
}

// TestIterateRA: iterating R_A over the standard simplex (the affine
// model) produces pure chromatic complexes with consistent carriers.
func TestIterateRA(t *testing.T) {
	u := chromatic.NewUniverse(3)
	ra, err := BuildRA(u, adversary.KObstructionFree(3, 1).Alpha, DefaultVariant)
	if err != nil {
		t.Fatal(err)
	}
	input := standardComplex(t, 3)
	var unshared *chromatic.TowerCache
	tower := unshared.Acquire(ra.Signature(), input, 0)
	if err := tower.EnsureHeightTables(ra, 1); err != nil {
		t.Fatal(err)
	}
	top := tower.Tower().Top()
	if !top.IsChromatic() {
		t.Errorf("R_A(s) must be chromatic")
	}
	topFacets := 0
	for _, f := range top.Facets() {
		if f.Dim() == 2 {
			topFacets++
		}
	}
	if topFacets != ra.NumFacets() {
		t.Errorf("R_A(s) top facets = %d, want %d", topFacets, ra.NumFacets())
	}
}

func standardComplex(t *testing.T, n int) *sc.Complex {
	t.Helper()
	c := sc.NewComplex(n)
	ids := make([]sc.VertexID, n)
	for i := 0; i < n; i++ {
		ids[i] = sc.VertexID(i)
		if err := c.AddVertex(ids[i], i, procs.ID(i).String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddSimplex(ids...); err != nil {
		t.Fatal(err)
	}
	return c
}
