package chromatic

import (
	"testing"

	"repro/internal/procs"
	"repro/internal/sc"
)

// TestChrStandardCounts reproduces the structure behind Figure 1a:
// Chr s for n processes has n * 2^(n-1) vertices... no — the exact law:
// vertices are pairs (i, t) with i ∈ t ⊆ Π, hence n * 2^(n-1) of them,
// and its facets (top-dimensional simplices) are the ordered partitions
// of Π, hence ordered-Bell-many.
func TestChrStandardCounts(t *testing.T) {
	wantFacets := []int{0, 1, 3, 13, 75, 541}
	for n := 1; n <= 5; n++ {
		c := BuildChr1(n)
		wantVerts := n * (1 << uint(n-1))
		if got := c.NumVertices(); got != wantVerts {
			t.Errorf("n=%d: vertices = %d, want %d", n, got, wantVerts)
		}
		facets := c.Facets()
		top := 0
		for _, f := range facets {
			if f.Dim() == n-1 {
				top++
			}
		}
		if top != wantFacets[n] {
			t.Errorf("n=%d: top facets = %d, want %d", n, top, wantFacets[n])
		}
		if !c.IsPure() {
			t.Errorf("n=%d: Chr s must be pure", n)
		}
		if !c.IsChromatic() {
			t.Errorf("n=%d: Chr s must be chromatic", n)
		}
	}
}

// TestFigure3Runs checks the two example IS runs of Figure 3.
func TestFigure3Runs(t *testing.T) {
	// Figure 3a — ordered run {p2}, {p1}, {p3}:
	// p2 sees {p2}, p1 sees {p1,p2}, p3 sees {p1,p2,p3}.
	op := procs.SingletonOrder(1, 0, 2)
	views := op.Views()
	if views[1] != procs.SetOf(1) || views[0] != procs.SetOf(0, 1) || views[2] != procs.FullSet(3) {
		t.Errorf("figure 3a views wrong: %v", views)
	}
	// Figure 3b — synchronous run {p1,p2,p3}: everyone sees everyone.
	for p, v := range procs.Synchronous(procs.FullSet(3)).Views() {
		if v != procs.FullSet(3) {
			t.Errorf("figure 3b: %v sees %v", p, v)
		}
	}
}

func TestChr2FacetCount(t *testing.T) {
	// Facets of Chr² s = (ordered Bell)^2: 9, 169, 5625 for n=2,3,4.
	want := map[int]int{2: 9, 3: 169}
	for n, w := range want {
		u := NewUniverse(n)
		c := BuildChr2(u)
		top := 0
		for _, f := range c.Facets() {
			if f.Dim() == n-1 {
				top++
			}
		}
		if top != w {
			t.Errorf("n=%d: Chr² facets = %d, want %d", n, top, w)
		}
		if !c.IsPure() || !c.IsChromatic() {
			t.Errorf("n=%d: Chr² s must be pure and chromatic", n)
		}
	}
}

func TestVertex2Views(t *testing.T) {
	// Run: R1 = {p2}, {p1}, {p3}; R2 = {p1,p2,p3}.
	r := Run2{
		R1: procs.SingletonOrder(1, 0, 2),
		R2: procs.Synchronous(procs.FullSet(3)),
	}
	if err := r.Validate(procs.FullSet(3)); err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(3)
	v := u.Vertex(r.VertexOf(u, 0)) // p1
	if v.View1 != procs.SetOf(0, 1) {
		t.Errorf("View1 = %v, want {p1,p2}", v.View1)
	}
	if v.View2 != procs.FullSet(3) {
		t.Errorf("View2 = %v, want all", v.View2)
	}
	if v.Carrier != procs.FullSet(3) {
		t.Errorf("Carrier = %v", v.Carrier)
	}
	// p2 runs alone first: in a solo-prefix run p2's vertex has minimal
	// views when R2 also starts with p2.
	r2 := Run2{
		R1: procs.SingletonOrder(1, 0, 2),
		R2: procs.SingletonOrder(1, 0, 2),
	}
	w := u.Vertex(r2.VertexOf(u, 1))
	if w.View1 != procs.SetOf(1) || w.View2 != procs.SetOf(1) || w.Carrier != procs.SetOf(1) {
		t.Errorf("solo p2 vertex wrong: %+v", w)
	}
}

func TestUniverseInterningStable(t *testing.T) {
	u := NewUniverse(3)
	content := map[procs.ID]procs.Set{0: procs.SetOf(0), 1: procs.SetOf(0, 1)}
	a := u.Intern(1, content)
	b := u.Intern(1, map[procs.ID]procs.Set{1: procs.SetOf(0, 1), 0: procs.SetOf(0)})
	if a != b {
		t.Errorf("interning not canonical: %d vs %d", a, b)
	}
	if u.NumVertices() != 1 {
		t.Errorf("NumVertices = %d", u.NumVertices())
	}
	c := u.Intern(0, content)
	if c == a {
		t.Errorf("different colors must intern differently")
	}
}

// TestChr2VertexIdentityAcrossRuns: the same (color, content) arising in
// different runs must intern to the same vertex; different contents with
// the same (View1, View2) must not.
func TestChr2VertexIdentityAcrossRuns(t *testing.T) {
	u := NewUniverse(3)
	// Vertex of p1 where p1 saw only itself in both rounds, from two
	// different runs.
	rA := Run2{R1: procs.SingletonOrder(0, 1, 2), R2: procs.SingletonOrder(0, 1, 2)}
	rB := Run2{R1: procs.SingletonOrder(0, 2, 1), R2: procs.SingletonOrder(0, 2, 1)}
	if rA.VertexOf(u, 0) != rB.VertexOf(u, 0) {
		t.Errorf("identical solo vertices should coincide")
	}
	// p3's vertex: View2 = {p1,p3} in both, but p1's View1 differs
	// ({p1} vs {p1,p2}): distinct vertices despite equal (View1,View2).
	rC := Run2{R1: procs.SingletonOrder(0, 1, 2), R2: procs.SingletonOrder(0, 2, 1)}
	rD := Run2{R1: procs.OrderedPartition{procs.SetOf(0, 1), procs.SetOf(2)}, R2: procs.SingletonOrder(0, 2, 1)}
	vc := rC.VertexOf(u, 2)
	vd := rD.VertexOf(u, 2)
	if vc == vd {
		t.Errorf("vertices with different contents must differ")
	}
	if u.Vertex(vc).View2 != u.Vertex(vd).View2 {
		t.Errorf("View2 should agree in this construction")
	}
}

func TestGeometryCoords(t *testing.T) {
	n := 3
	// Corner vertex (p1, {p1}) of Chr s must sit at corner p1.
	p := Coords1(n, 0, procs.SetOf(0))
	if p[0] != 1 || p[1] != 0 || p[2] != 0 {
		t.Errorf("corner coords = %v", p)
	}
	// Central vertex (p1, {p1,p2,p3}): 1/5 for itself, 2/5 for others.
	c := Coords1(n, 0, procs.FullSet(3))
	if !close(c[0], 0.2) || !close(c[1], 0.4) || !close(c[2], 0.4) {
		t.Errorf("central coords = %v", c)
	}
	sum := c[0] + c[1] + c[2]
	if !close(sum, 1) {
		t.Errorf("coords must be barycentric, sum = %v", sum)
	}
	// Chr² coordinates remain barycentric.
	u := NewUniverse(3)
	r := Run2{R1: procs.Synchronous(procs.FullSet(3)), R2: procs.Synchronous(procs.FullSet(3))}
	v := u.Vertex(r.VertexOf(u, 1))
	q := Coords2(n, v)
	if !close(q[0]+q[1]+q[2], 1) {
		t.Errorf("Chr² coords not barycentric: %v", q)
	}
	x, y := Planar(Corner(3, 1))
	if !close(x, 0.5) || !close(y, 0.8660254037844386) {
		t.Errorf("p2 should project to the top: (%v,%v)", x, y)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestApplyAffineFullChr2(t *testing.T) {
	// Applying full Chr² to the standard 2-simplex reproduces Chr² s.
	input := standardComplex(t, 3)
	it, err := ApplyAffineTables(input, FullChr2Tables, 0)
	if err != nil {
		t.Fatal(err)
	}
	top := 0
	for _, f := range it.Complex.Facets() {
		if f.Dim() == 2 {
			top++
		}
	}
	if top != 169 {
		t.Errorf("facets = %d, want 169", top)
	}
	if !it.Complex.IsChromatic() {
		t.Errorf("subdivision must be chromatic")
	}
	// Carrier of any full facet is the whole input simplex.
	for _, f := range it.Complex.Facets() {
		if f.Dim() == 2 {
			var got sc.Simplex
			for _, v := range f {
				got = got.Union(it.Carrier(v))
			}
			if len(got) != 3 {
				t.Fatalf("carrier of top facet = %v", got)
			}
			break
		}
	}
}

func TestTowerCarriers(t *testing.T) {
	input := standardComplex(t, 2)
	tower := newTower(input, 0)
	for i := 0; i < 2; i++ {
		if err := tower.extend(FullChr2Tables); err != nil {
			t.Fatal(err)
		}
	}
	if tower.Height() != 2 {
		t.Fatalf("height = %d", tower.Height())
	}
	top := tower.Top()
	roots := tower.RootCarriers(tower.Height())
	// Every top vertex's root carrier is a simplex of the input.
	for _, id := range top.VertexIDs() {
		rc := roots[id]
		if !input.HasSimplex(rc) {
			t.Fatalf("root carrier %v not in input", rc)
		}
		v, _ := top.Vertex(id)
		// Chromatic consistency: the vertex's own color appears in the
		// root carrier's colors.
		if !input.ColorSet(rc).Contains(procs.ID(v.Color)) {
			t.Fatalf("root carrier misses own color")
		}
	}
	// Facet count of Chr⁴ of an edge: ordered Bell(2)^4 = 81.
	top2 := 0
	for _, f := range top.Facets() {
		if f.Dim() == 1 {
			top2++
		}
	}
	if top2 != 81 {
		t.Errorf("Chr⁴ edge facets = %d, want 81", top2)
	}
}

func TestApplyAffineRejectsNonChromatic(t *testing.T) {
	bad := sc.NewComplex(2)
	if err := bad.AddVertex(0, 0, "a"); err != nil {
		t.Fatal(err)
	}
	if err := bad.AddVertex(1, 0, "b"); err != nil {
		t.Fatal(err)
	}
	if err := bad.AddSimplex(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyAffineTables(bad, FullChr2Tables, 0); err == nil {
		t.Errorf("expected chromaticity error")
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
