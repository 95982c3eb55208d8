package sc

import (
	"errors"
	"testing"

	"repro/internal/procs"
)

// standard builds the standard (n-1)-simplex s as a complex: vertex i has
// color i.
func standard(t *testing.T, n int) *Complex {
	t.Helper()
	c := NewComplex(n)
	ids := make([]VertexID, n)
	for i := 0; i < n; i++ {
		ids[i] = VertexID(i)
		if err := c.AddVertex(ids[i], i, procs.ID(i).String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddSimplex(ids...); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimplexCanonical(t *testing.T) {
	s := NewSimplex(3, 1, 2, 1)
	if len(s) != 3 || s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Fatalf("NewSimplex not canonical: %v", s)
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d", s.Dim())
	}
	if !s.Contains(2) || s.Contains(4) {
		t.Errorf("Contains wrong")
	}
	if !NewSimplex(1, 3).IsFaceOf(s) || NewSimplex(1, 4).IsFaceOf(s) {
		t.Errorf("IsFaceOf wrong")
	}
	if !s.Union(NewSimplex(4)).Equal(NewSimplex(1, 2, 3, 4)) {
		t.Errorf("Union wrong")
	}
	if !s.Intersect(NewSimplex(2, 3, 4)).Equal(NewSimplex(2, 3)) {
		t.Errorf("Intersect wrong")
	}
	if got := len(s.Faces()); got != 7 {
		t.Errorf("Faces count = %d, want 7", got)
	}
}

func TestStandardSimplexStructure(t *testing.T) {
	for n := 1; n <= 5; n++ {
		c := standard(t, n)
		if c.NumVertices() != n {
			t.Errorf("n=%d: vertices = %d", n, c.NumVertices())
		}
		if got, want := c.NumSimplices(), (1<<uint(n))-1; got != want {
			t.Errorf("n=%d: simplices = %d, want %d", n, got, want)
		}
		if c.Dimension() != n-1 {
			t.Errorf("n=%d: dim = %d", n, c.Dimension())
		}
		if !c.IsPure() {
			t.Errorf("n=%d: not pure", n)
		}
		if !c.IsChromatic() {
			t.Errorf("n=%d: not chromatic", n)
		}
		facets := c.Facets()
		if len(facets) != 1 || facets[0].Dim() != n-1 {
			t.Errorf("n=%d: facets wrong: %v", n, facets)
		}
	}
}

func TestAddVertexErrors(t *testing.T) {
	c := NewComplex(2)
	if err := c.AddVertex(0, 5, "x"); !errors.Is(err, ErrColorOutOfRange) {
		t.Errorf("want ErrColorOutOfRange, got %v", err)
	}
	if err := c.AddVertex(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVertex(0, 1, "x"); err != nil {
		t.Errorf("idempotent re-add should succeed: %v", err)
	}
	if err := c.AddVertex(0, 0, "x"); !errors.Is(err, ErrVertexConflict) {
		t.Errorf("want ErrVertexConflict, got %v", err)
	}
	if err := c.AddSimplex(0, 7); !errors.Is(err, ErrUnknownVertex) {
		t.Errorf("want ErrUnknownVertex, got %v", err)
	}
	if err := c.AddSimplex(); !errors.Is(err, ErrEmptySimplex) {
		t.Errorf("want ErrEmptySimplex, got %v", err)
	}
}

func TestFacetsNonPure(t *testing.T) {
	// Two triangles sharing an edge, plus a dangling edge: facets are the
	// two triangles and the dangling edge; complex is not pure.
	c := NewComplex(3)
	for i := 0; i < 5; i++ {
		if err := c.AddVertex(VertexID(i), i%3, "v"); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, c, 0, 1, 2)
	mustAdd(t, c, 1, 2, 3)
	mustAdd(t, c, 3, 4)
	facets := c.Facets()
	if len(facets) != 3 {
		t.Fatalf("facets = %v", facets)
	}
	if c.IsPure() {
		t.Errorf("should not be pure")
	}
	if !c.IsFacet(NewSimplex(3, 4)) || c.IsFacet(NewSimplex(1, 2)) {
		t.Errorf("IsFacet wrong")
	}
}

func mustAdd(t *testing.T, c *Complex, vs ...VertexID) {
	t.Helper()
	if err := c.AddSimplex(vs...); err != nil {
		t.Fatal(err)
	}
}

func TestClosureStarPureComplement(t *testing.T) {
	// The 2-simplex {0,1,2} with facets {0,1,2}; S = {{0}}.
	c := standard(t, 3)
	cl := c.Closure([]Simplex{NewSimplex(0, 1)})
	if cl.NumSimplices() != 3 {
		t.Errorf("closure simplices = %d, want 3", cl.NumSimplices())
	}
	star := c.Star([]Simplex{NewSimplex(0)})
	// Simplices containing vertex 0: {0},{0,1},{0,2},{0,1,2} = 4.
	if len(star) != 4 {
		t.Errorf("star size = %d, want 4", len(star))
	}
	// Pure complement of {vertex 0} in the full simplex: no facet avoids
	// vertex 0, so it is empty.
	pc := c.PureComplement([]Simplex{NewSimplex(0)})
	if pc.NumSimplices() != 0 {
		t.Errorf("pure complement should be empty, got %d simplices", pc.NumSimplices())
	}
}

func TestPureComplementPaperShape(t *testing.T) {
	// Two facets; prohibit a simplex inside only one of them.
	c := NewComplex(3)
	for i := 0; i < 4; i++ {
		if err := c.AddVertex(VertexID(i), i%3, "v"); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, c, 0, 1, 2)
	mustAdd(t, c, 1, 2, 3)
	pc := c.PureComplement([]Simplex{NewSimplex(0)})
	if got := len(pc.Facets()); got != 1 {
		t.Fatalf("facets = %d, want 1", got)
	}
	if !pc.HasSimplex(NewSimplex(1, 2, 3)) {
		t.Errorf("surviving facet wrong")
	}
	if !pc.IsPure() {
		t.Errorf("pure complement must be pure")
	}
	if !pc.SubcomplexOf(c) {
		t.Errorf("Pc must be a sub-complex")
	}
}

func TestSkeleton(t *testing.T) {
	c := standard(t, 4)
	sk := c.Skeleton(1)
	if sk.Dimension() != 1 {
		t.Errorf("skeleton dim = %d", sk.Dimension())
	}
	// 4 vertices + 6 edges.
	if sk.NumSimplices() != 10 {
		t.Errorf("skeleton simplices = %d, want 10", sk.NumSimplices())
	}
}

func TestColorSetAndChromatic(t *testing.T) {
	c := standard(t, 3)
	if got := c.ColorSet(NewSimplex(0, 2)); got != procs.SetOf(0, 2) {
		t.Errorf("ColorSet = %v", got)
	}
	// Break chromaticity: two vertices of the same color in a simplex.
	bad := NewComplex(3)
	if err := bad.AddVertex(0, 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := bad.AddVertex(1, 1, "b"); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, bad, 0, 1)
	if bad.IsChromatic() {
		t.Errorf("should not be chromatic")
	}
}

func TestCloneEqual(t *testing.T) {
	c := standard(t, 3)
	d := c.Clone()
	if !c.Equal(d) || !d.Equal(c) {
		t.Errorf("clone should be equal")
	}
	if err := d.AddVertex(99, 0, "extra"); err != nil {
		t.Fatal(err)
	}
	if c.Equal(d) {
		t.Errorf("modified clone should differ")
	}
}

func TestCarrierVerification(t *testing.T) {
	dom := standard(t, 2)
	cod := standard(t, 2)
	identity := Map{0: 0, 1: 1}
	full := func(Simplex) *Complex { return cod }
	if err := identity.VerifyCarried(dom, full); err != nil {
		t.Errorf("identity should be carried by the full carrier: %v", err)
	}
	// Carrier that only allows vertex 0: identity map on edge {0,1} violates it.
	tight := func(s Simplex) *Complex {
		return cod.Closure([]Simplex{NewSimplex(0)})
	}
	if err := identity.VerifyCarried(dom, tight); !errors.Is(err, ErrNotCarried) {
		t.Errorf("want ErrNotCarried, got %v", err)
	}
	if err := VerifyCarrierMonotone(dom, full); err != nil {
		t.Errorf("full carrier must be monotone: %v", err)
	}
}
