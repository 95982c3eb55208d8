package sc_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/sc"
	"repro/internal/tasks"
)

// facetsByExtension is the reference facet scan: in Simplices order,
// keep every simplex that no single-vertex extension turns into another
// simplex of the complex. It probes |simplices|·|V| extensions.
func facetsByExtension(c *sc.Complex) []sc.Simplex {
	ids := c.VertexIDs()
	var facets []sc.Simplex
	for _, s := range c.Simplices() {
		isFacet := true
		for _, v := range ids {
			if s.Contains(v) {
				continue
			}
			if c.HasSimplex(s.Union(sc.Simplex{v})) {
				isFacet = false
				break
			}
		}
		if isFacet {
			facets = append(facets, s)
		}
	}
	return facets
}

// randomComplex builds an arbitrary (not necessarily pure or chromatic)
// complex: up to 12 vertices, some of them isolated, and up to 8
// generating simplices of 1 to 5 vertices.
func randomComplex(rng *rand.Rand) *sc.Complex {
	c := sc.NewComplex(1)
	nv := rng.Intn(13)
	for v := 0; v < nv; v++ {
		if err := c.AddVertex(sc.VertexID(v), 0, "v"); err != nil {
			panic(err)
		}
	}
	if nv == 0 {
		return c
	}
	gens := rng.Intn(9)
	for g := 0; g < gens; g++ {
		size := 1 + rng.Intn(5)
		vs := make([]sc.VertexID, size)
		for i := range vs {
			vs[i] = sc.VertexID(rng.Intn(nv))
		}
		if err := c.AddSimplex(vs...); err != nil {
			panic(err)
		}
	}
	return c
}

func checkFacets(t *testing.T, name string, c *sc.Complex) {
	t.Helper()
	want := facetsByExtension(c)
	if got := c.Facets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Facets() = %v, want %v", name, got, want)
	}
}

// TestFacetsMatchExtensionScan: the one-pass facet selection returns
// exactly the reference scan's list, in the same order, on random
// complexes (non-pure, with isolated vertices, and empty).
func TestFacetsMatchExtensionScan(t *testing.T) {
	checkFacets(t, "empty", sc.NewComplex(2))

	isolated := sc.NewComplex(2)
	for v := 0; v < 4; v++ {
		if err := isolated.AddVertex(sc.VertexID(v), v%2, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := isolated.AddSimplex(0, 1); err != nil {
		t.Fatal(err)
	}
	checkFacets(t, "edge plus isolated vertices", isolated)

	rng := rand.New(rand.NewSource(7))
	var nonPure, withIsolated, empty int
	for i := 0; i < 500; i++ {
		c := randomComplex(rng)
		checkFacets(t, "random", c)
		if c.NumVertices() == 0 {
			empty++
			continue
		}
		if !c.IsPure() {
			nonPure++
		}
		for _, f := range c.Facets() {
			if len(f) == 1 && c.Dimension() > 0 {
				withIsolated++
				break
			}
		}
	}
	if nonPure == 0 || withIsolated == 0 || empty == 0 {
		t.Fatalf("generator coverage: %d non-pure, %d with isolated vertices, %d empty",
			nonPure, withIsolated, empty)
	}
}

// TestFacetsMatchExtensionScanOnLevels checks the same on the level
// complexes the solver searches: R_A(I) over the standard input for
// several n=3 adversaries and one n=4 adversary.
func TestFacetsMatchExtensionScanOnLevels(t *testing.T) {
	fig5b, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*adversary.Adversary{
		adversary.WaitFree(3),
		adversary.KObstructionFree(3, 1),
		adversary.TResilient(3, 1),
		fig5b,
		adversary.KObstructionFree(4, 2),
	} {
		ra, err := affine.BuildRAForAdversary(chromatic.NewUniverse(a.N()), a, affine.DefaultVariant)
		if err != nil {
			t.Fatal(err)
		}
		level, err := chromatic.ApplyAffineTables(tasks.StandardInput(a.N()), ra, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkFacets(t, a.String(), level.Complex)
	}
}
