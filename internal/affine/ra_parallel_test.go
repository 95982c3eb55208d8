package affine

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/procs"
)

// TestBuildRAParallelMatchesSerial: the parallel facet filter is gated
// by byte-identity with the serial reference — same rows, same order,
// at any worker count, for both guard variants.
func TestBuildRAParallelMatchesSerial(t *testing.T) {
	n := 4
	full := procs.FullSet(n)
	alphas := map[string]adversary.AlphaFunc{
		"waitfree": adversary.WaitFree(n).Alpha,
		"1-res":    adversary.TResilient(n, 1).Alpha,
		"2-OF":     adversary.KObstructionFree(n, 2).Alpha,
	}
	for name, alpha := range alphas {
		for _, variant := range []Def9Variant{VariantIntersection, VariantUnion} {
			serial := buildRAFacetRows(alpha, full, variant, 1)
			for _, workers := range []int{2, 8, 1000} {
				par := buildRAFacetRows(alpha, full, variant, workers)
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("%s variant=%d: rows differ between 1 and %d workers", name, variant, workers)
				}
			}
		}
	}
}

// TestBuildRATaskMatchesSerialScan: BuildRA (parallel by default)
// produces exactly the task of the historical serial double loop.
func TestBuildRATaskMatchesSerialScan(t *testing.T) {
	n := 4
	u := chromatic.NewUniverse(n)
	alpha := adversary.KObstructionFree(n, 2).Alpha
	full := procs.FullSet(n)
	parts := procs.EnumerateOrderedPartitions(full)

	var facets []chromatic.Run2
	for _, r1 := range parts {
		pc := newR1Context(alpha, full, viewRow(r1))
		for _, r2 := range parts {
			if raFacetOK(pc, viewRow(r2), VariantUnion) {
				facets = append(facets, chromatic.Run2{R1: r1, R2: r2})
			}
		}
	}
	want, err := NewTask("ref", u, facets)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildRA(u, alpha, VariantUnion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Facets(), got.Facets()) {
		t.Fatalf("BuildRA facets differ from the serial scan (%d vs %d)", got.NumFacets(), want.NumFacets())
	}
}
