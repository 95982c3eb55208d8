package fact

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPackageSurface pins what package fact exports: the paper's Model,
// its constructors, its methods and the figure kinds. Everything else is
// imported from the package that defines it, so no exported declaration
// here may re-bind a name: no type alias, and no var or const whose
// value is a bare pkg.Name selector.
func TestPackageSurface(t *testing.T) {
	want := []string{
		"FigureAffineTask", "FigureChr", "FigureConcurrency", "FigureContention", "FigureCritical",
		"Model",
		"Model.Adversary", "Model.AffineTask", "Model.Alpha", "Model.FigureSVG", "Model.N",
		"Model.NewSetConsensusSim", "Model.SetWorkers", "Model.Setcon", "Model.Signature",
		"Model.Solve", "Model.SolveKSetConsensus", "Model.SolveWith", "Model.Stats",
		"Model.VerifyAlgorithmOne", "Model.VerifyMuQ", "Model.VerifySetConsensusSimulation",
		"Model.VerifyWitness",
		"NewModel", "NewModelWithUniverse",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got, rebinds []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					got = append(got, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					got = append(got, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						got = append(got, s.Name.Name)
						if s.Assign.IsValid() {
							rebinds = append(rebinds, s.Name.Name)
						}
					case *ast.ValueSpec:
						for i, id := range s.Names {
							if !id.IsExported() {
								continue
							}
							got = append(got, id.Name)
							if i < len(s.Values) && isSelector(s.Values[i]) {
								rebinds = append(rebinds, id.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("package fact exports %d names, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	if len(rebinds) > 0 {
		t.Errorf("%d exported names re-bind a name: %v", len(rebinds), rebinds)
	}
}

// isSelector reports whether e is a bare x.Name selector.
func isSelector(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	_, ok = sel.X.(*ast.Ident)
	return ok
}
