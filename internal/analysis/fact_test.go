package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

type countFact struct{ N int }

func (*countFact) AFact() {}

// TestFactsAreKeptAsValues: the store holds a copy of what the exporter
// pointed at, and every import is a fresh copy of that — neither the
// exporter's pointer nor an importer's can change what the next import sees.
func TestFactsAreKeptAsValues(t *testing.T) {
	pkg, err := analysis.LoadDir("testdata/ignorefix")
	if err != nil {
		t.Fatal(err)
	}
	a := &analysis.Analyzer{Name: "facts", Doc: "test analyzer"}
	a.Run = func(pass *analysis.Pass) error {
		obj := pass.Pkg.Scope().Lookup("bad")
		if obj == nil {
			t.Fatal("fixture has no package-level bad")
		}
		var got countFact
		if pass.ImportObjectFact(obj, &got) {
			t.Error("fact found before any export")
		}
		exported := &countFact{N: 1}
		pass.ExportObjectFact(obj, exported)
		exported.N = 2 // the exporter keeps using its pointer
		if !pass.ImportObjectFact(obj, &got) || got.N != 1 {
			t.Errorf("import after the exporter mutated its pointer = %+v, want N=1", got)
		}
		got.N = 3 // so does an importer
		var again countFact
		if !pass.ImportObjectFact(obj, &again) || again.N != 1 {
			t.Errorf("second import = %+v, want N=1", again)
		}
		return nil
	}
	if _, err := analysis.RunWith(analysis.RunOptions{}, []*analysis.Package{pkg}, []*analysis.Analyzer{a}); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithRefusesDependentFirst: a list that names a package ahead of one
// it imports is an error, not a run in which facts silently go missing.
func TestRunWithRefusesDependentFirst(t *testing.T) {
	pkgs, err := analysis.Load(".", "./hotpath/testdata/src/xhot", "./hotpath/testdata/src/xpkg")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Name != "xpkg" {
		t.Fatalf("Load did not put the imported package first: %v, %v", pkgs[0].PkgPath, pkgs[1].PkgPath)
	}
	pkgs[0], pkgs[1] = pkgs[1], pkgs[0]
	if _, err := analysis.RunWith(analysis.RunOptions{}, pkgs, nil); err == nil {
		t.Error("RunWith accepted a dependent listed before its dependency")
	}
}
