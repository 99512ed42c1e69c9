package analysis_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// dummy builds an analyzer that reports every call to a function whose name
// starts with "bad".
func dummy(name string) *analysis.Analyzer {
	a := &analysis.Analyzer{Name: name, Doc: "test analyzer"}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok {
					if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && strings.HasPrefix(fn.Name(), "bad") {
						pass.Reportf(call.Pos(), "call to %s", fn.Name())
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// lineOf locates a marker substring in the fixture so the test does not
// hardcode line numbers.
func lineOf(t *testing.T, path, marker string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range strings.Split(string(data), "\n") {
		if strings.Contains(l, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not found in %s", marker, path)
	return 0
}

func TestIgnoreDirectives(t *testing.T) {
	const fixture = "testdata/ignorefix/a.go"
	pkg, err := analysis.LoadDir("testdata/ignorefix")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*analysis.Analyzer{dummy("dummyA"), dummy("dummyB")}
	diags, err := analysis.RunWith(analysis.RunOptions{StaleIgnores: true},
		[]*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]string) // "line/analyzer" → message
	for _, d := range diags {
		key := fmt.Sprintf("%d/%s", d.Pos.Line, d.Analyzer)
		if prev, dup := got[key]; dup {
			t.Errorf("duplicate diagnostic at %s: %q and %q", key, prev, d.Message)
		}
		got[key] = d.Message
	}

	want := map[string]string{
		// Trailing and preceding directives suppress dummyA but not dummyB.
		fmt.Sprintf("%d/dummyB", lineOf(t, fixture, "trailing placement")):  "call to bad",
		fmt.Sprintf("%d/dummyB", lineOf(t, fixture, "preceding placement")): "call to bad",
		// One directive, two analyzers: both suppressed, nothing expected.
		// A directive naming only dummyA leaves dummyB's finding alone.
		fmt.Sprintf("%d/dummyB", lineOf(t, fixture, "dummyB still fires")): "call to bad",
		// A directive matching no diagnostic is stale; an unknown analyzer
		// name is reported even though it can never match.
		fmt.Sprintf("%d/vetgiraffe", lineOf(t, fixture, "matches nothing")):       "stale ignore directive",
		fmt.Sprintf("%d/vetgiraffe", lineOf(t, fixture, "unknown analyzer name")): "unknown analyzer dummyC",
	}
	// "preceding placement" marker is on the directive line; dummyB reports
	// on the call line below it.
	delete(want, fmt.Sprintf("%d/dummyB", lineOf(t, fixture, "preceding placement")))
	want[fmt.Sprintf("%d/dummyB", lineOf(t, fixture, "preceding placement")+1)] = "call to bad"

	for key, substr := range want {
		msg, ok := got[key]
		if !ok {
			t.Errorf("missing diagnostic %s (want message containing %q); got %v", key, substr, got)
			continue
		}
		if !strings.Contains(msg, substr) {
			t.Errorf("diagnostic %s = %q, want containing %q", key, msg, substr)
		}
		delete(got, key)
	}
	for key, msg := range got {
		t.Errorf("unexpected diagnostic %s: %q", key, msg)
	}
}

// TestIgnoreDirectivesQuiet checks that stale reporting is off by default:
// the same fixture under zero RunOptions yields only the unsuppressed findings.
func TestIgnoreDirectivesQuiet(t *testing.T) {
	pkg, err := analysis.LoadDir("testdata/ignorefix")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunWith(analysis.RunOptions{},
		[]*analysis.Package{pkg}, []*analysis.Analyzer{dummy("dummyA"), dummy("dummyB")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "vetgiraffe" {
			t.Errorf("stale-directive diagnostic without StaleIgnores: %s", d)
		}
	}
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3 (dummyB at trailing, preceding, onlyA): %v", len(diags), diags)
	}
}
