// Package analysistest runs an analyzer over a fixture directory and checks
// its diagnostics against `// want "regex"` comment expectations — the same
// convention as golang.org/x/tools/go/analysis/analysistest, reimplemented on
// the repo's own analysis framework.
//
// A want comment lists one or more quoted regular expressions:
//
//	x = s.f // want `non-atomic access`
//
// Every diagnostic must match an expectation on its line, and every
// expectation must be matched by some diagnostic.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one unmatched want pattern.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`^//\s*want\s+(.*)$`)

// Run loads the fixture package in dir, applies the analyzer (including the
// framework's suppression directives), and reports mismatches on t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunWith(analysis.RunOptions{}, []*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	check(t, []*analysis.Package{pkg}, diags)
}

// RunPkgs loads the packages matching patterns (anchored at dir) with the
// full module loader — imports first, so facts flow between them — and
// checks the combined diagnostics against want expectations in every loaded
// package. This is the harness for cross-package fact fixtures living under
// testdata/src/ as real module packages.
func RunPkgs(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", patterns, err)
	}
	diags, err := analysis.RunWith(analysis.RunOptions{}, pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	check(t, pkgs, diags)
}

// check matches diagnostics against the fixtures' want expectations.
func check(t *testing.T, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}

	for _, d := range diags {
		matched := false
		for i, w := range wants {
			if w != nil && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				wants[i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if w != nil {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want pattern %q", posn.Filename, posn.Line, rest)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %q: %v", posn.Filename, posn.Line, q, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", posn.Filename, posn.Line, pat, err)
					}
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, rx: rx})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants
}
