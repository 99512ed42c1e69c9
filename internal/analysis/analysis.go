// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics, optionally
// exporting Facts on package-level objects that later analysis of importing
// packages can read back (the modular whole-program channel). The repo
// cannot vendor x/tools (the build is offline by policy), so the framework
// is built on the standard library only — go/ast, go/types, and export data
// served by the go tool (see load.go).
//
// The project-specific analyzers living in the subpackages encode the
// invariants the miniGiraffe reproduction depends on that no test sees —
// allocation-free and non-blocking hot kernels (hotpath) and constant metric
// names (metricname) — and cmd/vetgiraffe runs them as a CI gate
// (`make lint`).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. It runs over one package at a time, a
// package's imports before the package itself.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//vetgiraffe:ignore <name>` suppression directives.
	Name string
	// Doc is a one-paragraph description, shown by `vetgiraffe -list`.
	Doc string
	// Run inspects pass and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way `go vet` does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package's syntax and type information through an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags   []Diagnostic
	facts   factStore
	ignores *ignoreIndex
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Posn formats a position for inclusion inside a diagnostic message (e.g.
// "field f is updated atomically at sched.go:170").
func (p *Pass) Posn(pos token.Pos) string {
	posn := p.Fset.Position(pos)
	// Keep messages compact: file base name, not the full path.
	name := posn.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, posn.Line)
}

// Suppressed reports whether an `//vetgiraffe:ignore` directive for this
// analyzer covers pos (same line or the line above), marking the directive
// used. Analyzers that fold findings into summaries before reporting — the
// hotpath effect collector — call this at collection time so a justified
// ignore next to the offending operation stops the effect at its origin
// instead of at every hot caller.
func (p *Pass) Suppressed(pos token.Pos) bool {
	return p.ignores.suppressed(p.Fset.Position(pos), p.Analyzer.Name)
}

// IgnoreDirective is the comment that suppresses a finding on its line (or
// the line directly above it): `//vetgiraffe:ignore <analyzer>[,<analyzer>...]
// [reason]`. A comment may carry several directives.
const IgnoreDirective = "//vetgiraffe:ignore"

// RunOptions tunes RunWith.
type RunOptions struct {
	// StaleIgnores adds a diagnostic for every ignore directive that names
	// one of the analyzers being run yet suppressed nothing, and for
	// directives naming no known analyzer. Only meaningful when the full
	// analyzer set runs — under -only most directives are legitimately
	// dormant.
	StaleIgnores bool
}

// RunWith applies each analyzer to each package, one package
// after another in the order given, drops findings suppressed by ignore
// directives, and returns the remaining diagnostics sorted by position. pkgs
// must list every package after the packages of the set it imports — the
// order Load returns — so an analyzer reading Facts always finds its
// dependencies' facts exported; a list that does not is an error, not a run
// with facts missing.
func RunWith(opts RunOptions, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := make(factStore)
	indexes := make([]*ignoreIndex, 0, len(pkgs))
	pending := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		pending[pkg.PkgPath] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, imp := range pkg.Imports {
			if pending[imp] {
				return nil, fmt.Errorf("analysis: %s is listed before %s, which it imports", pkg.PkgPath, imp)
			}
		}
		ix := buildIgnoreIndex(pkg)
		indexes = append(indexes, ix)
		diags, err := analyzePackage(pkg, analyzers, facts, ix)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
		delete(pending, pkg.PkgPath)
	}

	if opts.StaleIgnores {
		known := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			known[a.Name] = true
		}
		for _, ix := range indexes {
			out = append(out, ix.staleDiagnostics(known)...)
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// analyzePackage runs every analyzer over pkg and filters
// suppressed findings.
func analyzePackage(pkg *Package, analyzers []*Analyzer, facts factStore, ignores *ignoreIndex) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			facts:     facts,
			ignores:   ignores,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
		for _, d := range pass.diags {
			if !ignores.suppressed(d.Pos, a.Name) {
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// ignoreDirective is one parsed `//vetgiraffe:ignore` occurrence.
type ignoreDirective struct {
	pos       token.Position
	analyzers []string
	used      bool
}

// ignoreIndex holds a package's directives, keyed for O(1) lookup by
// (file, line, analyzer).
type ignoreIndex struct {
	byKey map[suppressKey]*ignoreDirective
	all   []*ignoreDirective
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// suppressed reports whether a directive for analyzer covers (file, line) —
// trailing (same line) or preceding-line placement — marking it used.
func (ix *ignoreIndex) suppressed(pos token.Position, analyzer string) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if d, ok := ix.byKey[suppressKey{pos.Filename, line, analyzer}]; ok {
			d.used = true
			return true
		}
	}
	return false
}

// staleDiagnostics reports directives that suppressed nothing: every
// directive naming only analyzers from the known set that never matched, and
// every directive naming an analyzer that does not exist.
func (ix *ignoreIndex) staleDiagnostics(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ix.all {
		if d.used {
			continue
		}
		var unknown []string
		anyKnown := false
		for _, name := range d.analyzers {
			if known[name] {
				anyKnown = true
			} else {
				unknown = append(unknown, name)
			}
		}
		switch {
		case len(unknown) > 0:
			out = append(out, Diagnostic{
				Analyzer: "vetgiraffe",
				Pos:      d.pos,
				Message: fmt.Sprintf("ignore directive names unknown analyzer %s",
					strings.Join(unknown, ", ")),
			})
		case anyKnown:
			out = append(out, Diagnostic{
				Analyzer: "vetgiraffe",
				Pos:      d.pos,
				Message: fmt.Sprintf("stale ignore directive: no %s diagnostic on this or the next line",
					strings.Join(d.analyzers, ", ")),
			})
		}
	}
	return out
}

// buildIgnoreIndex parses every ignore directive in the package. A directive
// comment must begin with the marker — prose that merely quotes the syntax
// (`a //vetgiraffe:ignore ...` in documentation) is not a directive. A
// comment may carry several directives, and one directive may name several
// analyzers (comma-separated):
// `x() //vetgiraffe:ignore hotpath,metricname startup only`.
func buildIgnoreIndex(pkg *Package) *ignoreIndex {
	ix := &ignoreIndex{byKey: make(map[suppressKey]*ignoreDirective)}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnoreDirective) {
					continue
				}
				parts := strings.Split(c.Text, IgnoreDirective)
				posn := pkg.Fset.Position(c.Pos())
				for _, rest := range parts[1:] {
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					var names []string
					for _, name := range strings.Split(fields[0], ",") {
						if name = strings.TrimSpace(name); name != "" {
							names = append(names, name)
						}
					}
					if len(names) == 0 {
						continue
					}
					d := &ignoreDirective{pos: posn, analyzers: names}
					ix.all = append(ix.all, d)
					for _, name := range names {
						ix.byKey[suppressKey{posn.Filename, posn.Line, name}] = d
					}
				}
			}
		}
	}
	return ix
}
