// Package escapebudget gates the hot kernels on the compiler's own
// escape-analysis and inlining verdicts. The AST-level check (hotpath)
// approximates what allocates; `go build -gcflags=-m=2` is the
// ground truth. The analyzer shells out to the compiler, attributes every
// "escapes to heap" / "moved to heap" diagnostic and every inlinability
// verdict to the enclosing `//minigiraffe:hot` function, and compares the
// result against the committed results/escapes_baseline.txt:
//
//   - a hot function whose heap-escape count grows past its baseline fails;
//   - a hot function the compiler could inline at baseline but no longer
//     can fails;
//   - improvements (fewer escapes, newly inlinable) pass and show up in the
//     report so the baseline can be ratcheted down.
//
// Refresh the baseline deliberately with `make escapecheck UPDATE=1` after
// auditing the report. The Go build cache replays compiler diagnostics on
// cached rebuilds, so repeated runs are cheap and never silently empty.
//
// escapebudget is a module analyzer (Analyzer.ModuleRun): it runs once over
// the whole loaded set, not per package.
package escapebudget

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/hotpath"
)

// BaselinePath is the committed baseline, relative to the module root.
const BaselinePath = "results/escapes_baseline.txt"

// Analyzer is the escape/inline budget gate.
var Analyzer = &analysis.Analyzer{
	Name: "escapebudget",
	Doc: "fail when a //minigiraffe:hot function gains heap escapes or " +
		"loses inlinability relative to results/escapes_baseline.txt " +
		"(ground truth: go build -gcflags=-m=2)",
	ModuleRun: moduleRun,
}

// FuncState is one hot function's compiler verdict.
type FuncState struct {
	// Label is "pkgpath.Func" or "pkgpath.(T).Method" — the baseline key.
	Label string
	// File/Line anchor diagnostics at the declaration.
	File string
	Line int
	Col  int
	// Escapes lists the unique escape diagnostics inside the body.
	Escapes []string
	// Inline reports whether the compiler said "can inline".
	Inline bool
}

// baselineEntry is one parsed baseline line.
type baselineEntry struct {
	escapes int
	inline  bool
}

// Current compiles the module under -gcflags=-m=2 and returns the verdict
// for every hot function in pkgs, sorted by label.
func Current(dir string, pkgs []*analysis.Package) ([]FuncState, error) {
	hots := hotDecls(pkgs)
	if len(hots) == 0 {
		return nil, nil
	}
	diags, err := compilerDiags(dir)
	if err != nil {
		return nil, err
	}
	// Diagnostic paths are relative to the module root the build ran in.
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	// The compiler reports one escape at two lines ("x escapes to heap:"
	// heading the flow trace, then "moved to heap: x"), both anchored at the
	// same position — count unique positions, keep the first message.
	escSeen := make(map[string]bool)
	for _, d := range diags {
		file := filepath.Join(absDir, d.file)
		for _, h := range hots {
			if h.File != file {
				continue
			}
			switch {
			case strings.Contains(d.msg, "escapes to heap"),
				strings.Contains(d.msg, "moved to heap"):
				if d.line >= h.Line && d.line <= h.endLine {
					key := fmt.Sprintf("%s:%d:%d", d.file, d.line, d.col)
					if !escSeen[key] {
						escSeen[key] = true
						h.Escapes = append(h.Escapes, key+": "+strings.TrimSuffix(d.msg, ":"))
					}
				}
			case strings.HasPrefix(d.msg, "can inline "):
				if d.line == h.Line {
					h.Inline = true
				}
			}
		}
	}
	out := make([]FuncState, 0, len(hots))
	for _, h := range hots {
		sort.Strings(h.Escapes)
		out = append(out, h.FuncState)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out, nil
}

// WriteBaseline rewrites the baseline file from states.
func WriteBaseline(path string, states []FuncState) error {
	var buf bytes.Buffer
	buf.WriteString("# escapebudget baseline: per //minigiraffe:hot function, the number of\n")
	buf.WriteString("# compiler-reported heap escapes and whether the compiler can inline it.\n")
	buf.WriteString("# Regenerate with: make escapecheck UPDATE=1\n")
	for _, s := range states {
		fmt.Fprintf(&buf, "%s escapes=%d inline=%s\n", s.Label, len(s.Escapes), yesno(s.Inline))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// report renders the human-readable comparison archived by cmd/vetgiraffe.
func report(states []FuncState, baseline map[string]baselineEntry) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "escapebudget: %d hot functions (baseline: %s)\n", len(states), BaselinePath)
	for _, s := range states {
		base, known := baseline[s.Label]
		status := "new (not in baseline)"
		if known {
			status = fmt.Sprintf("baseline escapes=%d inline=%s", base.escapes, yesno(base.inline))
		}
		fmt.Fprintf(&buf, "\n%s: escapes=%d inline=%s [%s]\n", s.Label, len(s.Escapes), yesno(s.Inline), status)
		for _, e := range s.Escapes {
			fmt.Fprintf(&buf, "  %s\n", e)
		}
	}
	return buf.String()
}

func moduleRun(dir string, pkgs []*analysis.Package) ([]analysis.Diagnostic, string, error) {
	states, err := Current(dir, pkgs)
	if err != nil {
		return nil, "", err
	}
	baseline, err := readBaseline(filepath.Join(dir, BaselinePath))
	if err != nil {
		return nil, "", err
	}
	var diags []analysis.Diagnostic
	for _, s := range states {
		base, known := baseline[s.Label]
		if !known {
			// New hot functions ratchet from zero: clean ones pass without a
			// baseline edit, allocating ones fail until fixed or baselined.
			base = baselineEntry{escapes: 0, inline: s.Inline}
		}
		pos := token.Position{Filename: s.File, Line: s.Line, Column: s.Col}
		if len(s.Escapes) > base.escapes {
			diags = append(diags, analysis.Diagnostic{
				Analyzer: "escapebudget",
				Pos:      pos,
				Message: fmt.Sprintf("hot function %s gained heap escapes: %d (baseline %d) — fix or refresh with `make escapecheck UPDATE=1`",
					s.Label, len(s.Escapes), base.escapes),
			})
		}
		if base.inline && !s.Inline {
			diags = append(diags, analysis.Diagnostic{
				Analyzer: "escapebudget",
				Pos:      pos,
				Message: fmt.Sprintf("hot function %s lost inlinability (baseline: can inline) — fix or refresh with `make escapecheck UPDATE=1`",
					s.Label),
			})
		}
	}
	return diags, report(states, baseline), nil
}

// readBaseline parses the baseline file; a missing file is an empty
// baseline (every hot function ratchets from zero escapes).
func readBaseline(path string) (map[string]baselineEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]baselineEntry{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]baselineEntry)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("escapebudget: %s:%d: malformed baseline line %q", path, i+1, line)
		}
		var e baselineEntry
		n, ok := strings.CutPrefix(fields[1], "escapes=")
		if !ok {
			return nil, fmt.Errorf("escapebudget: %s:%d: malformed escapes field %q", path, i+1, fields[1])
		}
		if e.escapes, err = strconv.Atoi(n); err != nil {
			return nil, fmt.Errorf("escapebudget: %s:%d: malformed escapes count %q", path, i+1, n)
		}
		switch fields[2] {
		case "inline=yes":
			e.inline = true
		case "inline=no":
			e.inline = false
		default:
			return nil, fmt.Errorf("escapebudget: %s:%d: malformed inline field %q", path, i+1, fields[2])
		}
		out[fields[0]] = e
	}
	return out, nil
}

// hotDecl is one annotated declaration with its body extent.
type hotDecl struct {
	FuncState
	endLine int
}

func hotDecls(pkgs []*analysis.Package) []*hotDecl {
	var out []*hotDecl
	for _, pkg := range pkgs {
		if pkg.Dir == "" {
			continue
		}
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHot(fd) {
					continue
				}
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				out = append(out, &hotDecl{
					FuncState: FuncState{
						Label: pkg.PkgPath + "." + declLabel(fd),
						File:  start.Filename,
						Line:  start.Line,
						Col:   start.Column,
					},
					endLine: end.Line,
				})
			}
		}
	}
	return out
}

func declLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func isHot(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, hotpath.HotDirective) {
			return true
		}
	}
	return false
}

// compilerDiag is one parsed `-gcflags=-m=2` line.
type compilerDiag struct {
	pkg  string // import path from the preceding "# pkg" header
	file string // as printed, relative to the package directory
	line int
	col  int
	msg  string
}

// compilerDiags builds the module under -m=2 and parses the diagnostics.
// Output format: "# pkgpath" headers followed by "./file.go:line:col: msg"
// lines; indented escape-flow traces and anything else are skipped.
func compilerDiags(dir string) ([]compilerDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m=2", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escapebudget: go build -gcflags=-m=2: %v\n%s", err, firstLines(stderr.String(), 20))
	}
	var out []compilerDiag
	pkg := ""
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "# "))
			continue
		}
		if line == "" || line[0] == ' ' || line[0] == '\t' {
			continue // escape-flow trace or blank
		}
		d, ok := parseDiagLine(pkg, line)
		if !ok {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// parseDiagLine splits "./file.go:12:7: msg".
func parseDiagLine(pkg, line string) (compilerDiag, bool) {
	rest := strings.TrimPrefix(line, "./")
	i := strings.Index(rest, ".go:")
	if i < 0 {
		return compilerDiag{}, false
	}
	file := rest[:i+3]
	parts := strings.SplitN(rest[i+4:], ":", 3)
	if len(parts) != 3 {
		return compilerDiag{}, false
	}
	ln, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return compilerDiag{}, false
	}
	return compilerDiag{
		pkg:  pkg,
		file: file,
		line: ln,
		col:  col,
		msg:  strings.TrimSpace(parts[2]),
	}, true
}

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
