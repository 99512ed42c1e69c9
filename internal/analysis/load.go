package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	PkgPath string
	Name    string
	// Dir is the package's source directory (empty for LoadDir fixtures
	// whose directory is unknown to the go tool).
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Imports lists the package's direct imports (all of them, not just
	// module-internal ones). RunWith checks against it that the packages it
	// was handed come imports-first.
	Imports []string
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -deps -export -json` in dir and returns the decoded
// package stream. The -export flag makes the go tool compile (or reuse from
// the build cache) every listed package and report its export-data file,
// which is what lets the loader type-check against dependencies without
// golang.org/x/tools.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies go/types import resolution by serving export-data
// files recorded by goList.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Load lists, parses, and type-checks the packages matching patterns,
// resolving imports through export data from the go tool. Only non-test
// files are analyzed, matching what ships in the binaries. dir anchors the
// go tool invocation ("." means the current directory).
//
// The packages come back one after another in the order `go list -deps`
// emits them — every package after the packages it imports, whatever order
// the patterns named them in — which is the order RunWith needs.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range listed {
		if t.DepOnly || len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for j, f := range t.GoFiles {
			files[j] = filepath.Join(t.Dir, f)
		}
		syntax, err := parseFiles(fset, files)
		if err != nil {
			return nil, err
		}
		pkg, err := checkParsed(fset, imp, t.ImportPath, syntax)
		if err != nil {
			return nil, err
		}
		pkg.Dir = t.Dir
		pkg.Imports = t.Imports
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package formed by the .go files
// directly inside dir — the analysistest fixture loader. Imports (standard
// library or module-internal) resolve through the go tool, so fixtures may
// exercise real project types like *trace.Recorder.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		files = append(files, filepath.Join(dir, e.Name()))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)

	// Parse once up front to discover the fixture's imports.
	fset := token.NewFileSet()
	syntax, err := parseFiles(fset, files)
	if err != nil {
		return nil, err
	}
	impSet := make(map[string]bool)
	for _, af := range syntax {
		for _, spec := range af.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err == nil && p != "C" {
				impSet[p] = true
			}
		}
	}
	exports := make(map[string]string)
	var imps []string
	if len(impSet) > 0 {
		for p := range impSet {
			imps = append(imps, p)
		}
		sort.Strings(imps)
		listed, err := goList(dir, imps)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
			}
			exports[p.ImportPath] = p.Export
		}
	}

	pkgPath := syntax[0].Name.Name
	pkg, err := checkParsed(fset, exportImporter(fset, exports), pkgPath, syntax)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	pkg.Imports = imps
	return pkg, nil
}

// parseFiles parses the named files, comments included.
func parseFiles(fset *token.FileSet, files []string) ([]*ast.File, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
	}
	return syntax, nil
}

// checkParsed type-checks syntax as one package.
func checkParsed(fset *token.FileSet, imp types.Importer, pkgPath string, syntax []*ast.File) (*Package, error) {
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := newTypesInfo()
	tpkg, _ := conf.Check(pkgPath, fset, syntax, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", pkgPath, typeErrs[0])
	}
	return &Package{
		PkgPath:   pkgPath,
		Name:      tpkg.Name(),
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
