// Command vetgiraffe is the project's multichecker: it runs the
// miniGiraffe-specific analyzers (internal/analysis/...) over the given
// package patterns and exits non-zero on any finding. `make lint` runs it
// over ./... as a CI gate.
//
// Usage:
//
//	vetgiraffe [-only hotpath,metricname] [-list] [-reportdir DIR] [packages...]
//
// Packages load and analyze one after another, imports first, so an analyzer
// exchanging facts (hotpath) sees a package's dependencies analyzed before
// it; diagnostic output is sorted. When the full analyzer set runs, ignore
// directives that suppress nothing are themselves reported as stale.
//
// -reportdir archives the diagnostic report (vetgiraffe.txt) for CI
// artifacts.
//
// Findings can be suppressed case by case with a trailing or preceding-line
// `//vetgiraffe:ignore <analyzer>[,<analyzer>...] <reason>` comment.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/metricname"
)

var all = []*analysis.Analyzer{
	hotpath.Analyzer,
	metricname.Analyzer,
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr *os.File, args []string) int {
	fs := flag.NewFlagSet("vetgiraffe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	reportDir := fs.String("reportdir", "", "directory to archive the vetgiraffe.txt report in")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := all
	fullSet := true
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		var names []string
		for _, a := range all {
			byName[a.Name] = a
			names = append(names, a.Name)
		}
		selected = nil
		fullSet = false
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "vetgiraffe: unknown analyzer %q (available: %s)\n",
					strings.TrimSpace(name), strings.Join(names, ", "))
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "vetgiraffe: %v\n", err)
		return 2
	}

	diags, err := analysis.RunWith(analysis.RunOptions{StaleIgnores: fullSet}, pkgs, selected)
	if err != nil {
		fmt.Fprintf(stderr, "vetgiraffe: %v\n", err)
		return 2
	}

	cwd, _ := os.Getwd()
	var report bytes.Buffer
	for _, d := range diags {
		name := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(&report, "%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	stdout.Write(report.Bytes())

	if *reportDir != "" {
		if err := writeReport(*reportDir, report.String()); err != nil {
			fmt.Fprintf(stderr, "vetgiraffe: %v\n", err)
			return 2
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "vetgiraffe: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func writeReport(dir, report string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if report == "" {
		report = "vetgiraffe: no findings\n"
	}
	return os.WriteFile(filepath.Join(dir, "vetgiraffe.txt"), []byte(report), 0o644)
}
