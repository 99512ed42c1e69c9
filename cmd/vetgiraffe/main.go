// Command vetgiraffe is the project's multichecker: it runs the
// miniGiraffe-specific analyzers (internal/analysis/...) over the given
// package patterns and exits non-zero on any finding. `make lint` runs it
// over ./... as a CI gate.
//
// Usage:
//
//	vetgiraffe [-only atomicmix,hotpath] [-list] [-reportdir DIR]
//	           [-update-escapes] [packages...]
//
// Packages load and analyze one after another, imports first, so an analyzer
// exchanging facts (hotpath) sees a package's dependencies analyzed before
// it; diagnostic output is sorted. When the full analyzer set runs, ignore
// directives that suppress nothing are themselves reported as stale.
//
// -reportdir archives the diagnostic report (vetgiraffe.txt) and the
// escapebudget comparison (escapes_diff.txt) for CI artifacts.
// -update-escapes rewrites results/escapes_baseline.txt from the current
// compiler verdicts instead of gating against it.
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
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/escapebudget"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/metricname"
	"repro/internal/analysis/nakedgoroutine"
)

var all = []*analysis.Analyzer{
	atomicmix.Analyzer,
	ctxflow.Analyzer,
	escapebudget.Analyzer,
	hotpath.Analyzer,
	metricname.Analyzer,
	nakedgoroutine.Analyzer,
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr *os.File, args []string) int {
	fs := flag.NewFlagSet("vetgiraffe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	reportDir := fs.String("reportdir", "", "directory to archive vetgiraffe.txt and escapes_diff.txt reports")
	updateEscapes := fs.Bool("update-escapes", false,
		"rewrite "+escapebudget.BaselinePath+" from current compiler verdicts and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range all {
			kind := ""
			if a.ModuleRun != nil {
				kind = " (module analyzer)"
			}
			fmt.Fprintf(stdout, "%-16s %s%s\n", a.Name, a.Doc, kind)
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

	if *updateEscapes {
		states, err := escapebudget.Current(".", pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "vetgiraffe: %v\n", err)
			return 2
		}
		if err := escapebudget.WriteBaseline(escapebudget.BaselinePath, states); err != nil {
			fmt.Fprintf(stderr, "vetgiraffe: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "vetgiraffe: wrote %s (%d hot functions)\n", escapebudget.BaselinePath, len(states))
		return 0
	}

	// Module analyzers run once over the whole set; their diagnostics join
	// the per-package passes through ExtraDiags so ignore directives and
	// stale accounting treat them uniformly.
	var extra []analysis.Diagnostic
	var escReport string
	for _, a := range selected {
		if a.ModuleRun == nil {
			continue
		}
		diags, report, err := a.ModuleRun(".", pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "vetgiraffe: %s: %v\n", a.Name, err)
			return 2
		}
		extra = append(extra, diags...)
		if a.Name == escapebudget.Analyzer.Name {
			escReport = report
		}
	}

	diags, err := analysis.RunWith(analysis.RunOptions{
		StaleIgnores: fullSet,
		ExtraDiags:   extra,
	}, pkgs, selected)
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
		if err := writeReports(*reportDir, report.String(), escReport); err != nil {
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

func writeReports(dir, diagReport, escReport string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if diagReport == "" {
		diagReport = "vetgiraffe: no findings\n"
	}
	if err := os.WriteFile(filepath.Join(dir, "vetgiraffe.txt"), []byte(diagReport), 0o644); err != nil {
		return err
	}
	if escReport != "" {
		if err := os.WriteFile(filepath.Join(dir, "escapes_diff.txt"), []byte(escReport), 0o644); err != nil {
			return err
		}
	}
	return nil
}
