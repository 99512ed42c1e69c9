// Package metricname checks that every metric and trace-region name is a
// compile-time constant: the name argument of (*obs.Registry).Counter,
// Gauge, and Histogram, and the region argument of (*trace.Recorder).Record.
// Scrapes, manifests, and the Perfetto exporter all aggregate by
// name, so a name assembled at runtime (fmt.Sprintf, concatenation with a
// variable, a loop index) silently explodes the metric cardinality — every
// distinct string becomes its own time series — and defeats the grep-ability
// of the internal/obs/metrics.go catalogue. Constant expressions (string
// literals, named constants, and concatenations of constants) are accepted.
//
// Two stricter rules ride on top:
//
//   - pprof label keys (the even-position arguments of runtime/pprof.Labels)
//     must be named constants, not bare literals: pprof's -tagfocus
//     selects samples by key, so an ad-hoc key string silently splits the
//     stage/worker breakdown away from the obs.Label* taxonomy.
//   - runtime_* metric names must be named constants for the same reason:
//     the runtime-telemetry catalogue lives in internal/obs/metrics.go, and
//     a bare "runtime_..." literal elsewhere would fragment it invisibly.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the metricname check.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "report metric or trace-region names that are not compile-time " +
		"constants (obs Registry lookups and trace Record regions)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPprofLabels(pass, call) {
				// Keys are the even-position arguments of the flat
				// key/value list; values are unconstrained.
				for i := 0; i < len(call.Args); i += 2 {
					if !isNamedConst(pass, call.Args[i]) {
						pass.Reportf(call.Args[i].Pos(),
							"pprof label key must be a named constant (the obs.Label* taxonomy): "+
								"pprof -tagfocus selects samples by key, so an ad-hoc key splits the breakdown")
					}
				}
				return true
			}
			idx, what := nameArg(pass, call)
			if idx < 0 || idx >= len(call.Args) {
				return true
			}
			arg := call.Args[idx]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil {
				pass.Reportf(arg.Pos(),
					"%s name must be a string literal or named constant, not a runtime value: "+
						"dynamic names explode scrape cardinality (declare it in internal/obs/metrics.go or internal/trace)",
					what)
				return true
			}
			// Constant-foldable. runtime_* names additionally must be named
			// constants so the runtime-telemetry catalogue stays in one place.
			if strings.HasPrefix(constant.StringVal(tv.Value), "runtime_") && !isNamedConst(pass, arg) {
				pass.Reportf(arg.Pos(),
					"runtime_* %s name must be a named constant from internal/obs/metrics.go, not a bare literal: "+
						"the runtime-telemetry catalogue must not fragment", what)
			}
			return true
		})
	}
	return nil
}

// isPprofLabels reports whether call is runtime/pprof.Labels.
func isPprofLabels(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Labels" || fn.Pkg() == nil || fn.Pkg().Path() != "runtime/pprof" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isNamedConst reports whether expr is a reference to a declared string
// constant (pkg.Name or a local identifier) — stricter than constant
// foldability, which also admits bare literals and concatenations.
func isNamedConst(pass *analysis.Pass, expr ast.Expr) bool {
	for {
		p, ok := expr.(*ast.ParenExpr)
		if !ok {
			break
		}
		expr = p.X
	}
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	_, ok := pass.TypesInfo.Uses[id].(*types.Const)
	return ok
}

// nameArg classifies call: the index of its name argument and what kind of
// name it is, or (-1, "") when the call is not one the check covers.
func nameArg(pass *analysis.Pass, call *ast.CallExpr) (int, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return -1, ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return -1, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return -1, ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return -1, ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return -1, ""
	}
	switch {
	case obj.Name() == "Registry" && strings.HasSuffix(obj.Pkg().Path(), "internal/obs"):
		switch fn.Name() {
		case "Counter", "Gauge", "Histogram":
			return 0, "metric"
		}
	case obj.Name() == "Recorder" && strings.HasSuffix(obj.Pkg().Path(), "internal/trace"):
		if fn.Name() == "Record" {
			return 1, "trace region"
		}
	case obj.Name() == "ReqTrace" && strings.HasSuffix(obj.Pkg().Path(), "internal/obs"):
		// Request-span names feed the same aggregations (Perfetto tracks,
		// /traces, loadgen's decomposition) — the catalogue lives in the
		// Span* constants of internal/obs/reqtrace.go.
		if fn.Name() == "AddSpan" {
			return 0, "request span"
		}
	}
	return -1, ""
}
