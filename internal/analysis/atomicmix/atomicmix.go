// Package atomicmix flags struct fields that are accessed through
// sync/atomic somewhere in a package but read or written plainly elsewhere,
// such as a counter atomically incremented on one path and non-atomically
// read on another.
// Mixed access makes the atomic side pointless: the plain side still races.
//
// The check is package-scoped: a field is "atomic" if any `&x.f` in the
// package is passed to an atomic read-modify-write, load, or store. Plain
// accesses of such a field are reported unless suppressed with
// `//vetgiraffe:ignore atomicmix` (legitimate, e.g., after every goroutine
// has joined).
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the atomicmix check.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "report non-atomic accesses to struct fields that are accessed " +
		"atomically elsewhere in the package",
	Run: run,
}

// atomicFuncs are the sync/atomic functions whose first argument is the
// address being accessed atomically.
var atomicFuncs = map[string]bool{}

func init() {
	for _, op := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"} {
		for _, ty := range []string{"Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer"} {
			atomicFuncs[op+ty] = true
		}
	}
}

func run(pass *analysis.Pass) error {
	// First pass: find fields whose address feeds sync/atomic calls, plus
	// the selector nodes that constitute those atomic accesses. Selectors
	// under any & are excluded from the second pass: an address that escapes
	// to a helper cannot be classified here.
	atomicAt := make(map[*types.Var]token.Pos)
	atomicOperand := make(map[*ast.SelectorExpr]bool)
	addressed := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if sel, ok := unparen(ue.X).(*ast.SelectorExpr); ok {
					addressed[sel] = true
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) || len(call.Args) == 0 {
				return true
			}
			ue, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				return true
			}
			sel, ok := unparen(ue.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fld := fieldOf(pass, sel); fld != nil {
				if _, seen := atomicAt[fld]; !seen {
					atomicAt[fld] = sel.Pos()
				}
				atomicOperand[sel] = true
			}
			return true
		})
	}
	if len(atomicAt) == 0 {
		return nil
	}

	// Second pass: every other selection of those fields is a mixed access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicOperand[sel] || addressed[sel] {
				return true
			}
			fld := fieldOf(pass, sel)
			if fld == nil {
				return true
			}
			if at, ok := atomicAt[fld]; ok {
				pass.Reportf(sel.Pos(),
					"non-atomic access to field %s, which is accessed atomically at %s",
					fld.Name(), pass.Posn(at))
			}
			return true
		})
	}
	return nil
}

// isAtomicCall reports whether call invokes a tracked sync/atomic function.
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return atomicFuncs[fn.Name()]
}

// fieldOf resolves sel to a struct field, or nil.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
