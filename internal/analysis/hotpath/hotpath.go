// Package hotpath enforces the `//minigiraffe:hot` annotation: functions so
// marked are mapping-kernel inner loops (extend walks, cluster grouping, GBWT
// LF-search, core.Mapper dispatch) where per-record allocation, formatting or
// blocking distorts exactly the measurements the proxy exists to produce.
//
// It works in two passes over a package's static call graph. The direct pass
// collects every declared function's in-body effects — blocking operations
// (channel send/receive/select, mutex locks, sleeps), I/O and fmt calls,
// non-constant string concatenation, map allocation and growth, escaping
// closure captures, goroutine spawns. The transitive pass folds callees'
// effects into a bottom-up *summary* per function and exports it as a Fact
// on the function's package-level object, so when a dependent package is
// analyzed later its hot roots see everything reachable two, three, or ten
// calls deep across package boundaries. A hot function is then reported for
// its own direct effects, where they occur, and for what each of its call
// sites reaches, at the call site.
//
// Conventions (see DESIGN.md):
//
//   - A `//minigiraffe:hot` callee is skipped when summarizing callers: it
//     is policed at its own definition, so effects are reported exactly once.
//   - Dynamic calls through interfaces are not followed; a concrete hot
//     implementation of an interface method must carry its own annotation
//     (core.Mapper.MapBatchUntil behind pipeline.BatchMapper does).
//   - Calls into packages outside the analyzed set resolve against a small
//     table of known-blocking/IO standard-library entry points (sync locks,
//     time.Sleep, fmt, os/io/net/log); anything else external is assumed
//     clean — runtime-internal machinery like slices.SortFunc or
//     sync/atomic does not block.
//   - `panic(fmt.Sprintf(...))` is exempt: the crash path is not a hot path.
//   - One kind is direct-only: an append inside a loop of a hot body whose
//     destination was not preallocated with a three-argument make in the same
//     function (unbounded growth reallocates mid-kernel). It is reported where
//     it occurs and never inherited — a cold helper may grow a slice.
//
// Cold code is untouched: the annotation is the contract, placed next to the
// kernels in their doc comments.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// HotDirective marks a function as a hot path in its doc comment.
const HotDirective = "//minigiraffe:hot"

// Analyzer is the hot-path check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "report blocking or allocating operations (fmt, string concatenation, " +
		"map allocation, unpreallocated append growth, locks, channels, I/O) inside " +
		"//minigiraffe:hot functions or reachable from them, across packages via facts",
	Run: run,
}

// Effect kinds.
const (
	kindBlock    = "block"         // chan ops, select, known-blocking calls
	kindFmt      = "fmt"           // any call into package fmt
	kindIO       = "io"            // os/io/net/log calls
	kindMapAlloc = "map-alloc"     // make(map...) or a map composite literal
	kindMapWrite = "map-write"     // assignment may grow the map
	kindConcat   = "string-concat" // non-constant string concatenation
	kindClosure  = "closure"       // escaping closure capture
	kindGo       = "goroutine"     // spawn inside a hot region
	kindAppend   = "append-growth" // direct-only: see appendGrowth
)

// Effect is one blocking or allocating operation in a function's summary.
type Effect struct {
	Kind string
	// Desc is the human-readable operation, e.g. "channel send" or
	// "call to (*sync.Mutex).Lock (blocking)".
	Desc string
	// Posn locates the operation itself ("file.go:42"), which may be several
	// calls away from where the effect is finally reported.
	Posn string
	// Via is the call chain from the summarized function down to the
	// operation, exclusive of both endpoints.
	Via []string
	// pos is the operation itself, set on a direct effect only: where a hot
	// function is reported for it.
	pos token.Pos
}

// EffectsFact is a function's transitive effect summary, exported on its
// package-level object so dependent packages inherit it.
type EffectsFact struct{ Effects []Effect }

// AFact marks EffectsFact as a fact.
func (*EffectsFact) AFact() {}

// HotFact marks a function annotated `//minigiraffe:hot`; callers skip its
// summary because it is policed at its own definition.
type HotFact struct{}

// AFact marks HotFact as a fact.
func (*HotFact) AFact() {}

// maxEffects bounds a single function's summary; kernels with
// more findings than this are broken enough that truncation costs nothing.
const maxEffects = 64

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)

	// Locally hot functions: annotation in the doc comment.
	hot := make(map[*types.Func]bool)
	for fn, decl := range g.Decls {
		if isHot(decl) {
			hot[fn] = true
			if analysis.CanCarryFact(fn) {
				pass.ExportObjectFact(fn, &HotFact{})
			}
		}
	}

	// Direct per-body effects.
	direct := make(map[*types.Func][]Effect, len(g.Decls))
	for fn, decl := range g.Decls {
		direct[fn] = collectDirect(pass, decl)
	}

	// Bottom-up summaries over the SCC condensation: a function's summary is
	// its direct effects plus, per call site, the callee's summary (skipping
	// hot callees). Members of one SCC see only each other's direct effects,
	// which keeps recursion finite.
	summaries := make(map[*types.Func][]Effect, len(g.Decls))
	for _, comp := range g.BottomUp() {
		inComp := make(map[*types.Func]bool, len(comp))
		for _, fn := range comp {
			inComp[fn] = true
		}
		for _, fn := range comp {
			sum := append([]Effect(nil), direct[fn]...)
			for _, cs := range g.Calls[fn] {
				if pass.Suppressed(cs.Pos) {
					continue
				}
				for _, eff := range calleeEffects(pass, g, hot, summaries, direct, inComp, cs) {
					if len(sum) >= maxEffects {
						break
					}
					sum = append(sum, eff)
				}
			}
			summaries[fn] = dedupe(sum)
		}
	}

	// Export summaries for package-level functions so dependents inherit.
	for fn, sum := range summaries {
		if len(sum) == 0 {
			continue
		}
		if analysis.CanCarryFact(fn) {
			pass.ExportObjectFact(fn, &EffectsFact{Effects: sum})
		}
	}

	// Report at the hot roots.
	for fn := range hot {
		reportHot(pass, g, hot, summaries, direct[fn], fn)
	}
	return nil
}

func isHot(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, HotDirective) {
			return true
		}
	}
	return false
}

// calleeEffects resolves one call site's contribution to the caller's
// summary: nothing for hot or interface callees, the local or imported
// summary for known functions, a table entry for known-blocking externals.
func calleeEffects(pass *analysis.Pass, g *analysis.CallGraph, hot map[*types.Func]bool,
	summaries, direct map[*types.Func][]Effect, inComp map[*types.Func]bool,
	cs analysis.CallSite) []Effect {

	callee := cs.Callee
	if cs.Interface {
		return nil // concrete hot implementations must self-annotate
	}
	if _, local := g.Decls[callee]; local {
		if hot[callee] {
			return nil
		}
		var sub []Effect
		if inComp[callee] {
			sub = direct[callee] // cycle: direct effects only
		} else {
			sub = summaries[callee]
		}
		return inherit(pass, cs, callee, sub)
	}
	// Foreign callee: hot fact → skip; effects fact → inherit. Calls into
	// the known-blocking external table are classified by the *direct*
	// collector (which also applies the panic-path exemption), not here.
	if pass.ImportObjectFact(callee, &HotFact{}) {
		return nil
	}
	var fact EffectsFact
	if pass.ImportObjectFact(callee, &fact) {
		return inherit(pass, cs, callee, fact.Effects)
	}
	return nil
}

// inherit rebases a callee's effects onto the caller: the call chain grows
// by the callee's name and the carrying position becomes the call site.
func inherit(pass *analysis.Pass, cs analysis.CallSite, callee *types.Func, sub []Effect) []Effect {
	if len(sub) == 0 {
		return nil
	}
	label := funcLabel(pass, callee)
	out := make([]Effect, 0, len(sub))
	for _, e := range sub {
		via := make([]string, 0, len(e.Via)+1)
		via = append(via, label)
		via = append(via, e.Via...)
		out = append(out, Effect{Kind: e.Kind, Desc: e.Desc, Posn: e.Posn, Via: via})
	}
	return out
}

// funcLabel names a callee for call chains: package-qualified when foreign.
func funcLabel(pass *analysis.Pass, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// knownExternal classifies calls into packages outside the analyzed set.
func knownExternal(fn *types.Func) (Effect, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return Effect{}, false
	}
	full := fn.FullName()
	switch pkg.Path() {
	case "fmt":
		return Effect{Kind: kindFmt, Desc: "call to " + full}, true
	case "time":
		switch fn.Name() {
		case "Sleep", "After", "Tick", "NewTicker", "NewTimer", "AfterFunc":
			return Effect{Kind: kindBlock, Desc: "call to " + full + " (blocking/timer)"}, true
		}
	case "sync":
		switch fn.Name() {
		case "Lock", "RLock", "Wait", "Do":
			return Effect{Kind: kindBlock, Desc: "call to " + full + " (blocking)"}, true
		}
	case "os", "io", "bufio", "net", "net/http", "log", "syscall":
		return Effect{Kind: kindIO, Desc: "I/O call to " + full}, true
	}
	return Effect{}, false
}

// reportHot emits diagnostics for one hot function: its direct effects (at
// the operation) and everything its call sites reach (at the call site).
func reportHot(pass *analysis.Pass, g *analysis.CallGraph, hot map[*types.Func]bool,
	summaries map[*types.Func][]Effect, direct []Effect, fn *types.Func) {

	name := fn.Name()
	seen := make(map[string]bool)

	for _, eff := range append(appendGrowth(pass, g.Decls[fn]), direct...) {
		key := eff.Kind + "|" + eff.Posn
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.Reportf(eff.pos, "%s in hot function %s", eff.Desc, name)
	}

	for _, cs := range g.Calls[fn] {
		if pass.Suppressed(cs.Pos) {
			continue
		}
		// No component here: every callee contributes its finished summary.
		for _, eff := range calleeEffects(pass, g, hot, summaries, nil, nil, cs) {
			key := eff.Kind + "|" + eff.Posn + "|" + strings.Join(eff.Via, ">")
			if seen[key] {
				continue
			}
			seen[key] = true
			pass.Reportf(cs.Pos, "%s at %s reachable from hot function %s via %s",
				eff.Desc, eff.Posn, name, strings.Join(eff.Via, " -> "))
		}
	}
}

// collectDirect returns a function's in-body effects (suppressed operations
// excluded at the origin).
func collectDirect(pass *analysis.Pass, decl *ast.FuncDecl) []Effect {
	parents := buildParents(decl.Body)
	var out []Effect
	add := func(pos token.Pos, kind, desc string) {
		if !pass.Suppressed(pos) {
			out = append(out, Effect{Kind: kind, Desc: desc, Posn: pass.Posn(pos), pos: pos})
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SendStmt:
			if !inSelectComm(parents, e) {
				add(e.Arrow, kindBlock, "channel send")
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && !inSelectComm(parents, e) {
				add(e.OpPos, kindBlock, "channel receive")
			}
		case *ast.SelectStmt:
			add(e.Select, kindBlock, "select statement")
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(e.For, kindBlock, "range over channel")
				}
			}
		case *ast.GoStmt:
			add(e.Go, kindGo, "goroutine spawn")
		case *ast.CallExpr:
			collectCallEffects(pass, parents, e, add)
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if tv, ok := pass.TypesInfo.Types[ix.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							add(ix.Lbrack, kindMapWrite, "map assignment (possible growth)")
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if e.Op != token.ADD {
				return true
			}
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value != nil {
				return true
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				add(e.OpPos, kindConcat, "string concatenation")
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[e]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					add(e.Lbrace, kindMapAlloc, "map allocation")
				}
			}
		case *ast.FuncLit:
			if capt, escapes := closureEscapes(pass, parents, e); escapes && capt != "" {
				add(e.Pos(), kindClosure, "escaping closure capturing "+capt)
			}
		}
		return true
	})
	return out
}

// collectCallEffects classifies one in-body call expression: fmt (unless on
// the panic path), map allocation via make, and known-blocking externals are
// all *direct* effects; calls to declared functions are handled by the
// summary machinery, not here.
func collectCallEffects(pass *analysis.Pass, parents map[ast.Node]ast.Node,
	call *ast.CallExpr, add func(token.Pos, string, string)) {

	if isBuiltin(pass, call, "make") && len(call.Args) > 0 {
		if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				add(call.Pos(), kindMapAlloc, "map allocation")
			}
		}
		return
	}
	fn, _, ok := analysis.ResolveCallee(pass.TypesInfo, call)
	if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return
	}
	eff, ok := knownExternal(fn)
	if !ok {
		return
	}
	if eff.Kind == kindFmt && onPanicPath(pass, parents, call) {
		return // crash-path formatting is not a hot-path cost
	}
	add(call.Pos(), eff.Kind, eff.Desc)
}

// inSelectComm reports whether n is (part of) the communication operation of
// a select case — the enclosing select statement already reports as one
// blocking operation.
func inSelectComm(parents map[ast.Node]ast.Node, n ast.Node) bool {
	child := n
	for p := parents[child]; p != nil; p = parents[p] {
		if cc, ok := p.(*ast.CommClause); ok {
			return cc.Comm == child
		}
		child = p
	}
	return false
}

// onPanicPath reports whether n sits inside the arguments of a panic call.
func onPanicPath(pass *analysis.Pass, parents map[ast.Node]ast.Node, n ast.Node) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		if call, ok := p.(*ast.CallExpr); ok && isBuiltin(pass, call, "panic") {
			return true
		}
	}
	return false
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// appendGrowth is the direct-only kind: every append inside a loop of decl's
// body whose destination is not a local that a three-argument make in the
// same function preallocated. Only hot bodies are asked.
func appendGrowth(pass *analysis.Pass, decl *ast.FuncDecl) []Effect {
	type span struct{ lo, hi token.Pos }
	var loops []span
	prealloc := make(map[types.Object]bool)
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		call, isCall := rhs.(*ast.CallExpr)
		if ok && isCall && isBuiltin(pass, call, "make") && len(call.Args) == 3 {
			prealloc[identObj(pass, id)] = true
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{s.Body.Pos(), s.Body.End()})
		case *ast.AssignStmt:
			for i := 0; i < len(s.Rhs) && i < len(s.Lhs); i++ {
				mark(s.Lhs[i], s.Rhs[i])
			}
		case *ast.ValueSpec:
			for i := 0; i < len(s.Values) && i < len(s.Names); i++ {
				mark(s.Names[i], s.Values[i])
			}
		}
		return true
	})

	var out []Effect
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call, "append") || len(call.Args) == 0 {
			return true
		}
		inLoop := false
		for _, l := range loops {
			inLoop = inLoop || (call.Pos() >= l.lo && call.Pos() < l.hi)
		}
		if !inLoop {
			return true
		}
		desc := "append to non-local destination inside a loop"
		if dest, ok := call.Args[0].(*ast.Ident); ok {
			if prealloc[identObj(pass, dest)] {
				return true
			}
			desc = "append grows " + dest.Name + " inside a loop without preallocated capacity (make with an explicit cap)"
		}
		if !pass.Suppressed(call.Pos()) {
			out = append(out, Effect{Kind: kindAppend, Desc: desc, Posn: pass.Posn(call.Pos()), pos: call.Pos()})
		}
		return true
	})
	return out
}

// identObj resolves an identifier to the object it defines or uses.
func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// closureEscapes decides whether a function literal both captures enclosing
// variables and escapes the stack. Literals passed where a *concrete*
// func-typed parameter is expected (slices.SortFunc comparators,
// sort.Search predicates) stay on the stack under current inlining and are
// exempt; literals handed to interface-typed parameters (sort.Slice's any),
// returned, or stored into fields/globals escape.
func closureEscapes(pass *analysis.Pass, parents map[ast.Node]ast.Node, lit *ast.FuncLit) (string, bool) {
	capt := capturedVar(pass, lit)
	if capt == "" {
		return "", false
	}
	switch p := parents[lit].(type) {
	case *ast.CallExpr:
		if id, ok := p.Fun.(*ast.Ident); ok {
			if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB {
				return capt, false // defer/go handled as their own kinds
			}
		}
		if p.Fun == lit {
			return capt, false // immediately invoked
		}
		// Which parameter receives the literal?
		tv, ok := pass.TypesInfo.Types[p.Fun]
		if !ok {
			return capt, false
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return capt, false
		}
		for i, arg := range p.Args {
			if arg != lit {
				continue
			}
			var pt types.Type
			if sig.Variadic() && i >= sig.Params().Len()-1 {
				last := sig.Params().At(sig.Params().Len() - 1).Type()
				if s, ok := last.(*types.Slice); ok {
					pt = s.Elem()
				}
			} else if i < sig.Params().Len() {
				pt = sig.Params().At(i).Type()
			}
			if pt != nil && types.IsInterface(pt.Underlying()) {
				return capt, true // boxed into an interface: escapes
			}
			return capt, false
		}
		return capt, false
	case *ast.ReturnStmt:
		return capt, true
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != lit || i >= len(p.Lhs) {
				continue
			}
			switch lhs := p.Lhs[i].(type) {
			case *ast.Ident:
				obj := pass.TypesInfo.Defs[lhs]
				if obj == nil {
					obj = pass.TypesInfo.Uses[lhs]
				}
				if obj != nil && obj.Parent() == pass.Pkg.Scope() {
					return capt, true // stored to a package-level variable
				}
				return capt, false // local: let the compiler decide
			case *ast.SelectorExpr, *ast.IndexExpr:
				return capt, true // field or element store: escapes
			}
		}
		return capt, false
	case *ast.GoStmt, *ast.DeferStmt:
		return capt, false
	case *ast.KeyValueExpr, *ast.CompositeLit:
		return capt, true // stored into a composite: escapes
	case *ast.SendStmt:
		return capt, true
	}
	return capt, false
}

// capturedVar returns the name of one variable the literal captures from its
// enclosing function, or "" when it captures nothing (capture-free literals
// compile to singletons and never allocate per call).
func capturedVar(pass *analysis.Pass, lit *ast.FuncLit) string {
	inside := func(pos token.Pos) bool { return pos >= lit.Pos() && pos < lit.End() }
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == pass.Pkg.Scope() {
			return true
		}
		if !inside(v.Pos()) {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

// dedupe drops repeated (kind, posn, via) entries while keeping order.
func dedupe(effs []Effect) []Effect {
	if len(effs) < 2 {
		return effs
	}
	seen := make(map[string]bool, len(effs))
	out := effs[:0]
	for _, e := range effs {
		key := e.Kind + "|" + e.Posn + "|" + strings.Join(e.Via, ">")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	return out
}

// buildParents maps every node under root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
