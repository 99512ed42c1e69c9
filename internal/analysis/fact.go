// Facts are the framework's modular cross-package channel, mirroring the
// golang.org/x/tools go/analysis design: while analyzing package P an
// analyzer may attach a Fact to one of P's package-level objects; when a
// package that imports P is analyzed later, the same analyzer can look the
// fact up through the object it resolves from P's export data. A run keeps
// its facts in memory, each as a copy of the value it was exported with (see
// DESIGN.md §5a); nothing outlives the process.
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is an analyzer-defined datum attached to a package-level object and
// visible to later analysis of importing packages. Implementations must be
// pointer types; AFact is a marker method.
type Fact interface{ AFact() }

// objectKey names a package-level object within its package: "F" for a
// function or variable, "(T).M" / "(*T).M" for a method of a package-level
// named type. Objects that are not package-level (locals, closures, fields)
// have no key and cannot carry facts.
func objectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		// Non-function package-level objects (vars, types, consts).
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Name(), true
		}
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	recv := sig.Recv()
	if recv == nil {
		if fn.Parent() != obj.Pkg().Scope() {
			return "", false // closure or local func
		}
		return fn.Name(), true
	}
	t := recv.Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("(%s%s).%s", ptr, named.Obj().Name(), fn.Name()), true
}

// CanCarryFact reports whether obj is what ExportObjectFact accepts: a
// package-level object or a method of a package-level named type.
func CanCarryFact(obj types.Object) bool {
	_, ok := objectKey(obj)
	return ok
}

// factKey names one fact: the object it is attached to (package path and
// objectKey), the analyzer that owns it, and its concrete (pointer) type.
type factKey struct {
	pkg, object, analyzer string
	typ                   reflect.Type
}

// factStore holds every fact of one RunWith, each as a copy of the value its
// exporter pointed at. Packages are analyzed imports-first, so a dependent's
// pass finds its dependencies' facts here.
type factStore map[factKey]any

// ExportObjectFact attaches a copy of *fact to obj, which must be a
// package-level object (or method of a package-level type) of the pass's own
// package. The fact is visible to this analyzer for the rest of this pass and
// when importing packages are analyzed.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj.Pkg() == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: %s: exporting fact for foreign object %v", p.Analyzer.Name, obj))
	}
	key, ok := objectKey(obj)
	if !ok {
		panic(fmt.Sprintf("analysis: %s: exporting fact for non-package-level object %v", p.Analyzer.Name, obj))
	}
	k := factKey{p.Pkg.Path(), key, p.Analyzer.Name, reflect.TypeOf(fact)}
	p.facts[k] = reflect.ValueOf(fact).Elem().Interface()
}

// ImportObjectFact copies the fact previously exported for obj by this
// analyzer into *ptr, reporting whether one was found. obj may belong to any
// package in the analyzed set, the pass's own included.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := objectKey(obj)
	if !ok {
		return false
	}
	v, ok := p.facts[factKey{obj.Pkg().Path(), key, p.Analyzer.Name, reflect.TypeOf(ptr)}]
	if ok {
		reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(v))
	}
	return ok
}
