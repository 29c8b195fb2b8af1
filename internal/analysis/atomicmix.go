package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix enforces all-or-nothing atomicity: a variable or struct field
// that is accessed through sync/atomic anywhere in the module must be
// accessed atomically everywhere. Mixing atomic.AddInt64(&x, 1) with a
// plain `x++` (or even a plain read) is a data race the compiler accepts
// and the race detector only catches when the schedule cooperates, which
// makes it the easiest concurrency bug to write. A deliberate non-atomic
// access (e.g. a read during single-threaded initialization) needs a
// //custody:ignore atomicmix with the reason.
type AtomicMix struct{}

// Name implements Analyzer.
func (AtomicMix) Name() string { return "atomicmix" }

// Doc implements Analyzer.
func (AtomicMix) Doc() string {
	return "a variable or field accessed via sync/atomic anywhere must be accessed atomically everywhere"
}

// atomicIndex is the module-wide table of atomically-accessed objects.
type atomicIndex struct {
	objs map[types.Object]token.Position // object → first atomic site
	ok   map[token.Pos]bool              // ident positions inside atomic call args
}

// atomicIndexOf builds (once) the module's atomic-access table.
func atomicIndexOf(m *Module) *atomicIndex {
	if m.atomix != nil {
		return m.atomix
	}
	idx := &atomicIndex{objs: map[types.Object]token.Position{}, ok: map[token.Pos]bool{}}
	for _, pkg := range m.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicCall(pkg, f, call) {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					id := selectedIdent(un.X)
					if id == nil {
						continue
					}
					obj := pkg.Info.Uses[id]
					if obj == nil {
						continue
					}
					p := m.Fset.Position(id.Pos())
					if old, seen := idx.objs[obj]; !seen || posLess(p, old) {
						idx.objs[obj] = p
					}
					idx.ok[id.Pos()] = true
				}
				return true
			})
		}
	}
	m.atomix = idx
	return idx
}

// isAtomicCall reports whether call invokes a sync/atomic function.
func isAtomicCall(pkg *Package, f *ast.File, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return importedPackage(pkg, f, id) == "sync/atomic"
}

// selectedIdent returns the field/variable ident addressed by &expr: the
// Sel of a selector, or a plain ident.
func selectedIdent(e ast.Expr) *ast.Ident {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.Ident:
		return x
	case *ast.IndexExpr:
		return selectedIdent(x.X)
	}
	return nil
}

// Run implements Analyzer.
func (AtomicMix) Run(m *Module, pkg *Package) []Diagnostic {
	idx := atomicIndexOf(m)
	if len(idx.objs) == 0 || pkg.Info == nil {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || idx.ok[id.Pos()] {
				return true
			}
			obj := pkg.Info.Uses[id]
			if obj == nil {
				return true
			}
			first, atomicObj := idx.objs[obj]
			if !atomicObj {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:  m.Fset.Position(id.Pos()),
				Rule: "atomicmix",
				Message: fmt.Sprintf("%s is accessed via sync/atomic (first at %s:%d) but non-atomically here; "+
					"use the atomic API everywhere or suppress with the reason the mixed access is safe",
					id.Name, first.Filename, first.Line),
			})
			return true
		})
	}
	return diags
}
