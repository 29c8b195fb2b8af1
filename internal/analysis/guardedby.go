package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// GuardedBy enforces the //custody:guardedby <mutexField> field annotation:
// every read or write of an annotated struct field must be lexically inside
// a Lock/Unlock (or RLock/RUnlock) span of the named sibling mutex on the
// same receiver expression, or inside a method annotated
// //custody:holds <mutexField> (callers guarantee the lock). custodyd's
// HTTP handlers and round loop share its state across goroutines; this
// rule makes the locking discipline a compile-gate instead of a
// race-detector lottery.
//
// The span model is lexical (see spans.go): lock/defer-unlock at the top of
// a function and paired lock/unlock in one block are recognized; aliased
// receivers and cross-function lock passing need //custody:holds or a
// reasoned //custody:ignore.
type GuardedBy struct{}

// Name implements Analyzer.
func (GuardedBy) Name() string { return "guardedby" }

// Doc implements Analyzer.
func (GuardedBy) Doc() string {
	return "fields annotated //custody:guardedby <mutexField> may only be accessed inside a lexical " +
		"Lock/Unlock span of that mutex or in a method annotated //custody:holds <mutexField>"
}

// Run implements Analyzer.
func (GuardedBy) Run(m *Module, pkg *Package) []Diagnostic {
	idx := m.annotations()
	diags := append([]Diagnostic(nil), filterRule(idx.bad[pkg], "guardedby")...)
	if pkg.Info == nil {
		return diags
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			diags = append(diags, checkGuardedFunc(m, pkg, fd, idx)...)
		}
	}
	return diags
}

// filterRule keeps only the diagnostics of one rule.
func filterRule(diags []Diagnostic, rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

// checkGuardedFunc walks one function with lexical lock tracking and flags
// guarded-field accesses outside their mutex span.
func checkGuardedFunc(m *Module, pkg *Package, fd *ast.FuncDecl, idx *annIndex) []Diagnostic {
	var diags []Diagnostic
	initial := heldSet{}
	if holds := m.holdsFields(pkg, fd); holds != nil {
		if recv := receiverName(fd); recv != "" {
			for field := range holds {
				initial[recv+"."+field] = heldEntry{}
			}
		}
	}
	w := &lockWalker{m: m, pkg: pkg}
	w.onExpr = func(n ast.Node, held heldSet) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		obj := pkg.Info.Uses[sel.Sel]
		if obj == nil {
			return
		}
		guard, guarded := idx.guarded[obj]
		if !guarded {
			return
		}
		key := types.ExprString(sel.X) + "." + guard.Mutex
		if _, ok := held[key]; ok {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:  m.Fset.Position(sel.Pos()),
			Rule: "guardedby",
			Message: fmt.Sprintf("%s.%s is annotated //custody:guardedby %s but is accessed without %s held; "+
				"wrap the access in %s.Lock()/Unlock(), annotate the method //custody:holds %s, or suppress with a reason",
				guard.StructName, guard.Field, guard.Mutex, key, key, guard.Mutex),
		})
	}
	w.walkFunc(fd, initial)
	return diags
}

// receiverName returns the name of fd's receiver variable, or "".
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
