package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Goroutine guards the transition from a deliberately single-threaded
// codebase to a concurrent one. Module-wide, it flags `go` statements whose
// function literals capture loop variables (per-iteration copies still
// interleave nondeterministically, and shared captures race) or mutable
// package-level state, and closure accesses to struct fields that are not
// //custody:guardedby-annotated. Inside the determinism-load-bearing leaves
// — internal/core, internal/event, internal/obsv — it bans goroutine
// spawns and channel operations outright: single-threaded execution is what
// makes golden traces byte-identical, so concurrency there must arrive with
// an explicit, reasoned suppression, not by accident.
type Goroutine struct{}

// singleThreadedLeaves are internal packages where single-threaded
// determinism is load-bearing (golden traces, the event queue's total
// order, the zero-alloc flight recorder).
var singleThreadedLeaves = []string{"core", "event", "obsv"}

// Name implements Analyzer.
func (Goroutine) Name() string { return "goroutine" }

// Doc implements Analyzer.
func (Goroutine) Doc() string {
	return "forbid goroutines capturing loop variables, package-level state, or unguarded struct fields; " +
		"forbid goroutine spawns and channel ops in the single-threaded leaves (internal/core, event, obsv)"
}

// Run implements Analyzer.
func (Goroutine) Run(m *Module, pkg *Package) []Diagnostic {
	leaf := isSingleThreadedLeaf(m, pkg)
	diags := append([]Diagnostic(nil), filterRule(m.annotations().bad[pkg], "goroutine")...)
	for _, f := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch s := n.(type) {
			case *ast.GoStmt:
				if leaf {
					diags = append(diags, Diagnostic{
						Pos:  m.Fset.Position(s.Pos()),
						Rule: "goroutine",
						Message: "goroutine spawn in a single-threaded deterministic leaf; concurrency here breaks " +
							"golden-trace determinism — move orchestration up a layer, or suppress with a reason",
					})
				}
				diags = append(diags, checkGoCaptures(m, pkg, s, stack)...)
			case *ast.SendStmt:
				if leaf {
					diags = append(diags, Diagnostic{
						Pos:  m.Fset.Position(s.Pos()),
						Rule: "goroutine",
						Message: "channel send in a single-threaded deterministic leaf; cross-goroutine " +
							"communication here breaks determinism — suppress with a reason if the channel is not shared",
					})
				}
			case *ast.UnaryExpr:
				if leaf && s.Op.String() == "<-" {
					diags = append(diags, Diagnostic{
						Pos:  m.Fset.Position(s.Pos()),
						Rule: "goroutine",
						Message: "channel receive in a single-threaded deterministic leaf; cross-goroutine " +
							"communication here breaks determinism — suppress with a reason if the channel is not shared",
					})
				}
			}
			return true
		})
	}
	return diags
}

// isSingleThreadedLeaf reports whether pkg is one of the internal leaves
// where goroutines and channels are banned.
func isSingleThreadedLeaf(m *Module, pkg *Package) bool {
	rel, ok := strings.CutPrefix(pkg.Path, m.Path+"/internal/")
	if !ok {
		return false
	}
	layer := rel
	if i := strings.Index(rel, "/"); i >= 0 {
		layer = rel[:i]
	}
	for _, l := range singleThreadedLeaves {
		if l == layer {
			return true
		}
	}
	return false
}

// checkGoCaptures inspects a `go func(){...}()` literal for captures of
// loop variables, package-level mutable state, and unguarded struct fields.
func checkGoCaptures(m *Module, pkg *Package, g *ast.GoStmt, stack []ast.Node) []Diagnostic {
	fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok || pkg.Info == nil {
		return nil
	}
	loopVars := enclosingLoopVars(pkg, stack)
	guarded := m.annotations().guarded

	var diags []Diagnostic
	seen := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			obj := pkg.Info.Uses[x]
			if obj == nil || seen[obj] {
				return true
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return true
			}
			if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
				return true // declared inside the literal
			}
			switch {
			case loopVars[obj]:
				seen[obj] = true
				diags = append(diags, Diagnostic{
					Pos:  m.Fset.Position(x.Pos()),
					Rule: "goroutine",
					Message: fmt.Sprintf("goroutine captures loop variable %q; iterations interleave "+
						"nondeterministically — pass it as an argument to the goroutine's function", x.Name),
				})
			case obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope():
				seen[obj] = true
				diags = append(diags, Diagnostic{
					Pos:  m.Fset.Position(x.Pos()),
					Rule: "goroutine",
					Message: fmt.Sprintf("goroutine captures mutable package-level state %q without a guard; "+
						"annotate the state //custody:guardedby under a struct, or pass a copy", x.Name),
				})
			}
		case *ast.SelectorExpr:
			// Field access through a captured base: require the field to be
			// guardedby-annotated (the guardedby rule then checks the span).
			base := rootIdent(x.X)
			if base == nil {
				return true
			}
			baseObj := pkg.Info.Uses[base]
			if baseObj == nil || baseObj.Pos() >= fl.Pos() && baseObj.Pos() <= fl.End() {
				return true // base declared inside the literal
			}
			fieldObj := pkg.Info.Uses[x.Sel]
			if fieldObj == nil {
				return true
			}
			fv, isVar := fieldObj.(*types.Var)
			if !isVar || !fv.IsField() {
				return true
			}
			if isSyncPrimitive(fv.Type()) {
				return true // mutexes, wait groups, etc. synchronize themselves
			}
			if _, ok := guarded[fieldObj]; ok {
				return true
			}
			if seen[fieldObj] {
				return true
			}
			seen[fieldObj] = true
			diags = append(diags, Diagnostic{
				Pos:  m.Fset.Position(x.Pos()),
				Rule: "goroutine",
				Message: fmt.Sprintf("goroutine accesses struct field %q through captured %q without a "+
					"//custody:guardedby annotation; shared mutable state needs a declared guard", x.Sel.Name, base.Name),
			})
		}
		return true
	})
	return diags
}

// isSyncPrimitive reports whether t is one of the self-synchronizing sync
// package types, which a goroutine may touch without a declared guard.
func isSyncPrimitive(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.String() {
	case "sync.Mutex", "sync.RWMutex", "sync.WaitGroup", "sync.Once", "sync.Map", "sync.Pool", "sync.Cond":
		return true
	}
	return false
}

// enclosingLoopVars collects the loop variables of every for/range
// statement on the ancestor stack.
func enclosingLoopVars(pkg *Package, stack []ast.Node) map[types.Object]bool {
	vars := map[types.Object]bool{}
	addIdent := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := pkg.Info.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
	for _, n := range stack {
		switch s := n.(type) {
		case *ast.RangeStmt:
			if s.Key != nil {
				addIdent(s.Key)
			}
			if s.Value != nil {
				addIdent(s.Value)
			}
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					addIdent(lhs)
				}
			}
		}
	}
	return vars
}
