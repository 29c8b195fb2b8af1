package analysis

import (
	"go/ast"
	"go/types"
)

// This file implements the lexical lock-span tracking behind the guardedby
// analyzer. The model is deliberately lexical, not flow-sensitive: a mutex
// is "held" from a `x.Lock()` statement to the matching `x.Unlock()` in the
// same statement list, or to the end of the function when the unlock is
// deferred. Locks taken inside a nested block are considered released when
// the block ends (the common Go idioms — lock/defer-unlock at the top, or a
// paired lock/unlock in one block — are all recognized; exotic shapes need
// a //custody:ignore with a reason).

// heldSet is the set of lexically-held mutexes, keyed by the lexical form
// of the mutex expression (types.ExprString of the receiver, e.g. "s.mu").
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// lockWalker walks one function body maintaining the held set.
type lockWalker struct {
	pkg *Package

	// onExpr is invoked for every expression node outside nested function
	// literals, with the current held set.
	onExpr func(n ast.Node, held heldSet)
}

// walkFunc walks fd's body. initial seeds the held set (from
// //custody:holds annotations); keys are lexical, e.g. "c.mu".
func (w *lockWalker) walkFunc(fd *ast.FuncDecl, initial heldSet) {
	if fd.Body == nil {
		return
	}
	w.stmts(fd.Body.List, initial.clone())
}

func (w *lockWalker) stmts(list []ast.Stmt, held heldSet) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

// stmt processes one statement, mutating held for lock/unlock statements at
// this nesting level and recursing into control flow with cloned sets.
func (w *lockWalker) stmt(s ast.Stmt, held heldSet) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if key, op := w.lockOp(st.X); op != "" {
			switch op {
			case "Lock", "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		w.exprs(held, st.X)
	case *ast.DeferStmt:
		if _, op := w.lockOp(st.Call); op == "Unlock" || op == "RUnlock" {
			return // deferred unlock: held to end of function
		}
		w.exprs(held, st.Call)
	case *ast.AssignStmt:
		w.exprs(held, exprsOf(st.Lhs, st.Rhs)...)
	case *ast.ReturnStmt:
		w.exprs(held, st.Results...)
	case *ast.IfStmt:
		inner := held.clone()
		if st.Init != nil {
			w.stmt(st.Init, inner)
		}
		w.exprs(inner, st.Cond)
		w.stmts(st.Body.List, inner.clone())
		if st.Else != nil {
			w.stmt(st.Else, inner.clone())
		}
	case *ast.ForStmt:
		inner := held.clone()
		if st.Init != nil {
			w.stmt(st.Init, inner)
		}
		if st.Cond != nil {
			w.exprs(inner, st.Cond)
		}
		if st.Post != nil {
			w.stmt(st.Post, inner)
		}
		w.stmts(st.Body.List, inner.clone())
	case *ast.RangeStmt:
		inner := held.clone()
		w.exprs(inner, st.X)
		w.stmts(st.Body.List, inner)
	case *ast.SwitchStmt:
		inner := held.clone()
		if st.Init != nil {
			w.stmt(st.Init, inner)
		}
		if st.Tag != nil {
			w.exprs(inner, st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.exprs(inner, cc.List...)
				w.stmts(cc.Body, inner.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		inner := held.clone()
		if st.Init != nil {
			w.stmt(st.Init, inner)
		}
		w.stmt(st.Assign, inner)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, inner.clone())
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := held.clone()
				if cc.Comm != nil {
					w.stmt(cc.Comm, inner)
				}
				w.stmts(cc.Body, inner)
			}
		}
	case *ast.BlockStmt:
		w.stmts(st.List, held.clone())
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.GoStmt:
		w.exprs(held, st.Call)
	case *ast.SendStmt:
		w.exprs(held, st.Chan, st.Value)
	case *ast.IncDecStmt:
		w.exprs(held, st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(held, vs.Values...)
				}
			}
		}
	}
}

func exprsOf(lists ...[]ast.Expr) []ast.Expr {
	var out []ast.Expr
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// exprs reports every expression node to onExpr, skipping nested function
// literals (their bodies execute at an unknown time, so the current held
// set does not apply; they are walked with an empty set).
func (w *lockWalker) exprs(held heldSet, es ...ast.Expr) {
	for _, e := range es {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				w.stmts(fl.Body.List, heldSet{})
				return false
			}
			if n != nil && w.onExpr != nil {
				w.onExpr(n, held)
			}
			return true
		})
	}
}

// lockOp recognizes a mutex Lock/Unlock/RLock/RUnlock call and returns the
// lexical key of the receiver and the operation. op is "" for anything
// else.
func (w *lockWalker) lockOp(e ast.Expr) (key, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	if !w.isSyncMethod(sel) {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}

// isSyncMethod reports whether the selected method is declared by the sync
// package (directly or promoted through an embedded sync.Mutex/RWMutex).
func (w *lockWalker) isSyncMethod(sel *ast.SelectorExpr) bool {
	if w.pkg.Info == nil {
		return false
	}
	obj := w.pkg.Info.Uses[sel.Sel]
	if obj == nil {
		if s, ok := w.pkg.Info.Selections[sel]; ok {
			obj = s.Obj()
		}
	}
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
