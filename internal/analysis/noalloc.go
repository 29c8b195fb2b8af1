package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc turns the dynamic zero-allocation pins (obsv's
// TestRecordingDoesNotAllocate, core's TestMicroInstanceWarmRound) into a static,
// whole-repo contract: a function annotated //custody:noalloc must not
// contain constructs that allocate. Flagged constructs:
//
//   - append (growth may allocate; warm-arena appends carry a reasoned
//     //custody:ignore noalloc),
//   - make, new, slice and map composite literals, &T{} literals,
//   - closures (func literals), go statements, defers,
//   - string concatenation and string<->[]byte/[]rune conversions,
//   - interface boxing of non-pointer values (arguments, assignments),
//   - fmt calls,
//   - calls to functions not themselves annotated //custody:noalloc
//     (standard-library calls, dynamic dispatch, and unannotated
//     module-local functions).
//
// The call rule makes the contract transitive: the allocator's pick/update
// chain, the flight recorder's record path, and the event heap are each
// annotated end to end, so a future allocation cannot hide one call deep.
// Map index writes are not flagged (warm maps reuse buckets across rounds);
// the dynamic allocs/op gate still covers them.
type NoAlloc struct{}

// Name implements Analyzer.
func (NoAlloc) Name() string { return "noalloc" }

// Doc implements Analyzer.
func (NoAlloc) Doc() string {
	return "functions annotated //custody:noalloc must not allocate: no append/make/new, map/slice/closure " +
		"literals, string concatenation, interface boxing, fmt, or calls to non-noalloc functions"
}

// allocSafeBuiltins never allocate.
var allocSafeBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"min": true, "max": true, "real": true, "imag": true, "panic": true,
	"recover": true, "print": true, "println": true,
}

// Run implements Analyzer.
func (NoAlloc) Run(m *Module, pkg *Package) []Diagnostic {
	idx := m.annotations()
	diags := append([]Diagnostic(nil), filterRule(idx.bad[pkg], "noalloc")...)
	if pkg.Info == nil {
		return diags
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pkg.Info.Defs[fd.Name]
			if obj == nil || !idx.noalloc[obj] {
				continue
			}
			diags = append(diags, checkNoAllocFunc(m, pkg, fd)...)
		}
	}
	return diags
}

// checkNoAllocFunc flags every allocating construct in one annotated
// function body.
func checkNoAllocFunc(m *Module, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	flag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     m.Fset.Position(pos),
			Rule:    "noalloc",
			Message: fmt.Sprintf("//custody:noalloc %s: ", fd.Name.Name) + fmt.Sprintf(format, args...),
		})
	}

	addrOfLit := map[*ast.CompositeLit]bool{} // &T{} literals, flagged at the &
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			diags = append(diags, checkNoAllocCall(m, pkg, fd, x, flag)...)
		case *ast.CompositeLit:
			if addrOfLit[x] {
				return true
			}
			t := pkg.Info.TypeOf(x)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				flag(x.Pos(), "slice literal allocates")
			case *types.Map:
				flag(x.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					addrOfLit[lit] = true
					flag(x.Pos(), "&composite-literal allocates (escapes to the heap)")
				}
			}
		case *ast.FuncLit:
			flag(x.Pos(), "closure literal allocates")
			return false // body is the closure's problem, not this function's
		case *ast.GoStmt:
			flag(x.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			flag(x.Pos(), "defer may allocate its frame")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pkg.Info.TypeOf(x)) {
				flag(x.Pos(), "string concatenation allocates; use a preallocated buffer")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(pkg.Info.TypeOf(x.Lhs[0])) {
				flag(x.Pos(), "string += allocates; use a preallocated buffer")
			}
			diags = append(diags, checkBoxingAssign(m, pkg, fd, x)...)
		}
		return true
	})
	return diags
}

// checkNoAllocCall classifies one call inside a noalloc function: builtins,
// conversions, fmt, dynamic dispatch, and the transitive noalloc rule.
func checkNoAllocCall(m *Module, pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, flag func(token.Pos, string, ...any)) []Diagnostic {
	info := pkg.Info
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if obj, ok := info.Uses[id]; ok {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				switch id.Name {
				case "append":
					flag(call.Pos(), "append may grow its backing array; prove the arena is warm and suppress with a reason")
				case "make":
					flag(call.Pos(), "make allocates")
				case "new":
					flag(call.Pos(), "new allocates")
				default:
					if !allocSafeBuiltins[id.Name] {
						flag(call.Pos(), "builtin %s may allocate", id.Name)
					}
				}
				return nil
			}
		}
	}

	// Type conversions: string <-> []byte/[]rune copy; boxing into an
	// interface type.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			switch {
			case isStringType(to) && !isStringType(from):
				flag(call.Pos(), "conversion to string copies")
			case !isStringType(to) && isStringType(from) && isByteOrRuneSlice(to):
				flag(call.Pos(), "conversion from string copies")
			case isInterfaceType(to) && boxes(from):
				flag(call.Pos(), "conversion to interface boxes a non-pointer value")
			}
		}
		return nil
	}

	// fmt calls.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			for _, f := range pkg.Files {
				if within(f, call.Pos()) {
					if importedPackage(pkg, f, id) == "fmt" {
						flag(call.Pos(), "fmt.%s allocates (boxing and formatting buffers)", sel.Sel.Name)
						return nil
					}
					break
				}
			}
		}
	}

	var diags []Diagnostic

	// Argument boxing against the callee signature.
	if sig, ok := typeAsSignature(info.TypeOf(call.Fun)); ok {
		diags = append(diags, checkBoxingArgs(m, pkg, fd, call, sig)...)
	}

	// Callee annotation: the transitive noalloc rule.
	callee := calleeObject(info, fun)
	switch {
	case callee == nil:
		flag(call.Pos(), "dynamic call to %s cannot be verified noalloc; devirtualize or suppress with a "+
			"reason stating the implementation contract", calleeString(call))
	case callee.Pkg() == nil:
		// error() method and friends; harmless.
	case strings.HasPrefix(callee.Pkg().Path(), m.Path+"/") || callee.Pkg().Path() == m.Path:
		if !m.isNoAlloc(callee) {
			flag(call.Pos(), "call to %s, which is not annotated //custody:noalloc; annotate the callee "+
				"or suppress with a reason", calleeString(call))
		}
	default:
		flag(call.Pos(), "call to %s is outside the //custody:noalloc contract; suppress with a reason "+
			"if it provably does not allocate", calleeString(call))
	}
	return diags
}

// calleeObject resolves the called function's object: a module-local or
// imported *types.Func for static calls, nil for dynamic ones (interface
// methods, function values).
func calleeObject(info *types.Info, fun ast.Expr) types.Object {
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[f]; ok {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[f]; ok {
			// Method call: dynamic when the receiver is an interface.
			if types.IsInterface(s.Recv()) {
				return nil
			}
			return s.Obj()
		}
		// Package-qualified call.
		if obj, ok := info.Uses[f.Sel]; ok {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj
			}
		}
	}
	return nil
}

// checkBoxingArgs flags call arguments whose parameter is an interface type
// while the argument's static type is a boxable (non-pointer, non-interface)
// value.
func checkBoxingArgs(m *Module, pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, sig *types.Signature) []Diagnostic {
	var diags []Diagnostic
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil || !isInterfaceType(pt) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if boxes(at) {
			diags = append(diags, Diagnostic{
				Pos:  m.Fset.Position(arg.Pos()),
				Rule: "noalloc",
				Message: fmt.Sprintf("//custody:noalloc %s: passing %s as interface %s boxes the value",
					fd.Name.Name, at, pt),
			})
		}
	}
	return diags
}

// checkBoxingAssign flags assignments that box a non-pointer value into an
// interface-typed destination.
func checkBoxingAssign(m *Module, pkg *Package, fd *ast.FuncDecl, s *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	if len(s.Lhs) != len(s.Rhs) {
		return nil
	}
	for i := range s.Lhs {
		lt := pkg.Info.TypeOf(s.Lhs[i])
		rt := pkg.Info.TypeOf(s.Rhs[i])
		if lt != nil && isInterfaceType(lt) && boxes(rt) {
			diags = append(diags, Diagnostic{
				Pos:  m.Fset.Position(s.Rhs[i].Pos()),
				Rule: "noalloc",
				Message: fmt.Sprintf("//custody:noalloc %s: assigning %s into interface %s boxes the value",
					fd.Name.Name, rt, lt),
			})
		}
	}
	return diags
}

// boxes reports whether storing a value of type t into an interface
// allocates: true for concrete non-pointer, non-interface, non-nil types.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if isInterfaceType(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isInterfaceType(t types.Type) bool {
	return t != nil && types.IsInterface(t)
}

// typeAsSignature unwraps a call target's type to its signature.
func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// within reports whether pos falls inside the file's span.
func within(f *ast.File, pos token.Pos) bool {
	return pos >= f.FileStart && pos <= f.FileEnd
}
