package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide annotation index behind the concurrency
// and performance contracts:
//
//	//custody:guardedby <mutexField>  on a struct field: every access must be
//	                                  lexically inside a Lock/RLock span of
//	                                  the named sibling mutex, or in a method
//	                                  annotated //custody:holds.
//	//custody:holds <mutexField>...   on a method: callers guarantee the named
//	                                  receiver mutexes are held on entry.
//	//custody:noalloc                 on a function: its body must not contain
//	                                  allocating constructs (see NoAlloc).
//
// Malformed annotations are diagnostics (rule "guardedby" or "noalloc"), the
// same never-rot policy as reasonless //custody:ignore suppressions.

// guardInfo describes one //custody:guardedby annotation.
type guardInfo struct {
	Mutex      string // sibling mutex field name
	StructName string // declaring struct type, for messages
	Field      string // annotated field name
}

// annIndex is the module-wide annotation table, built once per Module.
type annIndex struct {
	guarded map[types.Object]guardInfo       // field object → its guard
	holds   map[types.Object]map[string]bool // func object → held mutex field names
	noalloc map[types.Object]bool            // func object → //custody:noalloc
	bad     map[*Package][]Diagnostic        // malformed annotations, per declaring package
}

// annotations returns the module's annotation index, building it on first
// use. Run is sequential over packages, so no locking is needed.
func (m *Module) annotations() *annIndex {
	if m.ann != nil {
		return m.ann
	}
	idx := &annIndex{
		guarded: map[types.Object]guardInfo{},
		holds:   map[types.Object]map[string]bool{},
		noalloc: map[types.Object]bool{},
		bad:     map[*Package][]Diagnostic{},
	}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			idx.collectFile(m, pkg, f)
		}
	}
	m.ann = idx
	return idx
}

// annotationLines extracts "custody:<verb> <args>" lines from a comment
// group, returning verb → trimmed args (last one wins per verb).
func annotationLines(cg *ast.CommentGroup) map[string]string {
	if cg == nil {
		return nil
	}
	var out map[string]string
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		for _, verb := range []string{"guardedby", "holds", "noalloc"} {
			if rest, ok := strings.CutPrefix(text, "custody:"+verb); ok {
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. custody:noallocX
				}
				if out == nil {
					out = map[string]string{}
				}
				out[verb] = strings.TrimSpace(rest)
			}
		}
	}
	return out
}

// collectFile harvests the annotations of one file into the index.
func (idx *annIndex) collectFile(m *Module, pkg *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.TypeSpec:
			st, ok := d.Type.(*ast.StructType)
			if !ok {
				return true
			}
			idx.collectStruct(m, pkg, d.Name.Name, st)
			return false
		case *ast.FuncDecl:
			idx.collectFunc(m, pkg, d)
			return false
		}
		return true
	})
}

// collectStruct records //custody:guardedby annotations on the fields of one
// struct declaration, validating that the named mutex is a sibling field.
func (idx *annIndex) collectStruct(m *Module, pkg *Package, typeName string, st *ast.StructType) {
	fieldNames := map[string]bool{}
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			fieldNames[name.Name] = true
		}
	}
	for _, fld := range st.Fields.List {
		mutex, annotated := "", false
		for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
			if ann := annotationLines(cg); ann != nil {
				if v, ok := ann["guardedby"]; ok {
					mutex, annotated = v, true
				}
			}
		}
		if !annotated {
			continue
		}
		if mutex == "" {
			idx.bad[pkg] = append(idx.bad[pkg], Diagnostic{
				Pos: m.Fset.Position(fld.Pos()), Rule: "guardedby",
				Message: "custody:guardedby needs a mutex field name: //custody:guardedby <mutexField>",
			})
			continue
		}
		if !fieldNames[mutex] {
			idx.bad[pkg] = append(idx.bad[pkg], Diagnostic{
				Pos: m.Fset.Position(fld.Pos()), Rule: "guardedby",
				Message: fmt.Sprintf("custody:guardedby names %q, which is not a field of %s", mutex, typeName),
			})
			continue
		}
		if len(fld.Names) == 0 {
			idx.bad[pkg] = append(idx.bad[pkg], Diagnostic{
				Pos: m.Fset.Position(fld.Pos()), Rule: "guardedby",
				Message: "custody:guardedby on an embedded field is not supported; name the field",
			})
			continue
		}
		for _, name := range fld.Names {
			if pkg.Info == nil {
				continue
			}
			if obj := pkg.Info.Defs[name]; obj != nil {
				idx.guarded[obj] = guardInfo{Mutex: mutex, StructName: typeName, Field: name.Name}
			}
		}
	}
}

// collectFunc records //custody:holds and //custody:noalloc annotations on
// one function declaration.
func (idx *annIndex) collectFunc(m *Module, pkg *Package, fd *ast.FuncDecl) {
	ann := annotationLines(fd.Doc)
	if ann == nil {
		return
	}
	var obj types.Object
	if pkg.Info != nil {
		obj = pkg.Info.Defs[fd.Name]
	}
	if _, ok := ann["noalloc"]; ok && obj != nil {
		idx.noalloc[obj] = true
	}
	if fields, ok := ann["holds"]; ok {
		if fd.Recv == nil {
			idx.bad[pkg] = append(idx.bad[pkg], Diagnostic{
				Pos: m.Fset.Position(fd.Pos()), Rule: "guardedby",
				Message: "custody:holds is only meaningful on a method (it names receiver mutex fields)",
			})
			return
		}
		names := strings.Fields(fields)
		if len(names) == 0 {
			idx.bad[pkg] = append(idx.bad[pkg], Diagnostic{
				Pos: m.Fset.Position(fd.Pos()), Rule: "guardedby",
				Message: "custody:holds needs at least one mutex field name: //custody:holds <mutexField>",
			})
			return
		}
		if obj != nil {
			set := map[string]bool{}
			for _, n := range names {
				set[n] = true
			}
			idx.holds[obj] = set
		}
	}
}

// holdsFields returns the mutex field names a //custody:holds annotation
// declares held for fd, or nil.
func (m *Module) holdsFields(pkg *Package, fd *ast.FuncDecl) map[string]bool {
	if pkg.Info == nil {
		return nil
	}
	obj := pkg.Info.Defs[fd.Name]
	if obj == nil {
		return nil
	}
	return m.annotations().holds[obj]
}

// isNoAlloc reports whether the function object carries //custody:noalloc.
func (m *Module) isNoAlloc(obj types.Object) bool {
	if obj == nil {
		return false
	}
	return m.annotations().noalloc[obj]
}

// NoAllocFuncs returns the module-relative names of every function annotated
// //custody:noalloc, as "<pkg>.<recv.>name", sorted. Tests use it to pin
// that the static contract covers the paths the dynamic allocation pins
// cover.
func (m *Module) NoAllocFuncs() []string {
	idx := m.annotations()
	var out []string
	for obj := range idx.noalloc {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		name := fn.Name()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			name = recvTypeName(sig.Recv().Type()) + "." + name
		}
		pkgRel := strings.TrimPrefix(fn.Pkg().Path(), m.Path+"/")
		out = append(out, pkgRel+"."+name)
	}
	sort.Strings(out)
	return out
}

// recvTypeName names a receiver type with pointers stripped.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
