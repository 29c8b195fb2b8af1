// Package analysis implements custodylint, the project-specific static
// checks that keep the reproduction honest: determinism of the allocator
// hot paths, the package layering DAG, error-handling hygiene, and the
// concurrency-safety and allocation contracts of custodyd and the
// allocator hot paths. The checks are built on the standard library only
// (go/ast, go/parser, go/types) so the module keeps zero external
// dependencies.
//
// Seven analyzers are provided (see All):
//
//   - detrand: no ambient nondeterminism (math/rand, time.Now/Since and
//     the timer constructors, os.Getenv, os.Getpid) inside internal/
//     outside internal/xrand — seeded randomness, clocks, and
//     configuration must flow in explicitly.
//   - maporder: no ordering-sensitive work (appends, output, channel sends)
//     fed directly from map iteration unless the result is sorted in the
//     same function or the loop is annotated //custody:ordered.
//   - layering: the leaf layers (core, matching, maxflow, netsim, xrand)
//     must not import the orchestration layers (driver, experiments, sim,
//     manager) or cmd/*.
//   - errdrop: no silently discarded error returns outside tests — neither
//     `_ =` assignments, `var _ =` declarations, nor bare call statements.
//   - guardedby: fields annotated //custody:guardedby <mutexField> may only
//     be accessed inside a lexical Lock/Unlock (or RLock/RUnlock) span of
//     the named sibling mutex, or in a method annotated
//     //custody:holds <mutexField>.
//   - goroutine: `go` statements must not capture mutable package state or
//     unguarded struct fields, and single-threaded leaf packages
//     (internal/core, internal/event, internal/obsv) stay free of
//     goroutines and channel operations entirely.
//   - noalloc: functions annotated //custody:noalloc must not contain
//     allocating constructs (append, make/new, composite and function
//     literals, string concatenation, interface boxing, fmt, go/defer) and
//     may only call other noalloc functions — the contract is transitive.
//
// A finding can be suppressed with a trailing comment, or one on the line
// above, of the form
//
//	//custody:ignore <rule> <reason>
//
// where the reason is mandatory: suppressions without a reason are
// themselves diagnostics (rule "ignore"). One comment may carry several
// suppressions by repeating the custody:ignore marker.
//
// The full annotation vocabulary is //custody:guardedby, //custody:holds,
// //custody:noalloc, //custody:ordered, and //custody:ignore; malformed
// guardedby/holds/noalloc annotations are diagnostics in their own right,
// so annotations cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as "file:line: [rule] message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one custodylint rule.
type Analyzer interface {
	// Name is the rule identifier used in diagnostics and suppressions.
	Name() string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc() string
	// Run analyzes one package of the module and returns raw findings;
	// suppression filtering is applied by Run afterwards.
	Run(m *Module, pkg *Package) []Diagnostic
}

// All returns the full custodylint rule set: the determinism, layering and
// error-handling suite plus the concurrency-safety and performance-contract
// suite (guardedby, goroutine, noalloc) that gates custodyd's shared state
// and the allocator's hot paths.
func All() []Analyzer {
	return []Analyzer{
		DetRand{}, MapOrder{}, Layering{}, ErrDrop{},
		GuardedBy{}, Goroutine{}, NoAlloc{},
	}
}

// Run executes the analyzers over every package of the module, applies
// //custody:ignore suppressions, and returns the surviving diagnostics
// sorted by position.
func Run(m *Module, analyzers []Analyzer) []Diagnostic {
	// The suppression vocabulary is always the full rule set: running a
	// filtered subset (custodylint -rule) must not turn suppressions of the
	// other rules into "unknown rule" diagnostics.
	known := map[string]bool{"ordered": true}
	for _, a := range All() {
		known[a.Name()] = true
	}
	for _, a := range analyzers {
		known[a.Name()] = true
	}

	var diags []Diagnostic
	suppress := map[suppressKey]bool{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			dirs, bad := parseDirectives(m.Fset, f, known)
			diags = append(diags, bad...)
			for _, d := range dirs {
				if d.kind != "ignore" {
					continue
				}
				// A directive covers its own line (trailing comment) and
				// the line below it (comment-above style).
				fn := m.Fset.Position(d.pos).Filename
				suppress[suppressKey{fn, d.line, d.rule}] = true
				suppress[suppressKey{fn, d.line + 1, d.rule}] = true
			}
		}
		for _, a := range analyzers {
			diags = append(diags, a.Run(m, pkg)...)
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if suppress[suppressKey{d.Pos.Filename, d.Pos.Line, d.Rule}] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return kept
}

type suppressKey struct {
	file string
	line int
	rule string
}

// directive is one parsed //custody:... comment.
type directive struct {
	kind   string // "ignore" or "ordered"
	rule   string // for ignore: the rule being suppressed
	reason string
	line   int
	pos    token.Pos
}

// parseDirectives extracts //custody:ignore and //custody:ordered comments
// from a file. Malformed ignores (missing rule or reason, unknown rule) are
// returned as diagnostics under the "ignore" rule so that suppressions can
// never silently rot.
func parseDirectives(fset *token.FileSet, f *ast.File, known map[string]bool) ([]directive, []Diagnostic) {
	var dirs []directive
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			pos := fset.Position(c.Pos())
			switch {
			case strings.HasPrefix(text, "custody:ignore"):
				// One comment may carry several suppressions:
				//   //custody:ignore errdrop io best-effort custody:ignore detrand clock label
				// Each "custody:ignore" introduces a new <rule> <reason> pair.
				for _, rest := range strings.Split(text, "custody:ignore")[1:] {
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						bad = append(bad, Diagnostic{Pos: pos, Rule: "ignore",
							Message: "custody:ignore needs a rule and a reason: //custody:ignore <rule> <reason>"})
						continue
					}
					rule := fields[0]
					if !known[rule] {
						bad = append(bad, Diagnostic{Pos: pos, Rule: "ignore",
							Message: fmt.Sprintf("custody:ignore names unknown rule %q", rule)})
						continue
					}
					reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), rule))
					if reason == "" {
						bad = append(bad, Diagnostic{Pos: pos, Rule: "ignore",
							Message: fmt.Sprintf("custody:ignore %s needs a reason: //custody:ignore %s <reason>", rule, rule)})
						continue
					}
					dirs = append(dirs, directive{kind: "ignore", rule: rule, reason: reason, line: pos.Line, pos: c.Pos()})
				}
			case strings.HasPrefix(text, "custody:ordered"):
				reason := strings.TrimSpace(strings.TrimPrefix(text, "custody:ordered"))
				dirs = append(dirs, directive{kind: "ordered", reason: reason, line: pos.Line, pos: c.Pos()})
			}
		}
	}
	return dirs, bad
}

// orderedLines returns the set of lines covered by //custody:ordered
// annotations in f: the annotation line itself and the line below it.
func orderedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	dirs, _ := parseDirectives(fset, f, map[string]bool{})
	for _, d := range dirs {
		if d.kind == "ordered" {
			lines[d.line] = true
			lines[d.line+1] = true
		}
	}
	return lines
}

// importedPackage resolves the package an identifier refers to, returning
// its import path, or "" if the identifier is not a package name (e.g. it
// is shadowed by a local variable). Type information is used when present;
// otherwise the file's import table is consulted syntactically.
func importedPackage(pkg *Package, f *ast.File, id *ast.Ident) string {
	if pkg.Info != nil {
		if obj, ok := pkg.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // resolved to something that is not a package
		}
	}
	for _, spec := range f.Imports {
		p := strings.Trim(spec.Path.Value, `"`)
		name := p
		if i := strings.LastIndex(p, "/"); i >= 0 {
			name = p[i+1:]
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == id.Name {
			return p
		}
	}
	return ""
}
