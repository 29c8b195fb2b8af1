package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrder builds the module-wide mutex acquisition graph — an edge A → B
// for every site that takes B while lexically holding A (including holds
// asserted by //custody:holds) — and rejects cycles: two call paths that
// acquire the same pair of mutexes in opposite orders can deadlock once
// custodyd runs them on concurrent goroutines. The
// blessed (topological) acquisition order is printed deterministically by
// `custodylint -lockreport`; CI pins that three runs are byte-identical.
//
// Mutexes are canonicalized as "<Type>.<field>" (struct fields) or
// "<pkg>.<var>" (package-level); function-local mutexes never escape a
// single goroutine's scope and are excluded from the graph.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (LockOrder) Doc() string {
	return "the module-wide mutex acquisition graph must be acyclic (a cycle is deadlock potential); " +
		"the blessed order is reported by custodylint -lockreport"
}

// lockEdge is one "B acquired while A held" observation.
type lockEdge struct {
	from, to string
}

// lockGraph is the module-wide acquisition graph.
type lockGraph struct {
	nodes map[string]bool
	edges map[lockEdge]token.Position // first (smallest-position) site per edge
	diags []Diagnostic                // cycle diagnostics
}

// lockGraphOf builds (once) the module's acquisition graph and its cycle
// diagnostics.
func lockGraphOf(m *Module) *lockGraph {
	if m.locks != nil {
		return m.locks
	}
	g := &lockGraph{nodes: map[string]bool{}, edges: map[lockEdge]token.Position{}}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				g.collect(m, pkg, fd)
			}
		}
	}
	g.diags = g.cycleDiagnostics()
	m.locks = g
	return g
}

// collect walks one function recording acquisitions and held-while edges.
func (g *lockGraph) collect(m *Module, pkg *Package, fd *ast.FuncDecl) {
	initial := heldSet{}
	if holds := m.holdsFields(pkg, fd); holds != nil {
		if recv := receiverName(fd); recv != "" {
			for field := range holds {
				initial[recv+"."+field] = heldEntry{canon: holdsCanon(pkg, fd, field)}
			}
		}
	}
	w := &lockWalker{m: m, pkg: pkg}
	w.onLock = func(canon string, pos token.Pos, held heldSet) {
		if canon == "" {
			return
		}
		g.nodes[canon] = true
		p := m.Fset.Position(pos)
		for _, h := range held {
			if h.canon == "" || h.canon == canon {
				continue
			}
			e := lockEdge{from: h.canon, to: canon}
			if old, ok := g.edges[e]; !ok || posLess(p, old) {
				g.edges[e] = p
			}
			g.nodes[h.canon] = true
		}
	}
	w.walkFunc(fd, initial)
}

// holdsCanon canonicalizes a //custody:holds field as "<RecvType>.<field>".
func holdsCanon(pkg *Package, fd *ast.FuncDecl, field string) string {
	if pkg.Info == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return ""
	}
	return recvTypeName(t) + "." + field
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// cycleDiagnostics finds strongly connected components with more than one
// node (or a self-edge) and emits one deterministic diagnostic per cycle,
// anchored at the smallest edge site inside it.
func (g *lockGraph) cycleDiagnostics() []Diagnostic {
	nodes := g.sortedNodes()
	adj := map[string][]string{}
	//custody:ordered every adjacency list is sorted in the loop below
	for e := range g.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, vs := range adj {
		sort.Strings(vs)
	}

	// Tarjan's SCC, iterative over deterministically sorted nodes.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wv := range adj[v] {
			if _, seen := index[wv]; !seen {
				strongconnect(wv)
				if low[wv] < low[v] {
					low[v] = low[wv]
				}
			} else if onStack[wv] {
				if index[wv] < low[v] {
					low[v] = index[wv]
				}
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	var diags []Diagnostic
	for _, scc := range sccs {
		if len(scc) == 1 {
			v := scc[0]
			if _, self := g.edges[lockEdge{from: v, to: v}]; !self {
				continue
			}
		}
		sort.Strings(scc)
		inSCC := map[string]bool{}
		for _, v := range scc {
			inSCC[v] = true
		}
		var at token.Position
		first := true
		for e, p := range g.edges {
			if !inSCC[e.from] || !inSCC[e.to] {
				continue
			}
			if first || posLess(p, at) {
				at = p
				first = false
			}
		}
		diags = append(diags, Diagnostic{
			Pos:  at,
			Rule: "lockorder",
			Message: fmt.Sprintf("mutex acquisition cycle {%s}: these mutexes are taken in conflicting orders "+
				"(deadlock potential); pick one blessed order (see custodylint -lockreport) and restructure",
				strings.Join(scc, ", ")),
		})
	}
	sort.Slice(diags, func(i, j int) bool { return posLess(diags[i].Pos, diags[j].Pos) })
	return diags
}

func (g *lockGraph) sortedNodes() []string {
	nodes := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// Run implements Analyzer. The graph is module-wide; each cycle diagnostic
// is emitted by the package that owns the file it is anchored in, so every
// diagnostic appears exactly once.
func (LockOrder) Run(m *Module, pkg *Package) []Diagnostic {
	g := lockGraphOf(m)
	if len(g.diags) == 0 {
		return nil
	}
	files := map[string]bool{}
	for _, f := range pkg.Files {
		files[m.Fset.Position(f.Pos()).Filename] = true
	}
	var out []Diagnostic
	for _, d := range g.diags {
		if files[d.Pos.Filename] {
			out = append(out, d)
		}
	}
	return out
}

// LockOrderReport renders the module's mutex acquisition graph: every
// mutex, every held-while edge with its first site, and the blessed
// (topological) acquisition order. The output is deterministic —
// byte-identical across runs — so CI can diff it; cycles are reported in
// place of an order when present.
func LockOrderReport(m *Module) string {
	g := lockGraphOf(m)
	var b strings.Builder
	nodes := g.sortedNodes()
	fmt.Fprintf(&b, "lockorder: %d mutex(es), %d edge(s)\n", len(nodes), len(g.edges))

	type edgeAt struct {
		e lockEdge
		p token.Position
	}
	edges := make([]edgeAt, 0, len(g.edges))
	for e, p := range g.edges {
		edges = append(edges, edgeAt{e, p})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].e.from != edges[j].e.from {
			return edges[i].e.from < edges[j].e.from
		}
		return edges[i].e.to < edges[j].e.to
	})
	if len(edges) > 0 {
		b.WriteString("edges (A -> B: B acquired while A held):\n")
		for _, ea := range edges {
			fmt.Fprintf(&b, "  %s -> %s (%s:%d)\n", ea.e.from, ea.e.to, ea.p.Filename, ea.p.Line)
		}
	}

	if len(g.diags) > 0 {
		b.WriteString("cycles:\n")
		for _, d := range g.diags {
			fmt.Fprintf(&b, "  %s\n", d.Message)
		}
		return b.String()
	}

	// Kahn's algorithm with a sorted ready set: the deterministic blessed
	// order. Mutexes not constrained by any edge sort to wherever their
	// name places them in the ready set.
	indeg := map[string]int{}
	out := map[string][]string{}
	for _, n := range nodes {
		indeg[n] = 0
	}
	//custody:ordered successor lists are sorted before use in the Kahn loop
	for e := range g.edges {
		indeg[e.to]++
		out[e.from] = append(out[e.from], e.to)
	}
	ready := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	sort.Strings(ready)
	b.WriteString("blessed acquisition order:\n")
	rank := 1
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		fmt.Fprintf(&b, "  %d. %s\n", rank, n)
		rank++
		next := out[n]
		sort.Strings(next)
		for _, v := range next {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
		sort.Strings(ready)
	}
	if rank == 1 {
		b.WriteString("  (no mutexes in the module)\n")
	}
	return b.String()
}
