package analysis

import (
	"fmt"
	"strings"
)

// Layering enforces the import DAG that keeps the algorithmic kernel
// reusable and testable in isolation. The leaf layers — core, matching,
// maxflow, netsim, obsv, policy, xrand — hold pure algorithms over plain data and
// must never reach up into the orchestration layers (driver, experiments,
// manager, custodyd) or into the binaries (cmd/*). Upward imports
// would drag simulation state, experiment configuration, or I/O into the
// hot paths and make the kernel impossible to verify against the paper's
// algorithms. obsv is the decision-provenance leaf: core, manager, and
// driver all feed it, so it must stay below them all. custodyd is the
// topmost internal layer — the allocation service wrapping driver and
// manager — so nothing below it may import it.
type Layering struct{}

// leafLayers are internal packages that must remain dependency leaves
// (they may import each other and utility leaves such as hdfs or metrics).
var leafLayers = []string{"core", "matching", "maxflow", "netsim", "obsv", "policy", "xrand"}

// forbiddenLayers are the orchestration packages leaves must not import.
var forbiddenLayers = []string{"driver", "experiments", "manager", "custodyd"}

// Name implements Analyzer.
func (Layering) Name() string { return "layering" }

// Doc implements Analyzer.
func (Layering) Doc() string {
	return "leaf layers (internal/core, matching, maxflow, netsim, obsv, policy, xrand) must not import " +
		"orchestration layers (internal/driver, experiments, manager, custodyd) or cmd/*"
}

// Run implements Analyzer.
func (Layering) Run(m *Module, pkg *Package) []Diagnostic {
	rel, ok := strings.CutPrefix(pkg.Path, m.Path+"/internal/")
	if !ok {
		return nil
	}
	layer := rel
	if i := strings.Index(rel, "/"); i >= 0 {
		layer = rel[:i]
	}
	if !contains(leafLayers, layer) {
		return nil
	}

	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			ipath := strings.Trim(spec.Path.Value, `"`)
			bad := ""
			if irel, ok := strings.CutPrefix(ipath, m.Path+"/internal/"); ok {
				seg := irel
				if i := strings.Index(irel, "/"); i >= 0 {
					seg = irel[:i]
				}
				if contains(forbiddenLayers, seg) {
					bad = "internal/" + seg
				}
			}
			if strings.HasPrefix(ipath, m.Path+"/cmd/") {
				bad = "cmd/*"
			}
			if bad == "" {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:  m.Fset.Position(spec.Pos()),
				Rule: "layering",
				Message: fmt.Sprintf("leaf layer internal/%s must not import %s (import of %s breaks the layering DAG; "+
					"move shared types down or invert the dependency)", layer, bad, ipath),
			})
		}
	}
	return diags
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
