// Command custodylint runs the project's static-analysis suite over the
// module: determinism (detrand, maporder), layering, error-handling
// (errdrop), concurrency-safety (guardedby, goroutine), and hot-path
// allocation (noalloc) contracts. See internal/analysis for the rules and
// DESIGN.md ("Invariants & static analysis") for the rationale.
//
// Usage:
//
//	custodylint [flags] [packages]
//
// The package patterns are accepted for familiarity (`./...`) but the whole
// module is always analyzed; the tool walks the module tree itself so it
// works without go/packages or any external dependency. Exits 0 when clean,
// 1 on findings, 2 on usage or load errors.
//
// Flags:
//
//	-root dir      module root to analyze (default: walk up from cwd to go.mod)
//	-modpath path  module path override (for trees without a go.mod, e.g. fixtures)
//	-rules         print the rule set and exit
//	-rule names    run only the named rules (comma-separated, e.g. -rule noalloc,guardedby)
//	-json          emit findings as a JSON array on stdout (CI artifact format)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

// jsonFinding is the CI artifact schema for one diagnostic.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	root := flag.String("root", "", "module root to analyze (default: nearest go.mod above cwd)")
	modpath := flag.String("modpath", "", "module path override (for fixture trees without a go.mod)")
	rules := flag.Bool("rules", false, "print the rule set and exit")
	ruleFilter := flag.String("rule", "", "run only the named rules (comma-separated)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *rules {
		for _, a := range analysis.All() {
			fmt.Printf("%-10s %s\n", a.Name(), a.Doc())
		}
		return
	}

	analyzers := analysis.All()
	if *ruleFilter != "" {
		byName := map[string]analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name()] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*ruleFilter, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fatal(fmt.Errorf("unknown rule %q (see -rules for the set)", name))
			}
			analyzers = append(analyzers, a)
		}
	}

	if *root == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		r, err := analysis.FindModuleRoot(cwd)
		if err != nil {
			fatal(err)
		}
		*root = r
	}

	var m *analysis.Module
	var err error
	if *modpath != "" {
		m, err = analysis.Load(*root, *modpath)
	} else {
		m, err = analysis.LoadModule(*root)
	}
	if err != nil {
		fatal(err)
	}

	diags := analysis.Run(m, analyzers)
	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "custodylint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "custodylint:", err)
	os.Exit(2)
}
