package analysis_test

import (
	"fmt"
	"go/types"
	"go/version"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// repo is this repository's module, loaded once per test binary: a load
// parses and type-checks every package, and the tests that use it only
// read it.
var repo struct {
	once sync.Once
	m    *analysis.Module
	err  error
}

// repoModule returns the shared load of this repository's module.
func repoModule(t *testing.T) *analysis.Module {
	t.Helper()
	repo.once.Do(func() {
		root, err := analysis.FindModuleRoot(".")
		if err != nil {
			repo.err = err
			return
		}
		repo.m, repo.err = analysis.LoadModule(root)
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.m
}

// loadFixture loads one testdata/src fixture tree as a module named
// "fixture" and runs the full rule set over it.
func loadFixture(t *testing.T, dir string) []analysis.Diagnostic {
	t.Helper()
	m, err := analysis.Load(dir, "fixture")
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	return analysis.Run(m, analysis.All())
}

// render reduces diagnostics to the golden "file:line: [rule]" triples so
// messages can be reworded without touching every expectation.
func render(diags []analysis.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d: [%s]", d.Pos.Filename, d.Pos.Line, d.Rule))
	}
	return out
}

// readExpect reads a fixture's expect.txt; a missing file means the
// fixture must be clean.
func readExpect(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "expect.txt"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// TestFixtures runs every analyzer over every fixture module and compares
// the diagnostics against the fixture's golden expect.txt. Diagnostics are
// emitted sorted by position, so the goldens are position-sorted too.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no fixtures under testdata/src")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("testdata/src", e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			got := render(loadFixture(t, dir))
			want := readExpect(t, dir)
			if len(got) != len(want) {
				t.Fatalf("diagnostic count mismatch: got %d, want %d\ngot:\n  %s\nwant:\n  %s",
					len(got), len(want), strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("diagnostic %d: got %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

// ruleCounts tallies a fixture's golden diagnostics by rule. TestFixtures
// pins every fixture's diagnostics to its expect.txt, so the tests below
// read the goldens instead of loading each fixture again.
func ruleCounts(t *testing.T, fixture string) map[string]int {
	t.Helper()
	n := map[string]int{}
	for _, line := range readExpect(t, filepath.Join("testdata/src", fixture)) {
		_, rule, _ := strings.Cut(line, ": [")
		rule, _, _ = strings.Cut(rule, "]")
		n[rule]++
	}
	return n
}

// TestRuleCoverage pins the acceptance criterion directly: each of the seven
// rules has a fixture where it fires and a sibling fixture that stays
// clean.
func TestRuleCoverage(t *testing.T) {
	for _, rule := range []string{
		"detrand", "maporder", "layering", "errdrop",
		"guardedby", "goroutine", "noalloc",
	} {
		t.Run(rule, func(t *testing.T) {
			if ruleCounts(t, rule+"_bad")[rule] == 0 {
				t.Errorf("rule %s does not fire on %s_bad", rule, rule)
			}
			if clean := readExpect(t, filepath.Join("testdata/src", rule+"_clean")); len(clean) != 0 {
				t.Errorf("rule %s: %s_clean is not clean: %v", rule, rule, clean)
			}
		})
	}
}

// TestSuppressionRequiresReason pins the suppression contract: a reasoned
// //custody:ignore silences the finding, a reasonless one does not and is
// itself reported.
func TestSuppressionRequiresReason(t *testing.T) {
	if ignores := ruleCounts(t, "errdrop_bad")["ignore"]; ignores != 2 {
		t.Errorf("expected 2 [ignore] diagnostics (missing reason + unknown rule), got %d", ignores)
	}
	if clean := readExpect(t, filepath.Join("testdata/src", "errdrop_clean")); len(clean) != 0 {
		t.Errorf("reasoned suppression failed to silence findings: %v", clean)
	}
}

// TestSuppressionEdgeCases pins the corners of //custody:ignore parsing
// against the suppress_bad fixture: trailing and line-above placement both
// work, one comment can carry several suppressions, and unknown rules,
// missing reasons, and bare ignores are each reported without silencing
// the underlying finding.
func TestSuppressionEdgeCases(t *testing.T) {
	n := ruleCounts(t, "suppress_bad")
	// Three malformed segments: unknown rule, missing reason, bare ignore.
	if n["ignore"] != 3 {
		t.Errorf("expected 3 [ignore] diagnostics, got %v", n)
	}
	// Each malformed segment fails to suppress its errdrop finding.
	if n["errdrop"] != 3 {
		t.Errorf("expected 3 surviving [errdrop] findings, got %v", n)
	}
	// Every detrand finding is covered by a well-formed segment — including
	// the one sharing a comment with a malformed segment, and the
	// line-above comment carrying two suppressions at once.
	if n["detrand"] != 0 {
		t.Errorf("expected all detrand findings suppressed, got %v", n)
	}
}

// TestNoAllocHotPathsAnnotated pins that the static //custody:noalloc
// contract covers the paths the dynamic allocation gates cover: the flight
// recorder's record path (TestRecordingDoesNotAllocate) and the allocator's
// pick/update chain (core's TestMicroInstanceWarmRound).
func TestNoAllocHotPathsAnnotated(t *testing.T) {
	m := repoModule(t)
	got := map[string]bool{}
	for _, name := range m.NoAllocFuncs() {
		got[name] = true
	}
	for _, want := range []string{
		// obsv record path.
		"internal/obsv.FlightRecorder.BeginRound",
		"internal/obsv.FlightRecorder.Decide",
		"internal/obsv.FlightRecorder.Grant",
		"internal/obsv.FlightRecorder.pushDecision",
		"internal/obsv.FlightRecorder.pushGrant",
		// core pick/update chain.
		"internal/core.allocator.run",
		"internal/core.allocator.assign",
		"internal/core.allocator.emitPick",
		"internal/core.allocator.minLocality",
		"internal/core.appState.sortedJobs",
		"internal/core.PriorityIntra.allocate",
		"internal/core.execPool.takeSlot",
		"internal/core.execPool.takeAny",
		"internal/core.execPool.takeOnAny",
		// event heap.
		"internal/event.Engine.push",
		"internal/event.Engine.popRoot",
		"internal/event.Engine.siftDown",
	} {
		if !got[want] {
			t.Errorf("hot-path function %s is not annotated //custody:noalloc (have: %v)", want, m.NoAllocFuncs())
		}
	}
}

// TestDiagnosticFormat pins the file:line: [rule] message contract the
// tooling (and CI log scraping) relies on.
func TestDiagnosticFormat(t *testing.T) {
	diags := loadFixture(t, filepath.Join("testdata/src", "layering_bad"))
	if len(diags) == 0 {
		t.Fatal("expected findings")
	}
	s := diags[0].String()
	if !strings.HasPrefix(s, "internal/core/core.go:6: [layering] ") {
		t.Errorf("diagnostic format changed: %q", s)
	}
}

// TestSelfLint runs custodylint over this repository: the module must stay
// clean. This is the machine-checked version of the determinism, layering,
// and error-handling contracts documented in DESIGN.md — a regression here
// means a contract was broken (or needs an annotated, reasoned exception).
func TestSelfLint(t *testing.T) {
	for _, d := range analysis.Run(repoModule(t), analysis.All()) {
		t.Errorf("%s", d)
	}
}

// TestConcurrencyChecksStillUnneeded pins the facts that made three
// concurrency checks unnecessary, so the suite trips the moment one stops
// holding. Outside internal/analysis, non-test code has exactly one mutex
// (custodyd.Server.mu), so no two locks can be taken in conflicting
// orders; nothing imports sync/atomic, so no state can be accessed both
// atomically and plainly; and go.mod's go version is at least 1.22, so
// every loop variable is per-iteration and a goroutine cannot share one
// with later iterations.
func TestConcurrencyChecksStillUnneeded(t *testing.T) {
	m := repoModule(t)
	var mutexes []string
	for _, pkg := range m.Packages {
		if pkg.Path == m.Path+"/internal/analysis" || pkg.Types == nil {
			continue
		}
		mutexes = append(mutexes, mutexVars(m, pkg)...)
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				if spec.Path.Value == `"sync/atomic"` {
					t.Errorf("%s imports sync/atomic: bring back the atomicmix rule "+
						"(internal/analysis/atomicmix.go) from git history, so state accessed "+
						"atomically somewhere is accessed atomically everywhere",
						m.Fset.Position(spec.Pos()))
				}
			}
		}
	}
	sort.Strings(mutexes)
	if want := []string{"internal/custodyd.Server.mu"}; strings.Join(mutexes, " ") != strings.Join(want, " ") {
		t.Errorf("mutex fields and package variables = %v, want %v: with a second mutex, bring back the "+
			"lockorder rule (internal/analysis/lockorder.go) from git history, so no two code paths "+
			"take them in conflicting orders", mutexes, want)
	}

	goVersion := ""
	data, err := os.ReadFile(filepath.Join(m.Root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "go "); ok {
			goVersion = "go" + strings.TrimSpace(v)
		}
	}
	if version.Compare(goVersion, "go1.22") < 0 {
		t.Errorf("go.mod's go version is %q, below go1.22: loop variables are shared across iterations "+
			"again, so bring back the goroutine rule's loop-variable capture check from git history", goVersion)
	}
}

// mutexVars names the struct fields and package variables of pkg whose
// type is a sync.Mutex or sync.RWMutex (or a pointer to one), as
// "<pkg>.<Type>.<field>" or "<pkg>.<var>"; a field of an unnamed struct
// is named by its position.
func mutexVars(m *analysis.Module, pkg *analysis.Package) []string {
	rel := strings.TrimPrefix(pkg.Path, m.Path+"/")
	owner := map[*types.Var]string{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				owner[st.Field(i)] = name
			}
		}
	}
	var out []string
	for _, obj := range pkg.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || !isMutex(v.Type()) {
			continue
		}
		switch {
		case v.IsField() && owner[v] != "":
			out = append(out, rel+"."+owner[v]+"."+v.Name())
		case v.IsField():
			out = append(out, fmt.Sprintf("%s.%s (unnamed struct at %s)", rel, v.Name(), m.Fset.Position(v.Pos())))
		case v.Parent() == scope:
			out = append(out, rel+"."+v.Name())
		}
	}
	return out
}

// isMutex reports whether t is sync.Mutex, sync.RWMutex or a pointer to
// either.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}
