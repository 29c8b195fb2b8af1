package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden trace files under testdata/golden")

// goldenRun replays one canonical shrunken experiment — one seed of the
// workload kind under the manager — and returns its full timeline and work
// counts.
func goldenRun(kind workload.Kind, mk ManagerKind) (*trace.Recorder, string, error) {
	spec := workload.DefaultSpec(kind)
	spec.Apps = 2
	spec.JobsPerApp = 3
	sched := workload.Generate(spec, xrand.New(7))
	cfg := driver.DefaultConfig()
	cfg.Seed = 7
	cfg.Nodes = 16
	cfg.RackSize = 4
	cfg.Manager = NewManager(mk, 7)
	return goldenSim(cfg, sched)
}

// goldenSim runs one golden configuration to completion under a trace
// recorder. Besides the timeline it returns the run's work counts: events
// the engine ran, the fabric's rate recomputes and completed flows, the
// manager's allocation rounds and executor migrations, the offers made to
// the task schedulers and the NameNode locality queries they issued, and the
// resources the fabric's bottleneck scans visited.
// None of them depends on the hardware, so checkWorkCounts holds them
// exactly.
func goldenSim(cfg driver.Config, sched workload.Schedule) (*trace.Recorder, string, error) {
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	d, err := driver.NewScheduled(cfg, sched)
	if err != nil {
		return nil, "", err
	}
	col := d.Run()
	fb := d.Fabric()
	offers, probes := d.SchedulerWork()
	counts := fmt.Sprintf("events=%d fabric_reallocations=%d flows_completed=%d manager_reallocations=%d executor_migrations=%d offers=%d probes=%d scan_visits=%d",
		d.Engine().Executed(), fb.Reallocations, fb.CompletedFlows, col.Reallocations, col.ExecutorMigrations, offers, probes, fb.ScanVisits)
	return rec, counts, nil
}

// TestGoldenTraces pins the end-to-end behavior of the whole stack — the
// allocator fast path included — byte-for-byte: every simulation timeline
// must match the recorded canonical trace exactly, for one seed of each
// workload kind under both managers. Regenerate after an intentional
// behavior change with:
//
//	go test ./internal/experiments -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, kind := range workload.Kinds() {
		for _, mk := range []ManagerKind{Standalone, Custody} {
			kind, mk := kind, mk
			name := fmt.Sprintf("%s-%s", strings.ToLower(string(kind)), mk)
			t.Run(name, func(t *testing.T) {
				rec, counts, err := goldenRun(kind, mk)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, rec)
				checkWorkCounts(t, name, counts)
			})
		}
	}
}

// TestGoldenWideTrace pins a canonical trace on a topology none of the
// other goldens use (32 nodes × 8-node racks, 3 apps), so a regression
// that bites only wider clusters cannot hide behind the 16-node fixtures.
// Regenerate after an intentional behavior change with:
//
//	go test ./internal/experiments -run TestGoldenWideTrace -update
func TestGoldenWideTrace(t *testing.T) {
	spec := workload.DefaultSpec(workload.WordCount)
	spec.Apps = 3
	spec.JobsPerApp = 2
	sched := workload.Generate(spec, xrand.New(11))
	cfg := driver.DefaultConfig()
	cfg.Seed = 11
	cfg.Nodes = 32
	cfg.RackSize = 8
	cfg.Manager = NewManager(Custody, 11)
	rec, counts, err := goldenSim(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wordcount-custody-wide", rec)
	checkWorkCounts(t, "wordcount-custody-wide", counts)
}

// checkGolden compares the recorded timeline with testdata/golden/<name>.trace
// byte for byte, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, rec *trace.Recorder) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name+".trace")
	if *updateGolden {
		blessGolden(t, path, buf.Bytes())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		d := firstDiffLine(buf.Bytes(), want)
		t.Fatalf("trace diverges from golden %s at line %d:\n got: %s\nwant: %s",
			path, d, lineAt(buf.Bytes(), d), lineAt(want, d))
	}
}

// checkWorkCounts compares a golden run's work counts with its line in
// testdata/golden/workcounts.txt exactly, or rewrites that line under
// -update. A change that keeps every trace byte-identical but does more
// work (an extra rate recompute, a wasted event) fails here.
func checkWorkCounts(t *testing.T, name, counts string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", "workcounts.txt")
	byName := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil && !*updateGolden {
		t.Fatalf("missing work counts: %v (regenerate with -update)", err)
	}
	for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if k, v, ok := strings.Cut(ln, " "); ok {
			byName[k] = v
		}
	}
	if *updateGolden {
		byName[name] = counts
		names := make([]string, 0, len(byName))
		for k := range byName {
			names = append(names, k)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		for _, k := range names {
			fmt.Fprintf(&buf, "%s %s\n", k, byName[k])
		}
		blessGolden(t, path, buf.Bytes())
		return
	}
	if want := byName[name]; counts != want {
		t.Fatalf("work counts diverge from %s for %s:\n got: %s\nwant: %s", path, name, counts, want)
	}
}

// firstDiffLine returns the 1-based index of the first differing line.
func firstDiffLine(a, b []byte) int {
	la := strings.Split(string(a), "\n")
	lb := strings.Split(string(b), "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return n + 1
}

// lineAt returns the 1-based line of the buffer, or a marker past the end.
func lineAt(buf []byte, line int) string {
	ls := strings.Split(string(buf), "\n")
	if line-1 < len(ls) {
		return ls[line-1]
	}
	return "<past end of trace>"
}
