package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden trace files under testdata/golden")

// goldenRun replays one canonical shrunken experiment — one seed of the
// workload kind under the manager — and returns its full timeline.
func goldenRun(kind workload.Kind, mk ManagerKind) (*trace.Recorder, error) {
	spec := workload.DefaultSpec(kind)
	spec.Apps = 2
	spec.JobsPerApp = 3
	sched := workload.Generate(spec, xrand.New(7))
	cfg := driver.DefaultConfig()
	cfg.Seed = 7
	cfg.Nodes = 16
	cfg.RackSize = 4
	cfg.Manager = NewManager(mk, 7)
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	if _, err := driver.RunSchedule(cfg, sched); err != nil {
		return nil, err
	}
	return rec, nil
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
				rec, err := goldenRun(kind, mk)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, rec)
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
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	if _, err := driver.RunSchedule(cfg, sched); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wordcount-custody-wide", rec)
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
