package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func tinyRun(t *testing.T, workload string, trace bool) *Result {
	t.Helper()
	res, err := Run(Options{Workload: workload, Seed: 3, Seconds: 0.001, Trace: trace, Dir: t.TempDir(), Tiny: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%v", workload, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	return res
}

func checkReported(t *testing.T, res *Result, tab []Metric) {
	t.Helper()
	if len(res.Metrics) != len(tab) {
		t.Errorf("%s: %d metrics reported, %d declared", res.Workload, len(res.Metrics), len(tab))
	}
	for _, m := range tab {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s: metric %s missing or with unit %q, want %q", res.Workload, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload at test size: its checks pass, every
// end-to-end metric is reported and positive, and the same seed gives the
// same output digest twice.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := tinyRun(t, w.Name, false)
			checkReported(t, res, EndToEnd)
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			if again := tinyRun(t, w.Name, false); again.Digest != res.Digest {
				t.Errorf("digest %s then %s for the same seed", res.Digest, again.Digest)
			}
		})
	}
}

// TestDecoratorsArePassive runs every workload traced: the manager, policy
// and journal decorators must leave the output digest unchanged (Run fails
// the check otherwise), every layer metric is reported, and the trace files
// are written.
func TestDecoratorsArePassive(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := Run(Options{Workload: w.Name, Seed: 3, Seconds: 0.001, Trace: true, Dir: dir, Tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed its checks: %v", res.Problems)
			}
			checkReported(t, res, Layers)
			for _, f := range []string{"spans.jsonl", "cpu.pprof", "layers.json"} {
				if _, err := os.Stat(filepath.Join(dir, "trace", w.Name, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesAndCaps pins the declarations to the limits the benchmark
// file format sets, and requires every layer metric to name the end-to-end
// metric and workload it should move.
func TestMetricNamesAndCaps(t *testing.T) {
	if len(Workloads) < 2 || len(Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(Workloads))
	}
	if len(EndToEnd) > 16 || len(Layers) > 128 {
		t.Errorf("%d end-to-end and %d layer metrics, caps are 16 and 128", len(EndToEnd), len(Layers))
	}
	seen := map[string]bool{}
	workloads := map[string]bool{}
	for _, w := range Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		seen[w.Name], workloads[w.Name] = true, true
	}
	e2e := map[string]bool{}
	for _, tab := range [][]Metric{EndToEnd, Layers} {
		for _, m := range tab {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("bad or repeated metric name %q", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	for _, m := range EndToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m, ok := metricDecl(SetupS); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be declared in s, lower is better: %+v", m)
	}
	for _, m := range Layers {
		if !e2e[m.Moves] || !workloads[m.On] {
			t.Errorf("%s maps to %q on %q, not a declared end-to-end metric and workload", m.Name, m.Moves, m.On)
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the declarations above.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(Workloads) || len(file.EndToEnd) != len(EndToEnd) || len(file.PerLayer) != len(Layers) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/layer metrics, declarations have %d/%d/%d",
			len(file.Workloads), len(file.EndToEnd), len(file.PerLayer), len(Workloads), len(EndToEnd), len(Layers))
	}
	for i, w := range Workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, declared %+v", i, file.Workloads[i], w)
		}
	}
	for i, m := range EndToEnd {
		f := file.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: file has %+v, declared %+v", i, f, m)
		}
	}
	for i, m := range Layers {
		f := file.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("layer %d: file has %+v, declared %+v", i, f, m)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestRate(t *testing.T) {
	lower := Metric{Name: "x", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		base, cur []float64
		want      string
	}{
		{[]float64{10, 10.1, 10.2, 9.9}, []float64{10.1, 10, 10.2, 9.9}, Same},
		{[]float64{10, 10.1, 10.2, 9.9}, []float64{12, 12.1, 12.2, 11.9}, Worse},
		{[]float64{10, 10.1, 10.2, 9.9}, []float64{8, 8.1, 8.2, 7.9}, Better},
		{[]float64{5, 10, 15, 20}, []float64{6, 11, 16, 21}, Unresolved},
	} {
		if got, _ := Rate(lower, c.base, c.cur); got != c.want {
			t.Errorf("Rate(%v, %v) = %s, want %s", c.base, c.cur, got, c.want)
		}
	}
}

// pb builds protobuf messages for TestProfileSummary.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = appendUvarint(b, uint64(field)<<3)
	return appendUvarint(b, v)
}

func (b pb) bytes(field int, body []byte) pb {
	b = appendUvarint(b, uint64(field)<<3|2)
	b = appendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// TestProfileSummary decodes a hand-built profile: self time by module and
// cumulative time count timed samples only, GC time counts every sample, and
// both packed and unpacked repeated fields parse.
func TestProfileSummary(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", fnReallocate,
		"repro/internal/driver.(*Driver).Run", "runtime.gcBgMarkWorker", profLabel, profTimed}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	label := pb{}.varint(1, 8).varint(2, 9)
	packed := appendUvarint(appendUvarint(nil, 1), 2)
	p = p.bytes(2, pb{}.bytes(1, packed).varint(2, 1).varint(2, 10).bytes(3, label)) // reallocate ← Run, timed
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 20).bytes(3, label))     // Run, timed
	p = p.bytes(2, pb{}.varint(1, 3).varint(2, 1).varint(2, 40))                     // GC worker
	for loc := uint64(1); loc <= 3; loc++ {
		p = p.bytes(4, pb{}.varint(1, loc).bytes(4, pb{}.varint(1, loc)))
		p = p.bytes(5, pb{}.varint(1, loc).varint(2, loc+4))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	raw, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	s := raw.summarize()
	if s.total != 70 || s.timed != 30 || s.gc != 40 {
		t.Errorf("total/timed/gc = %v/%v/%v, want 70/30/40", s.total, s.timed, s.gc)
	}
	if s.self["netsim"] != 10 || s.self["driver"] != 20 || s.cum[fnReallocate] != 10 {
		t.Errorf("self %v, cum %v", s.self, s.cum)
	}
	for fn, want := range map[string]string{
		fnAllocRun:                          "core",
		"runtime.mallocgc":                  "runtime",
		"compress/flate.(*compressor).init": "compress/flate",
		"repro/bench.(*meter).stop":         "repro/bench",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
