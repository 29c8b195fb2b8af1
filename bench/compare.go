package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// RunSet is a saved set of runs, the format -json writes and -compare reads.
type RunSet struct {
	Runs []Result `json:"runs"`
}

// ReadRunSet loads a RunSet file.
func ReadRunSet(path string) (*RunSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs RunSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// WriteRunSet saves a RunSet file.
func WriteRunSet(path string, rs *RunSet) error { return writeJSON(path, rs) }

// workloadOrder lists the workloads the runs cover, in declaration order.
func workloadOrder(runs ...[]Result) []string {
	seen := map[string]bool{}
	for _, rs := range runs {
		for _, r := range rs {
			seen[r.Workload] = true
		}
	}
	var out []string
	for _, w := range Workloads {
		if seen[w.Name] {
			out = append(out, w.Name)
		}
	}
	return out
}

// values collects one metric over the runs of a workload in one mode.
func values(runs []Result, workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// Summarize prints, per workload and metric, the median and quartiles over
// the runs and the quartile spread as a share of the median.
func Summarize(runs []Result) string {
	var b strings.Builder
	for _, w := range workloadOrder(runs) {
		for _, mode := range []struct {
			trace bool
			tab   []Metric
		}{{false, EndToEnd}, {true, Layers}} {
			for _, m := range mode.tab {
				xs := values(runs, w, m.Name, mode.trace)
				if len(xs) == 0 {
					continue
				}
				q1, med, q3 := quartiles(xs)
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / math.Abs(med)
				}
				fmt.Fprintf(&b, "%-15s %-32s n=%-3d median=%-14.6g q1=%-14.6g q3=%-14.6g spread=%.4f %s\n",
					w, m.Name, len(xs), med, q1, q3, spread, m.Unit)
			}
		}
		fmt.Fprintf(&b, "%-15s %-32s %s\n", w, "output_digest", strings.Join(digestsBySeed(runs, w), " "))
	}
	return b.String()
}

func digestsBySeed(runs []Result, workload string) []string {
	by := map[uint64]string{}
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			by[r.Seed] = r.Digest
		}
	}
	seeds := make([]uint64, 0, len(by))
	for s := range by {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]string, len(seeds))
	for i, s := range seeds {
		out[i] = fmt.Sprintf("seed%d=%s", s, by[s])
	}
	return out
}

// Verdicts of a comparison.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Rate compares one end-to-end metric over a parent's runs (base) and a
// change's runs (cur). The change is better when every one of its runs beats
// every parent run and the medians differ by more than the parent's quartile
// spread; unresolved when either side's spread exceeds the bound; worse when
// its median is worse than the parent's by more than the bound; else same.
// change is the signed relative change of the median.
func Rate(m Metric, base, cur []float64) (verdict string, change float64) {
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(cur)
	if bmed == 0 {
		return Unresolved, 0
	}
	change = (cmed - bmed) / math.Abs(bmed)
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	spread := (bq3 - bq1) / math.Abs(bmed)
	if cmed != 0 {
		spread = math.Max(spread, (cq3-cq1)/math.Abs(cmed))
	}
	switch {
	case allBetter(m, base, cur) && math.Abs(cmed-bmed) > bq3-bq1:
		return Better, change
	case spread > m.Bound:
		return Unresolved, change
	case worse > m.Bound:
		return Worse, change
	}
	return Same, change
}

func allBetter(m Metric, base, cur []float64) bool {
	for _, b := range base {
		for _, c := range cur {
			if (m.Better == "higher" && c <= b) || (m.Better == "lower" && c >= b) {
				return false
			}
		}
	}
	return len(base) > 0 && len(cur) > 0
}

// deterministicCounts are layer metrics that count work; the same seed must
// read the same on every commit that does not change the work done.
var deterministicCounts = []string{
	"event.events_run", "netsim.flows_completed", "driver.tasks_completed",
	"core.postings", "core.grants", "custodyd.wal_appends",
}

// Compare rates a change's runs against a parent's, one row per workload,
// and reports whether anything got worse or any output differs for a seed
// both sets ran.
func Compare(base, cur []Result) (string, bool) {
	var b strings.Builder
	bad := false
	for _, w := range workloadOrder(base, cur) {
		fmt.Fprintf(&b, "%-15s", w)
		for _, m := range EndToEnd {
			bv, cv := values(base, w, m.Name, false), values(cur, w, m.Name, false)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			v, ch := Rate(m, bv, cv)
			bad = bad || v == Worse
			fmt.Fprintf(&b, " %s=%s(%+.1f%%)", m.Name, v, 100*ch)
		}
		diffs := outputDiffs(base, cur, w)
		bad = bad || len(diffs) > 0
		if len(diffs) == 0 {
			b.WriteString(" outputs=same")
		} else {
			fmt.Fprintf(&b, " outputs=differ[%s]", strings.Join(diffs, ","))
		}
		b.WriteString("\n")
	}
	return b.String(), bad
}

// outputDiffs names what differs between two sets for the seeds both ran:
// output digests and deterministic work counts.
func outputDiffs(base, cur []Result, workload string) []string {
	var diffs []string
	for _, br := range base {
		for _, cr := range cur {
			if br.Workload != workload || cr.Workload != workload || br.Seed != cr.Seed || br.Trace != cr.Trace {
				continue
			}
			if br.Digest != cr.Digest {
				diffs = append(diffs, fmt.Sprintf("seed%d:digest", br.Seed))
			}
			for _, name := range deterministicCounts {
				if bv, ok := br.Metrics[name]; ok && bv.Value != cr.Metrics[name].Value {
					diffs = append(diffs, fmt.Sprintf("seed%d:%s", br.Seed, name))
				}
			}
		}
	}
	return diffs
}
