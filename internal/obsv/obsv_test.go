package obsv

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestFlightRecorderStampsAndRetains(t *testing.T) {
	fr := NewFlightRecorder(8, 8)
	fr.BeginRound(3, 12)
	fr.Decide(Decision{App: 1, Key: Key{Jobs: 0.5, Tasks: 0.25}, RunnerUp: 2, Job: 4, Unsat: 7})
	fr.Grant(Grant{App: 1, Exec: 9, Node: 3, Job: 4, Task: 0, Reason: ReasonLocalBlock})
	fr.Grant(Grant{App: 1, Exec: 10, Node: 5, Job: -1, Task: -1, Reason: ReasonArbitraryFill})

	if fr.Rounds() != 1 {
		t.Fatalf("rounds = %d", fr.Rounds())
	}
	if apps, execs := fr.LastRound(); apps != 3 || execs != 12 {
		t.Fatalf("last round = %d apps %d execs", apps, execs)
	}
	ds := fr.Decisions()
	if len(ds) != 1 || ds[0].Round != 1 || ds[0].Seq != 0 {
		t.Fatalf("decisions = %+v", ds)
	}
	gs := fr.Grants()
	if len(gs) != 2 || gs[0].Round != 1 || gs[0].Decision != 0 || gs[1].Decision != 0 {
		t.Fatalf("grants = %+v", gs)
	}
	if d, g := fr.Dropped(); d != 0 || g != 0 {
		t.Fatalf("dropped = %d/%d before any wrap", d, g)
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	fr := NewFlightRecorder(4, 4)
	fr.BeginRound(1, 1)
	for i := 0; i < 10; i++ {
		fr.Decide(Decision{App: i, RunnerUp: -1, Job: -1})
		fr.Grant(Grant{App: i, Job: -1, Task: -1})
	}
	if d, g := fr.Dropped(); d != 6 || g != 6 {
		t.Fatalf("dropped = %d/%d, want 6/6", d, g)
	}
	ds := fr.Decisions()
	if len(ds) != 4 {
		t.Fatalf("retained %d decisions, want 4", len(ds))
	}
	// Oldest-first window: the last four pushes, in push order.
	for i, d := range ds {
		if want := 6 + i; d.App != want || d.Seq != want {
			t.Fatalf("decisions[%d] = %+v, want app/seq %d", i, d, want)
		}
	}
	gs := fr.Grants()
	if len(gs) != 4 || gs[0].Decision != 6 || gs[3].Decision != 9 {
		t.Fatalf("grants window = %+v", gs)
	}
}

// TestRecordingDoesNotAllocate pins the flight recorder's zero-allocation
// contract: this is what lets observability stay attached without moving
// the benchmark-regression gate. A sinkless Hub must be equally free.
func TestRecordingDoesNotAllocate(t *testing.T) {
	fr := NewFlightRecorder(64, 64)
	if n := testing.AllocsPerRun(1000, func() {
		fr.BeginRound(4, 8)
		fr.Decide(Decision{App: 1, RunnerUp: 2, Job: 3})
		fr.Grant(Grant{App: 1, Exec: 5, Node: 2, Job: 3, Task: 0})
	}); n != 0 {
		t.Fatalf("FlightRecorder allocates %.1f per round", n)
	}
	h := NewHub(64)
	if n := testing.AllocsPerRun(1000, func() {
		h.BeginRound(4, 8)
		h.Decide(Decision{App: 1, RunnerUp: 2, Job: 3})
		h.Grant(Grant{App: 1, Exec: 5, Node: 2, Job: 3, Task: 0})
		h.Audit(0, "")
		h.FaultNoop(3, -1)
	}); n != 0 {
		t.Fatalf("sinkless Hub allocates %.1f per round", n)
	}
}

func TestWriteLogPairsGrantsWithDecisions(t *testing.T) {
	fr := NewFlightRecorder(8, 8)
	fr.BeginRound(2, 4)
	fr.Decide(Decision{Phase: PhaseLocality, App: 0, Key: Key{Jobs: 0.5, Tasks: 0.5}, RunnerUp: 1, RunnerUpKey: Key{Jobs: 1, Tasks: 1}, Job: 2, Unsat: 3})
	fr.Grant(Grant{App: 0, Exec: 7, Node: 1, Job: 2, Task: 5, Reason: ReasonRackFallback})
	fr.Decide(Decision{Phase: PhaseFill, App: 1, RunnerUp: -1, Job: -1})
	fr.Grant(Grant{App: 1, Exec: 8, Node: 2, Job: -1, Task: -1, Reason: ReasonArbitraryFill})

	var b strings.Builder
	if err := fr.WriteLog(&b); err != nil {
		t.Fatal(err)
	}
	want := "decision 0 round=1 phase=locality app=0 key=0.5/0.5 runner-up=1 key=1/1 job=2 unsat=3\n" +
		"  grant exec=7 node=1 job=2 task=5 reason=rack-fallback\n" +
		"decision 1 round=1 phase=fill app=1 key=0/0 uncontested\n" +
		"  grant exec=8 node=2 reason=arbitrary-fill\n"
	if b.String() != want {
		t.Fatalf("log:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestExplainChain(t *testing.T) {
	fr := NewFlightRecorder(8, 8)
	fr.BeginRound(2, 4)
	fr.Decide(Decision{Phase: PhaseLocality, App: 0, Key: Key{Jobs: 0, Tasks: 0}, RunnerUp: 1, RunnerUpKey: Key{Jobs: 1, Tasks: 1}, Job: 5, Unsat: 9})
	fr.Grant(Grant{App: 0, Exec: 3, Node: 1, Job: 5, Task: 2, Reason: ReasonLocalBlock})
	fr.Grant(Grant{App: 0, Exec: 4, Node: 2, Job: 6, Task: 0, Reason: ReasonLocalBlock})

	var b strings.Builder
	if err := fr.Explain(&b, 0, 5); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"provenance for app 0 job 5\n",
		"grant 1: exec 3 on node 1 (local-block), round 1\n",
		"picked by decision 0 (locality phase): app 0 key 0/0 beat app 1 key 1/1\n",
		"algorithm 2 served job 5 first (9 unsatisfied tasks)\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "exec 4") {
		t.Fatalf("explain leaked another job's grant:\n%s", out)
	}

	b.Reset()
	if err := fr.Explain(&b, 7, 7); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no grants recorded") {
		t.Fatalf("empty explain = %q", b.String())
	}
}

// hubFeed drives one of each record kind through a hub.
func hubFeed(h *Hub) {
	h.BeginRound(2, 6)
	h.Decide(Decision{Phase: PhaseLocality, App: 0, Key: Key{Jobs: 0.5}, RunnerUp: 1, Job: 3, Unsat: 2})
	h.Grant(Grant{App: 0, Exec: 1, Node: 0, Job: 3, Task: 7, Reason: ReasonLocalBlock})
	h.Audit(2, "ghost exec; slot leak")
	h.FaultNoop(4, -1)
}

func TestJSONLSinkShape(t *testing.T) {
	var b strings.Builder
	h := NewHub(8)
	h.Clock = func() float64 { return 1.5 }
	h.AddSink(NewJSONLSink(&b))
	hubFeed(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d records, want 5:\n%s", len(lines), b.String())
	}
	kinds := []string{"round-begin", "decision", "grant", "audit", "fault-noop"}
	for i, line := range lines {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if r.Kind != kinds[i] {
			t.Fatalf("line %d kind = %q, want %q", i, r.Kind, kinds[i])
		}
		if r.T != 1.5 {
			t.Fatalf("line %d t = %v, want clock value", i, r.T)
		}
	}
	var audit Record
	if err := json.Unmarshal([]byte(lines[3]), &audit); err != nil {
		t.Fatal(err)
	}
	if audit.Violations != 2 || audit.Detail != "ghost exec; slot leak" {
		t.Fatalf("audit record = %+v", audit)
	}
}

func TestCSVSinkShape(t *testing.T) {
	var b strings.Builder
	h := NewHub(8)
	h.AddSink(NewCSVSink(&b))
	hubFeed(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if lines[0] != csvHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want header + 5 records:\n%s", len(lines), b.String())
	}
	cols := strings.Count(csvHeader, ",") + 1
	for i, line := range lines[1:] {
		// Detail is the only quoted field and the records above embed no
		// commas in it, so a plain count is safe here.
		if got := strings.Count(line, ",") + 1; got != cols {
			t.Fatalf("record %d has %d columns, want %d: %q", i, got, cols, line)
		}
	}
	if !strings.Contains(lines[3], "local-block") {
		t.Fatalf("grant row missing reason: %q", lines[3])
	}
}

// TestHubCountsWithoutSinks pins that the Hub's tallies do not depend on
// what is attached: one sequence recorded with and without a sink yields
// the same Counts, and decisions and grants are the flight recorder's
// push counts, ring wrap included.
func TestHubCountsWithoutSinks(t *testing.T) {
	record := func(h *Hub) {
		hubFeed(h)
		for i := 0; i < 6; i++ {
			h.Decide(Decision{App: i, RunnerUp: -1, Job: -1})
			h.Grant(Grant{App: i, Job: -1, Task: -1})
		}
		h.Audit(0, "")
		h.Mode(true, "slow")
		h.FaultNoop(1, 2)
	}
	bare := NewHub(4)
	record(bare)
	sunk := NewHub(4)
	var b strings.Builder
	sunk.AddSink(NewJSONLSink(&b))
	record(sunk)
	if err := sunk.Close(); err != nil {
		t.Fatal(err)
	}

	got := bare.Counts()
	want := Counts{Decisions: 7, Grants: 7, Audits: 2, Violations: 2, FaultNoops: 2, ModeChanges: 1}
	if got != want {
		t.Fatalf("sinkless counts = %+v, want %+v", got, want)
	}
	if sunk.Counts() != got {
		t.Fatalf("counts with a sink %+v differ from without %+v", sunk.Counts(), got)
	}
	if got.Decisions != bare.Flight.dn || got.Grants != bare.Flight.gn {
		t.Fatalf("counts %d/%d, flight recorder pushed %d/%d", got.Decisions, got.Grants, bare.Flight.dn, bare.Flight.gn)
	}
	if d, g := bare.Flight.Dropped(); d == 0 || g != 0 {
		t.Fatalf("dropped %d/%d: the decision ring should have wrapped", d, g)
	}
}

func TestRenderOpenMetricsExposition(t *testing.T) {
	col := metrics.NewCollector()
	col.AddJob(metrics.JobRecord{App: 0, Submit: 0, Finish: 12, LocalInput: 1, TotalInput: 1})
	h := NewHub(8)
	hubFeed(h)
	var b strings.Builder
	if err := RenderOpenMetrics(&b, col, h.Flight, h.Counts()); err != nil {
		t.Fatal(err)
	}

	out := b.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", out)
	}
	for _, want := range []string{
		"custody_decisions_total 1\n",
		"custody_grants_total 1\n",
		"custody_audits_total 1\n",
		"custody_audit_violations_total 2\n",
		"custody_fault_noops_total 1\n",
		"custody_fairness_heap_size 2\n",
		"custody_idle_executors_offered 6\n",
		"custody_pct_local_jobs 1\n",
		"custody_jct_seconds_bucket{le=\"20\"} 1\n",
		"custody_jct_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRenderOpenMetricsNilCollector renders a page with no run collector:
// the exposition must still be well-formed and omit the collector series.
func TestRenderOpenMetricsNilCollector(t *testing.T) {
	h := NewHub(8)
	h.Decide(Decision{RunnerUp: -1, Job: -1})
	var b strings.Builder
	if err := RenderOpenMetrics(&b, nil, h.Flight, h.Counts()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "# EOF\n") || !strings.Contains(out, "custody_decisions_total 1\n") {
		t.Fatalf("nil-collector exposition malformed:\n%s", out)
	}
	if strings.Contains(out, "custody_jct_seconds") {
		t.Fatalf("nil collector should omit the JCT histogram:\n%s", out)
	}
}

func TestHubDroppedAccounting(t *testing.T) {
	h := NewHub(4) // grants ring = 16
	h.BeginRound(1, 1)
	for i := 0; i < 6; i++ {
		h.Decide(Decision{App: i, RunnerUp: -1, Job: -1})
	}
	if d, _ := h.Flight.Dropped(); d != 2 {
		t.Fatalf("dropped decisions = %d, want 2", d)
	}
}
