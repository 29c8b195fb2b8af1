package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Record is the flat, sink-facing projection of every provenance event:
// decisions, grants, round boundaries, audit results, and chaos fault
// no-ops all share one schema so a single JSONL or CSV artifact
// reconstructs a run end-to-end. Unused integer fields are -1, mirroring
// trace.Event.
type Record struct {
	T     float64 `json:"t"`
	Kind  string  `json:"kind"` // round-begin | decision | grant | audit | fault-noop | mode
	Round int     `json:"round"`
	Seq   int     `json:"seq"`
	Phase string  `json:"phase,omitempty"`
	App   int     `json:"app"`
	Job   int     `json:"job"`
	Task  int     `json:"task"`
	Exec  int     `json:"exec"`
	Node  int     `json:"node"`

	Reason string `json:"reason,omitempty"`

	KeyJobs       float64 `json:"key_jobs"`
	KeyTasks      float64 `json:"key_tasks"`
	RunnerUp      int     `json:"runner_up"`
	RunnerUpJobs  float64 `json:"ru_jobs"`
	RunnerUpTasks float64 `json:"ru_tasks"`
	Unsat         int     `json:"unsat"`

	Apps       int    `json:"apps"`       // round-begin: competing applications
	Execs      int    `json:"execs"`      // round-begin: idle executors offered
	Violations int    `json:"violations"` // audit: invariant violations found
	Detail     string `json:"detail,omitempty"`
}

// blankRecord returns a Record with every integer field at its -1
// sentinel; emitters fill in what applies.
func blankRecord(t float64, kind string, round int) Record {
	return Record{
		T: t, Kind: kind, Round: round,
		Seq: -1, App: -1, Job: -1, Task: -1, Exec: -1, Node: -1,
		RunnerUp: -1, Unsat: -1, Apps: -1, Execs: -1, Violations: -1,
	}
}

// Sink consumes provenance records. Emit is called synchronously from the
// simulation; implementations should be cheap or buffered. Close flushes.
type Sink interface {
	Emit(Record) error
	Close() error
}

// JSONLSink streams records as JSON Lines.
type JSONLSink struct {
	enc *json.Encoder
	c   io.Closer
}

// NewJSONLSink writes records to w, one JSON object per line. If w is
// also an io.Closer it is closed by Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{enc: json.NewEncoder(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(r Record) error { return s.enc.Encode(r) }

// Close implements Sink.
func (s *JSONLSink) Close() error {
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// csvHeader is the fixed column layout of CSVSink.
const csvHeader = "t,kind,round,seq,phase,app,job,task,exec,node,reason,key_jobs,key_tasks,runner_up,ru_jobs,ru_tasks,unsat,apps,execs,violations,detail"

// CSVSink streams records as CSV with a fixed header.
type CSVSink struct {
	w      io.Writer
	c      io.Closer
	headed bool
}

// NewCSVSink writes records to w as CSV. If w is also an io.Closer it is
// closed by Close.
func NewCSVSink(w io.Writer) *CSVSink {
	s := &CSVSink{w: w}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *CSVSink) Emit(r Record) error {
	if !s.headed {
		s.headed = true
		if _, err := fmt.Fprintln(s.w, csvHeader); err != nil {
			return err
		}
	}
	row := strings.Join([]string{
		strconv.FormatFloat(r.T, 'f', 6, 64),
		r.Kind,
		strconv.Itoa(r.Round), strconv.Itoa(r.Seq), r.Phase,
		strconv.Itoa(r.App), strconv.Itoa(r.Job), strconv.Itoa(r.Task),
		strconv.Itoa(r.Exec), strconv.Itoa(r.Node),
		r.Reason,
		strconv.FormatFloat(r.KeyJobs, 'g', -1, 64),
		strconv.FormatFloat(r.KeyTasks, 'g', -1, 64),
		strconv.Itoa(r.RunnerUp),
		strconv.FormatFloat(r.RunnerUpJobs, 'g', -1, 64),
		strconv.FormatFloat(r.RunnerUpTasks, 'g', -1, 64),
		strconv.Itoa(r.Unsat),
		strconv.Itoa(r.Apps), strconv.Itoa(r.Execs), strconv.Itoa(r.Violations),
		strconv.Quote(r.Detail),
	}, ",")
	_, err := fmt.Fprintln(s.w, row)
	return err
}

// Close implements Sink.
func (s *CSVSink) Close() error {
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// Counts are the provenance tallies behind the OpenMetrics counters. The
// Hub keeps them whether or not a sink is attached (Hub.Counts).
type Counts struct {
	Decisions   int
	Grants      int
	Audits      int
	Violations  int
	FaultNoops  int
	ModeChanges int
}

// Metric is one extra exposition line appended by RenderOpenMetrics — the
// hook for service-level series (queue depth, shed counts) that live above
// the provenance stream. Kind is "counter" or "gauge"; counters follow the
// OpenMetrics convention of a _total-suffixed sample.
type Metric struct {
	Name string
	Help string
	Kind string // "counter" | "gauge"
	Val  float64
}

// jctBuckets are the fixed upper bounds of the job-completion-time
// histogram, in simulated seconds. Fixed (rather than data-derived) so
// expositions from different runs are comparable.
var jctBuckets = []float64{5, 10, 20, 40, 80, 160, 320}

// RenderOpenMetrics renders one complete OpenMetrics text exposition:
// counters and gauges from the collector (locality percentages, retries,
// blacklist events), a fixed-bucket JCT histogram, flight-recorder gauges
// (fairness-heap size, retained/dropped records), and any extra
// service-level series. The output is a single buffered write ending with
// exactly one "# EOF" terminator, so a live /metrics endpoint can serve
// each render as one atomic page even under concurrent scrapes.
func RenderOpenMetrics(w io.Writer, col *metrics.Collector, fr *FlightRecorder, n Counts, extra ...Metric) error {
	var b strings.Builder
	counter := func(name, help string, v int) {
		fmt.Fprintf(&b, "# TYPE %s counter\n# HELP %s %s\n%s_total %d\n", name, name, help, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n# HELP %s %s\n%s %s\n", name, name, help, name, strconv.FormatFloat(v, 'g', -1, 64))
	}

	counter("custody_decisions", "Algorithm 1 picks recorded", n.Decisions)
	counter("custody_grants", "executor slots granted", n.Grants)
	counter("custody_audits", "driver invariant audits run", n.Audits)
	counter("custody_audit_violations", "invariant violations found by audits", n.Violations)
	counter("custody_fault_noops", "chaos faults that found nothing to break", n.FaultNoops)
	counter("custody_mode_changes", "degraded-mode ladder transitions", n.ModeChanges)

	if fr != nil {
		apps, execs := fr.LastRound()
		gauge("custody_fairness_heap_size", "competing applications in the last allocation round", float64(apps))
		gauge("custody_idle_executors_offered", "idle executors offered in the last allocation round", float64(execs))
		gauge("custody_rounds", "allocation rounds observed", float64(fr.Rounds()))
		dd, dg := fr.Dropped()
		gauge("custody_flight_dropped_decisions", "decisions evicted from the flight recorder", float64(dd))
		gauge("custody_flight_dropped_grants", "grants evicted from the flight recorder", float64(dg))
	}

	if col != nil {
		gauge("custody_pct_local_jobs", "fraction of jobs with perfect input locality", col.PctLocalJobs())
		gauge("custody_pct_local_tasks", "fraction of input tasks reading locally", col.PctLocalTasks())
		counter("custody_jobs", "jobs finished", len(col.Jobs))
		counter("custody_tasks", "tasks finished", len(col.Tasks))
		counter("custody_reallocations", "manager allocation rounds", col.Reallocations)
		counter("custody_executor_migrations", "executor ownership changes", col.ExecutorMigrations)
		counter("custody_offer_rejections", "data-locality offer rejections", col.OfferRejections)
		counter("custody_task_retries", "task attempts re-queued after faults", col.TaskRetries)
		counter("custody_attempt_failures", "task attempts killed by faults", col.AttemptFailures)
		counter("custody_blacklist_events", "nodes excluded after repeated failures", col.BlacklistEvents)
		counter("custody_replication_stalls", "re-replication plans that could not be made", col.ReplicationStalls)
		counter("custody_replicas_restored", "re-replication transfers completed", col.ReplicasRestored)
		counter("custody_cache_hits", "block-cache hits across all nodes", col.CacheHits)
		counter("custody_cache_misses", "block-cache misses across all nodes", col.CacheMisses)
		counter("custody_cache_evictions", "block-cache evictions across all nodes", col.CacheEvictions)
		// One family, aggregate series plus one labeled series per node
		// with cache traffic. All zero when the cache tier is disabled.
		fmt.Fprintf(&b, "# TYPE custody_cache_hit_ratio gauge\n# HELP custody_cache_hit_ratio block-cache hits / lookups, aggregate and per node\n")
		fmt.Fprintf(&b, "custody_cache_hit_ratio %s\n", strconv.FormatFloat(col.CacheHitRatio(), 'g', -1, 64))
		nodes := make([]int, 0, len(col.CacheByNode))
		for n := range col.CacheByNode {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			nc := col.CacheByNode[n]
			ratio := 0.0
			if total := nc.Hits + nc.Misses; total > 0 {
				ratio = float64(nc.Hits) / float64(total)
			}
			fmt.Fprintf(&b, "custody_cache_hit_ratio{node=\"%d\"} %s\n", n, strconv.FormatFloat(ratio, 'g', -1, 64))
		}

		jct := col.JobCompletionTimes()
		fmt.Fprintf(&b, "# TYPE custody_jct_seconds histogram\n# HELP custody_jct_seconds job completion time\n")
		sum := 0.0
		for _, le := range jctBuckets {
			c := 0
			for _, x := range jct {
				if x <= le {
					c++
				}
			}
			fmt.Fprintf(&b, "custody_jct_seconds_bucket{le=\"%s\"} %d\n", strconv.FormatFloat(le, 'g', -1, 64), c)
		}
		for _, x := range jct {
			sum += x
		}
		fmt.Fprintf(&b, "custody_jct_seconds_bucket{le=\"+Inf\"} %d\n", len(jct))
		fmt.Fprintf(&b, "custody_jct_seconds_sum %s\n", strconv.FormatFloat(sum, 'g', -1, 64))
		fmt.Fprintf(&b, "custody_jct_seconds_count %d\n", len(jct))
	}

	for _, m := range extra {
		if m.Kind == "counter" {
			counter(m.Name, m.Help, int(m.Val))
		} else {
			gauge(m.Name, m.Help, m.Val)
		}
	}

	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Hub fans provenance out: it stamps every event into its FlightRecorder,
// tallies it, and streams the corresponding Record into every attached
// sink. It implements AllocObserver (for core.Options.Observer) and adds
// the taps the driver feeds directly: Audit results and chaos fault
// no-ops.
//
// With no sinks attached, every path through the Hub is allocation-free —
// the nil/empty checks keep the allocator hot path clean, which is what
// lets the benchmark-regression gate hold with observability compiled in.
type Hub struct {
	Flight *FlightRecorder

	// Clock supplies the simulated time stamped onto records; the driver
	// wires it to the event engine's clock. When nil, records carry t=0.
	Clock func() float64

	sinks []Sink
	err   error
	n     Counts // Decisions and Grants are read from Flight instead
}

// NewHub returns a Hub with a flight recorder of the given decision-ring
// capacity (grant ring is 4×; non-positive selects the defaults).
func NewHub(decisionCap int) *Hub {
	grantCap := 0
	if decisionCap > 0 {
		grantCap = 4 * decisionCap
	}
	return &Hub{Flight: NewFlightRecorder(decisionCap, grantCap)}
}

// AddSink attaches a sink; records emitted from now on stream into it.
func (h *Hub) AddSink(s Sink) { h.sinks = append(h.sinks, s) }

// Counts returns the tallies of everything the Hub has seen since it was
// made, sinks or not. Decisions and grants are the flight recorder's push
// counts, so ring wrap does not lower them.
func (h *Hub) Counts() Counts {
	n := h.n
	n.Decisions, n.Grants = h.Flight.dn, h.Flight.gn
	return n
}

// Err returns the first sink error encountered, if any.
func (h *Hub) Err() error { return h.err }

// Close closes every sink, keeping the first error.
func (h *Hub) Close() error {
	for _, s := range h.sinks {
		if err := s.Close(); err != nil && h.err == nil {
			h.err = err
		}
	}
	return h.err
}

func (h *Hub) now() float64 {
	if h.Clock == nil {
		return 0
	}
	return h.Clock()
}

func (h *Hub) emit(r Record) {
	for _, s := range h.sinks {
		if err := s.Emit(r); err != nil && h.err == nil {
			h.err = err
		}
	}
}

// BeginRound implements AllocObserver.
func (h *Hub) BeginRound(apps, execs int) {
	h.Flight.BeginRound(apps, execs)
	if len(h.sinks) == 0 {
		return
	}
	r := blankRecord(h.now(), "round-begin", h.Flight.Rounds())
	r.Apps = apps
	r.Execs = execs
	h.emit(r)
}

// Decide implements AllocObserver.
func (h *Hub) Decide(d Decision) {
	d = h.Flight.pushDecision(d)
	if len(h.sinks) == 0 {
		return
	}
	r := blankRecord(h.now(), "decision", d.Round)
	r.Seq = d.Seq
	r.Phase = d.Phase.String()
	r.App = d.App
	r.Job = d.Job
	r.KeyJobs = d.Key.Jobs
	r.KeyTasks = d.Key.Tasks
	r.RunnerUp = d.RunnerUp
	r.RunnerUpJobs = d.RunnerUpKey.Jobs
	r.RunnerUpTasks = d.RunnerUpKey.Tasks
	r.Unsat = d.Unsat
	h.emit(r)
}

// Grant implements AllocObserver.
func (h *Hub) Grant(g Grant) {
	g = h.Flight.pushGrant(g)
	if len(h.sinks) == 0 {
		return
	}
	r := blankRecord(h.now(), "grant", g.Round)
	r.Seq = g.Decision
	r.App = g.App
	r.Job = g.Job
	r.Task = g.Task
	r.Exec = g.Exec
	r.Node = g.Node
	r.Reason = g.Reason.String()
	h.emit(r)
}

// Audit counts a Driver.Audit result and taps it into the sinks: the number of invariant
// violations found (0 for a clean audit) and their rendered detail.
func (h *Hub) Audit(violations int, detail string) {
	h.n.Audits++
	h.n.Violations += violations
	if len(h.sinks) == 0 {
		return
	}
	r := blankRecord(h.now(), "audit", h.Flight.Rounds())
	r.Violations = violations
	r.Detail = detail
	h.emit(r)
}

// Mode counts a service-mode transition (the custodyd degraded-mode
// ladder) and taps it into the sinks: Reason carries the new mode ("degraded" or "normal") and
// Detail the trigger, so overload degradation is visible in the same
// provenance artifacts as the decisions it coarsens.
func (h *Hub) Mode(degraded bool, detail string) {
	h.n.ModeChanges++
	if len(h.sinks) == 0 {
		return
	}
	r := blankRecord(h.now(), "mode", h.Flight.Rounds())
	if degraded {
		r.Reason = "degraded"
	} else {
		r.Reason = "normal"
	}
	r.Detail = detail
	h.emit(r)
}

// FaultNoop counts a chaos fault that found nothing to break (the
// fault-noop trace event) and taps it into the sinks.
func (h *Hub) FaultNoop(node, exec int) {
	h.n.FaultNoops++
	if len(h.sinks) == 0 {
		return
	}
	r := blankRecord(h.now(), "fault-noop", h.Flight.Rounds())
	r.Node = node
	r.Exec = exec
	h.emit(r)
}
