// Package obsv is Custody's decision-provenance and live-observability
// layer. Where internal/trace answers *what* the simulation did (a flat
// post-hoc event list), obsv answers *why*: every pick of Algorithm 1
// emits a structured Decision — the chosen application, its fairness key,
// the runner-up it beat, and the job Algorithm 2 served — and every granted
// executor slot emits a Grant tagged with the reason it was usable
// (local-block, rack-fallback, or arbitrary-fill).
//
// A Hub records both into its FlightRecorder, keeps the provenance
// tallies (Hub.Counts), and streams every record into its sinks (JSONL,
// CSV). RenderOpenMetrics turns those tallies, the flight recorder, and a
// run's metrics.Collector into one OpenMetrics exposition, whenever the
// caller wants a page: after a run, or once per custodyd round.
//
// The package is a leaf: core, manager, and driver may import it, and it
// imports only internal/metrics (for the OpenMetrics exporter) and the
// standard library. Recording is allocation-free on the allocator's hot
// path — the FlightRecorder writes into preallocated rings — so the
// observability layer can stay attached in production runs without
// disturbing the benchmark-regression gate.
package obsv

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Phase distinguishes which half of Algorithm 1 produced a decision: the
// locality-driven MINLOCALITY loop or the budget-fill distribution of
// leftover slots.
type Phase uint8

// Decision phases.
const (
	PhaseLocality Phase = iota
	PhaseFill
)

// String returns the phase's wire name.
func (p Phase) String() string {
	switch p {
	case PhaseLocality:
		return "locality"
	case PhaseFill:
		return "fill"
	}
	return "unknown"
}

// Reason classifies why one executor slot was grantable to the task it was
// granted for.
type Reason uint8

// Grant reasons.
const (
	// ReasonLocalBlock: the executor's node stores a replica of the task's
	// input block — the NameNode's advertised holders were usable and one
	// of them supplied the slot.
	ReasonLocalBlock Reason = iota
	// ReasonRackFallback: every advertised holder was unusable and the
	// preference degraded to a node rack-local to a replica
	// (core.FallbackNodes case 2); the grant still counts as "local" for
	// the fairness metric but reads the block over the rack switch.
	ReasonRackFallback
	// ReasonArbitraryFill: a leftover slot handed out in the fill phase
	// with no locality claim at all.
	ReasonArbitraryFill
	// ReasonCacheHit: the executor's node stores a replica of the task's
	// input block *and* held it warm in its block cache when the demand
	// was built — the read is expected to stream from memory, not disk.
	// Only emitted when the cache tier is enabled.
	ReasonCacheHit
)

// String returns the reason's wire name.
func (r Reason) String() string {
	switch r {
	case ReasonLocalBlock:
		return "local-block"
	case ReasonRackFallback:
		return "rack-fallback"
	case ReasonArbitraryFill:
		return "arbitrary-fill"
	case ReasonCacheHit:
		return "cache-hit"
	}
	return "unknown"
}

// Key is one application's fairness key at a pick: the fraction of its
// jobs with perfect locality (Algorithm 1's metric) and the fraction of
// its tasks running local (the tie-breaker).
type Key struct {
	Jobs  float64
	Tasks float64
}

// String formats the key as jobs/tasks with exact float representation,
// so logs are byte-identical across runs and platforms.
func (k Key) String() string {
	return strconv.FormatFloat(k.Jobs, 'g', -1, 64) + "/" + strconv.FormatFloat(k.Tasks, 'g', -1, 64)
}

// Decision records one pick of Algorithm 1: which application was chosen,
// by what fairness-key comparison, and what Algorithm 2 did with the pick.
// Round and Seq are stamped by the FlightRecorder.
type Decision struct {
	Round int // 1-based allocation round (BeginRound count)
	Seq   int // global decision sequence number, 0-based
	Phase Phase

	App int // chosen application
	Key Key // its fairness key at pick time

	// RunnerUp is the application the pick was compared against: the next
	// entry in Algorithm 1's heap order (or, in the fill phase, the next
	// app in the frozen fill order). -1 when the pick was uncontested.
	RunnerUp    int
	RunnerUpKey Key

	// Job is the first job Algorithm 2 served for this pick (the job with
	// the fewest unsatisfied input tasks), and Unsat that job's
	// unsatisfied-task count when its first slot was granted. Job is -1
	// when the pick produced no grant (the pool had nothing useful and the
	// app was marked exhausted) or when the decision is a fill-phase one.
	Job   int
	Unsat int
}

// Grant records one executor slot granted under a decision.
type Grant struct {
	Round    int
	Decision int // Seq of the owning Decision
	App      int
	Exec     int
	Node     int
	Job      int // -1 for fill grants
	Task     int // -1 for fill grants
	Reason   Reason
}

// AllocObserver receives allocation provenance from core.Session. All
// methods are called synchronously on the allocator's goroutine; an
// implementation must not retain pointers into the allocator's state (the
// arguments are plain values).
type AllocObserver interface {
	// BeginRound marks the start of one allocation round with the size of
	// its inputs: the number of competing applications (the fairness-heap
	// size) and the number of idle executors offered.
	BeginRound(apps, execs int)
	// Decide reports one pick of Algorithm 1.
	Decide(Decision)
	// Grant reports one executor slot granted under the latest decision.
	Grant(Grant)
}

// FlightRecorder is a fixed-size ring buffer of decisions and grants — a
// flight recorder for the allocator. Writes are allocation-free; when a
// ring wraps, the oldest records are evicted and counted in Dropped. It
// implements AllocObserver directly for recorder-only use; wrap it in a
// Hub to stream records into sinks as well.
type FlightRecorder struct {
	decisions []Decision
	grants    []Grant
	dn, gn    int // monotonic push counts; ring index = (count-1) % cap

	round     int // current round, 1-based
	lastApps  int
	lastExecs int
}

// Default ring capacities: enough for every decision of a full sweep-scale
// run while keeping the recorder under ~10 MB.
const (
	DefaultDecisionCap = 1 << 15
	DefaultGrantCap    = 1 << 17
)

// NewFlightRecorder returns a recorder with the given ring capacities;
// non-positive values select the defaults. All memory is allocated up
// front so recording never allocates.
func NewFlightRecorder(decisionCap, grantCap int) *FlightRecorder {
	if decisionCap <= 0 {
		decisionCap = DefaultDecisionCap
	}
	if grantCap <= 0 {
		grantCap = DefaultGrantCap
	}
	return &FlightRecorder{
		decisions: make([]Decision, decisionCap),
		grants:    make([]Grant, grantCap),
	}
}

// BeginRound implements AllocObserver.
//
//custody:noalloc
func (fr *FlightRecorder) BeginRound(apps, execs int) {
	fr.round++
	fr.lastApps = apps
	fr.lastExecs = execs
}

// Decide implements AllocObserver.
//
//custody:noalloc
func (fr *FlightRecorder) Decide(d Decision) { fr.pushDecision(d) }

// Grant implements AllocObserver.
//
//custody:noalloc
func (fr *FlightRecorder) Grant(g Grant) { fr.pushGrant(g) }

// pushDecision stamps Round/Seq and records the decision, returning the
// stamped copy for streaming.
//
//custody:noalloc
func (fr *FlightRecorder) pushDecision(d Decision) Decision {
	d.Round = fr.round
	d.Seq = fr.dn
	fr.decisions[fr.dn%len(fr.decisions)] = d
	fr.dn++
	return d
}

// pushGrant stamps Round and the owning decision's Seq, records the grant,
// and returns the stamped copy.
//
//custody:noalloc
func (fr *FlightRecorder) pushGrant(g Grant) Grant {
	g.Round = fr.round
	g.Decision = fr.dn - 1
	fr.grants[fr.gn%len(fr.grants)] = g
	fr.gn++
	return g
}

// Rounds returns the number of allocation rounds observed.
func (fr *FlightRecorder) Rounds() int { return fr.round }

// LastRound returns the most recent round's input sizes: the number of
// competing applications (fairness-heap size) and idle executors.
func (fr *FlightRecorder) LastRound() (apps, execs int) { return fr.lastApps, fr.lastExecs }

// Dropped returns how many decisions and grants were evicted by ring wrap.
func (fr *FlightRecorder) Dropped() (decisions, grants int) {
	if d := fr.dn - len(fr.decisions); d > 0 {
		decisions = d
	}
	if g := fr.gn - len(fr.grants); g > 0 {
		grants = g
	}
	return decisions, grants
}

// Decisions returns the retained decisions in emission order (oldest
// first). The slice is freshly allocated.
func (fr *FlightRecorder) Decisions() []Decision {
	return ringSnapshot(fr.decisions, fr.dn)
}

// Grants returns the retained grants in emission order (oldest first).
func (fr *FlightRecorder) Grants() []Grant {
	return ringSnapshot(fr.grants, fr.gn)
}

// ringSnapshot copies the live window of a ring in push order.
func ringSnapshot[T any](ring []T, n int) []T {
	if n <= len(ring) {
		return append([]T(nil), ring[:n]...)
	}
	out := make([]T, 0, len(ring))
	start := n % len(ring)
	out = append(out, ring[start:]...)
	return append(out, ring[:start]...)
}

// formatDecision renders one decision as a stable single line.
func formatDecision(b *strings.Builder, d Decision) {
	fmt.Fprintf(b, "decision %d round=%d phase=%s app=%d key=%s", d.Seq, d.Round, d.Phase, d.App, d.Key)
	if d.RunnerUp >= 0 {
		fmt.Fprintf(b, " runner-up=%d key=%s", d.RunnerUp, d.RunnerUpKey)
	} else {
		b.WriteString(" uncontested")
	}
	if d.Job >= 0 {
		fmt.Fprintf(b, " job=%d unsat=%d", d.Job, d.Unsat)
	} else if d.Phase == PhaseLocality {
		b.WriteString(" no-grant")
	}
	b.WriteByte('\n')
}

// formatGrant renders one grant as a stable single line.
func formatGrant(b *strings.Builder, g Grant) {
	fmt.Fprintf(b, "  grant exec=%d node=%d", g.Exec, g.Node)
	if g.Job >= 0 {
		fmt.Fprintf(b, " job=%d task=%d", g.Job, g.Task)
	}
	fmt.Fprintf(b, " reason=%s\n", g.Reason)
}

// WriteLog writes the full retained decision log — every decision with its
// grants nested under it — in a stable text format. Two runs of the same
// seeded simulation produce byte-identical logs; the determinism property
// test in internal/core pins this.
func (fr *FlightRecorder) WriteLog(w io.Writer) error {
	decisions := fr.Decisions()
	grants := fr.Grants()
	var b strings.Builder
	dd, dg := fr.Dropped()
	if dd > 0 || dg > 0 {
		fmt.Fprintf(&b, "# ring wrapped: %d decisions and %d grants evicted\n", dd, dg)
	}
	gi := 0
	for _, d := range decisions {
		formatDecision(&b, d)
		for gi < len(grants) && grants[gi].Decision < d.Seq {
			gi++ // grants of evicted decisions
		}
		for gi < len(grants) && grants[gi].Decision == d.Seq {
			formatGrant(&b, grants[gi])
			gi++
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Explain writes the decision chain behind every grant of one (app, job)
// pair: for each retained grant of that job, the fairness-key comparison
// that picked the app, the runner-up it beat, and the reason the slot was
// usable. This is the engine behind custodysim's -explain flag.
func (fr *FlightRecorder) Explain(w io.Writer, app, job int) error {
	decisions := fr.Decisions()
	bySeq := make(map[int]Decision, len(decisions))
	for _, d := range decisions {
		bySeq[d.Seq] = d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "provenance for app %d job %d\n", app, job)
	if dd, dg := fr.Dropped(); dd > 0 || dg > 0 {
		fmt.Fprintf(&b, "# ring wrapped: %d decisions and %d grants evicted; chain may be incomplete\n", dd, dg)
	}
	n := 0
	for _, g := range fr.Grants() {
		if g.App != app || g.Job != job {
			continue
		}
		n++
		fmt.Fprintf(&b, "grant %d: exec %d on node %d (%s), round %d\n", n, g.Exec, g.Node, g.Reason, g.Round)
		d, ok := bySeq[g.Decision]
		if !ok {
			fmt.Fprintf(&b, "  decision %d evicted from flight recorder\n", g.Decision)
			continue
		}
		fmt.Fprintf(&b, "  picked by decision %d (%s phase): app %d key %s", d.Seq, d.Phase, d.App, d.Key)
		if d.RunnerUp >= 0 {
			fmt.Fprintf(&b, " beat app %d key %s\n", d.RunnerUp, d.RunnerUpKey)
		} else {
			b.WriteString(" uncontested\n")
		}
		if d.Job >= 0 {
			fmt.Fprintf(&b, "  algorithm 2 served job %d first (%d unsatisfied tasks)\n", d.Job, d.Unsat)
		}
	}
	if n == 0 {
		b.WriteString("no grants recorded for this job\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
