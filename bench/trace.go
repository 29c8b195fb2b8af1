package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/custodyd"
	"repro/internal/manager"
	"repro/internal/policy"
)

// span is one timed call at a layer boundary. Spans of one unit of work (a
// grid cell, an allocation round, a service commit) share Unit.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// tracer keeps the traced unit's spans in memory and the work counts the
// decorators see. It records only while on, which the meter sets for the
// duration of each timed call, so set-up and output checks leave no spans.
type tracer struct {
	t0    time.Time
	on    bool
	unit  int
	spans []span
	stack []int

	idle, postings, grants, local int // core rounds, counted by tracedPolicy

	replayParse, replayApply float64 // s, custodyd recovery split
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one; -1 when not recording.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Unit: t.unit})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanStats groups span durations (ms) by layer.
type spanStats struct {
	manager, core, appends, apply []float64
	managerCoreMs                 float64 // time of spans nested directly inside manager spans
}

func (t *tracer) stats() spanStats {
	var st spanStats
	// Per span, the time of its direct children: all of them, and the
	// journal appends alone.
	child := make([]float64, len(t.spans))
	appends := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
			if s.Name == "custodyd.Append" {
				appends[s.Parent] += s.ms()
			}
		}
	}
	for _, s := range t.spans {
		switch {
		case strings.HasPrefix(s.Name, "manager."):
			st.manager = append(st.manager, s.ms())
			st.managerCoreMs += child[s.ID]
		case s.Name == "core.Allocate":
			st.core = append(st.core, s.ms())
		case s.Name == "custodyd.Append":
			st.appends = append(st.appends, s.ms())
		case s.Name == "custodyd.Submit" || s.Name == "custodyd.Round":
			st.apply = append(st.apply, s.ms()-appends[s.ID])
		}
	}
	return st
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			cerr := f.Close()
			if cerr != nil {
				return cerr
			}
			return err
		}
	}
	if err := w.Flush(); err != nil {
		cerr := f.Close()
		if cerr != nil {
			return cerr
		}
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// allocator is the one call the alloc workloads make per round: a warm
// *core.Session, or tracedPolicy in the traced unit.
type allocator interface {
	Allocate(apps []core.AppDemand, idle []core.ExecInfo, opts core.Options) core.Plan
}

// tracedPolicy is the core-layer decorator: a policy.Policy that runs
// Algorithms 1+2 on its own warm core.Session, which computes the same plan
// as the manager's built-in path, and records each round as a core span.
type tracedPolicy struct {
	tr   *tracer
	sess *core.Session
}

func newTracedPolicy(tr *tracer) *tracedPolicy {
	return &tracedPolicy{tr: tr, sess: core.NewSession()}
}

// Name implements policy.Policy.
func (p *tracedPolicy) Name() string { return policy.Custody }

// Allocate implements policy.Policy and allocator.
func (p *tracedPolicy) Allocate(apps []core.AppDemand, idle []core.ExecInfo, opts core.Options) core.Plan {
	if !p.tr.on {
		return p.sess.Allocate(apps, idle, opts)
	}
	postings := 0
	for i := range apps {
		for j := range apps[i].Jobs {
			for k := range apps[i].Jobs[j].Tasks {
				postings += len(apps[i].Jobs[j].Tasks[k].Nodes)
			}
		}
	}
	id := p.tr.begin("core.Allocate")
	plan := p.sess.Allocate(apps, idle, opts)
	p.tr.end(id)
	p.tr.idle += len(idle)
	p.tr.postings += postings
	p.tr.grants += len(plan.Assignments)
	p.tr.local += plan.LocalCount()
	return plan
}

// tracedManager is the manager-layer decorator: it forwards every callback
// and records it as a span.
type tracedManager struct {
	inner manager.Manager
	tr    *tracer
}

// tracedFaultManager adds the optional ExecutorFaultHandler capability, so
// the driver's type assertion sees exactly what the wrapped manager offers.
type tracedFaultManager struct {
	*tracedManager
	h manager.ExecutorFaultHandler
}

func wrapManager(m manager.Manager, tr *tracer) manager.Manager {
	tm := &tracedManager{inner: m, tr: tr}
	if h, ok := m.(manager.ExecutorFaultHandler); ok {
		return &tracedFaultManager{tm, h}
	}
	return tm
}

func (m *tracedManager) Name() string { return m.inner.Name() }

func (m *tracedManager) Register(env manager.Env) {
	id := m.tr.begin("manager.Register")
	m.inner.Register(env)
	m.tr.end(id)
}

func (m *tracedManager) OnJobSubmit(env manager.Env, a *app.Application, j *app.Job) {
	id := m.tr.begin("manager.OnJobSubmit")
	m.inner.OnJobSubmit(env, a, j)
	m.tr.end(id)
}

func (m *tracedManager) OnJobFinish(env manager.Env, a *app.Application, j *app.Job) {
	id := m.tr.begin("manager.OnJobFinish")
	m.inner.OnJobFinish(env, a, j)
	m.tr.end(id)
}

func (m *tracedManager) OnExecutorIdle(env manager.Env, e *cluster.Executor) {
	id := m.tr.begin("manager.OnExecutorIdle")
	m.inner.OnExecutorIdle(env, e)
	m.tr.end(id)
}

func (m *tracedManager) OnNodeFail(env manager.Env, node int) {
	id := m.tr.begin("manager.OnNodeFail")
	m.inner.OnNodeFail(env, node)
	m.tr.end(id)
}

func (m *tracedFaultManager) OnExecutorFail(env manager.Env, execID int) {
	id := m.tr.begin("manager.OnExecutorFail")
	m.h.OnExecutorFail(env, execID)
	m.tr.end(id)
}

func (m *tracedFaultManager) OnExecutorRecover(env manager.Env, execID int) {
	id := m.tr.begin("manager.OnExecutorRecover")
	m.h.OnExecutorRecover(env, execID)
	m.tr.end(id)
}

// tracedJournal is the custodyd-layer decorator over the file-backed WAL:
// each append (encode, write, fsync) becomes a span.
type tracedJournal struct {
	custodyd.Journal
	tr *tracer
}

func (j tracedJournal) Append(op custodyd.Op) error {
	id := j.tr.begin("custodyd.Append")
	err := j.Journal.Append(op)
	j.tr.end(id)
	return err
}
