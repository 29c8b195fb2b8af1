package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measuring budget: units of work run back to back until
	// the next would end past it (at least one unit always runs).
	Seconds float64
	// Trace selects the traced run: a short untraced phase, then one unit
	// with the layer decorators, spans and a CPU profile, reported as
	// per-layer metrics.
	Trace bool
	// Dir receives everything a run writes: the service's state
	// directories and, under trace/, the traced run's files.
	Dir string
	// Tiny shrinks every input to test size.
	Tiny bool
}

// setupReps is how many times a run sets up before its first unit; setup_s
// is the median over these and every later unit's setup.
const setupReps = 3

// instance is one set-up unit of work, ready to measure.
type instance interface {
	run(m *meter) error
	close() error
}

// setupFunc builds a fresh instance; tr is non-nil for the traced unit.
type setupFunc func(tr *tracer) (instance, error)

// newWorkload prepares the named workload once per process and returns its
// set-up function and a cleanup for what preparing left behind.
func newWorkload(o Options) (setupFunc, func() error, error) {
	none := func() error { return nil }
	switch o.Workload {
	case "paper-grid":
		return gridSetup(paperGrid(o.Tiny), o.Seed), none, nil
	case "chaos-grid":
		return gridSetup(chaosGrid(o.Tiny), o.Seed), none, nil
	case "alloc-churn":
		return allocSetup(allocSize(o.Tiny, false), o.Seed), none, nil
	case "alloc-burst":
		return allocSetup(allocSize(o.Tiny, true), o.Seed), none, nil
	case "service-commit":
		return serviceSetup(o)
	}
	return nil, nil, fmt.Errorf("unknown workload %q (valid: %s)", o.Workload, workloadNames())
}

func workloadNames() string {
	s := ""
	for i, w := range Workloads {
		if i > 0 {
			s += " | "
		}
		s += w.Name
	}
	return s
}

// meter accumulates one unit's measurements. Workloads time only calls into
// the system under test (start/stop); input generation and output checks
// stay outside.
type meter struct {
	work   float64            // units of throughput_per_s
	timed  time.Duration      // time inside start/stop, scaled to the reference host speed
	lat    []float64          // latency samples, ms
	submit []float64          // service-commit: Submit commit times, ms
	counts map[string]float64 // deterministic work counts, summed
	heapMB float64
	dig    digest

	attempted, failed int
	problems          []string

	tr          *tracer // non-nil in the traced unit
	speed       *hostSpeed
	countAllocs bool
	allocBytes  float64
	allocObjs   float64
	memSample   []metrics.Sample
	timedCtx    context.Context
}

func newMeter(tr *tracer, speed *hostSpeed, countAllocs bool) *meter {
	m := &meter{
		counts:      map[string]float64{},
		dig:         newDigest(),
		tr:          tr,
		speed:       speed,
		countAllocs: countAllocs,
	}
	if countAllocs {
		m.memSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	}
	if tr != nil {
		m.timedCtx = pprof.WithLabels(context.Background(), pprof.Labels(profLabel, profTimed))
	}
	return m
}

// check records one output check.
func (m *meter) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.failed++
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// start opens a timed call: profile samples are labelled timed and spans
// are recorded until stop.
func (m *meter) start() time.Time {
	m.speed.before()
	if m.countAllocs {
		metrics.Read(m.memSample)
		m.allocBytes -= float64(m.memSample[0].Value.Uint64())
		m.allocObjs -= float64(m.memSample[1].Value.Uint64())
	}
	if m.tr != nil {
		pprof.SetGoroutineLabels(m.timedCtx)
		m.tr.on = true
	}
	return time.Now()
}

// stop closes a timed call and returns its duration in ms, scaled to the
// reference host speed.
func (m *meter) stop(t time.Time) float64 {
	raw := time.Since(t)
	if m.tr != nil {
		m.tr.on = false
		pprof.SetGoroutineLabels(context.Background())
	}
	if m.countAllocs {
		metrics.Read(m.memSample)
		m.allocBytes += float64(m.memSample[0].Value.Uint64())
		m.allocObjs += float64(m.memSample[1].Value.Uint64())
	}
	d := m.speed.after(raw)
	m.timed += d
	return float64(d) / float64(time.Millisecond)
}

// phase is a sequence of measured units.
type phase struct {
	setups []float64 // s
	units  []*meter
}

// measure sets up setupReps times, then runs units until the budget would be
// overrun. Every unit repeats the same work, so all must give one digest.
func measure(setup setupFunc, budget time.Duration, speed *hostSpeed, countAllocs bool) (*phase, error) {
	begin := time.Now()
	ph := &phase{}
	var inst instance
	build := func() error {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		speed.before()
		t := time.Now()
		var err error
		inst, err = setup(nil)
		ph.setups = append(ph.setups, speed.after(time.Since(t)).Seconds())
		return err
	}
	for i := 0; i < setupReps; i++ {
		if err := build(); err != nil {
			return nil, err
		}
	}
	for {
		m := newMeter(nil, speed, countAllocs)
		err := inst.run(m)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		inst = nil
		if err != nil {
			return nil, err
		}
		ph.units = append(ph.units, m)
		elapsed := time.Since(begin)
		perUnit := elapsed / time.Duration(len(ph.units))
		if elapsed+perUnit > budget {
			return ph, nil
		}
		if err := build(); err != nil {
			return nil, err
		}
	}
}

// Run executes one run of a workload and returns its result. Failed output
// checks are reported in the result; an error means the run could not be
// carried out at all.
func Run(o Options) (*Result, error) {
	setup, cleanup, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	res, err := runWith(o, setup)
	if cerr := cleanup(); err == nil && cerr != nil {
		err = fmt.Errorf("cleanup: %w", cerr)
	}
	return res, err
}

func runWith(o Options, setup setupFunc) (*Result, error) {
	budget := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		budget /= 2
	}
	speed := newHostSpeed()
	ph, err := measure(setup, budget, speed, o.Trace)
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Metrics: map[string]Value{}}
	res.Digest = ph.units[0].dig.String()
	for i, m := range ph.units {
		res.Attempted += m.attempted
		res.Failed += m.failed
		res.Problems = append(res.Problems, m.problems...)
		res.Attempted++
		if d := m.dig.String(); d != res.Digest {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("unit %d digest %s differs from unit 0 digest %s", i, d, res.Digest))
		}
	}
	if !o.Trace {
		for name, v := range endToEnd(ph) {
			res.Metrics[name] = Value{v, unitOf(name)}
		}
	} else {
		layers, traced, err := traceUnit(o, setup, ph, speed)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted + 1
		res.Failed += traced.failed
		res.Problems = append(res.Problems, traced.problems...)
		if d := traced.dig.String(); d != res.Digest {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("traced digest %s differs from untraced digest %s: a decorator changed behaviour", d, res.Digest))
		}
		for name, v := range layers {
			res.Metrics[name] = Value{v, unitOf(name)}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func unitOf(name string) string {
	m, _ := metricDecl(name)
	return m.Unit
}

// endToEnd reduces an untraced phase to the end-to-end metrics.
func endToEnd(ph *phase) map[string]float64 {
	var work float64
	var timed time.Duration
	var lat, heap []float64
	for _, m := range ph.units {
		work += m.work
		timed += m.timed
		lat = append(lat, m.lat...)
		heap = append(heap, m.heapMB)
	}
	return map[string]float64{
		SetupS:       median(ph.setups),
		ThroughputPS: work / timed.Seconds(),
		LatencyP50:   percentile(lat, 0.5),
		LatencyP90:   percentile(lat, 0.9),
		LiveHeapMB:   median(heap),
	}
}

// traceUnit runs one traced unit after the untraced phase ph and reduces it
// to the per-layer metrics. It writes spans.jsonl, cpu.pprof and
// layers.json under Dir/trace/<workload>.
func traceUnit(o Options, setup setupFunc, ph *phase, speed *hostSpeed) (map[string]float64, *meter, error) {
	dir := filepath.Join(o.Dir, "trace", o.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	inst, err := setup(tr)
	if err != nil {
		return nil, nil, errors.Join(err, pf.Close())
	}
	m := newMeter(tr, speed, false)
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, nil, errors.Join(fmt.Errorf("cpu profile: %w", err), pf.Close(), inst.close())
	}
	err = inst.run(m)
	pprof.StopCPUProfile()
	if err := errors.Join(err, pf.Close(), inst.close()); err != nil {
		return nil, nil, err
	}
	prof, err := readProfile(profPath)
	if err != nil {
		return nil, nil, err
	}
	var untraced time.Duration
	for _, u := range ph.units {
		untraced += u.timed
	}
	overhead := m.timed.Seconds() / (untraced.Seconds() / float64(len(ph.units)))
	layers := layerMetrics(ph, m, tr, prof, overhead)
	if err := tr.writeSpans(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, nil, err
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		SelfNs   map[string]float64 `json:"profile_self_ns_by_package"`
	}{o.Workload, o.Seed, layers, prof.self}); err != nil {
		return nil, nil, err
	}
	return layers, m, nil
}

// layerMetrics assembles every declared layer metric. Work counts, the
// allocation counters and untraced latency tails come from the untraced
// phase; spans, decorator counters and CPU shares from the traced unit.
func layerMetrics(ph *phase, m *meter, tr *tracer, prof *profileSummary, overhead float64) map[string]float64 {
	out := map[string]float64{}
	for _, l := range Layers {
		out[l.Name] = 0
	}
	u := ph.units[0]
	for name, v := range u.counts {
		if _, ok := out[name]; ok {
			out[name] = v
		}
	}
	if tasks, fails := u.counts["driver.tasks_completed"], u.counts["driver.attempt_failures"]; tasks > 0 {
		out["driver.attempt_success_ratio"] = tasks / (tasks + fails)
	}
	out["runtime.alloc_mb"] = u.allocBytes / (1 << 20)
	out["runtime.mallocs"] = u.allocObjs

	var lat, submit []float64
	for _, x := range ph.units {
		lat = append(lat, x.lat...)
		submit = append(submit, x.submit...)
	}
	out["bench.latency_ms_p99"] = percentile(lat, 0.99)
	out["bench.latency_samples"] = float64(len(lat))
	out["custodyd.submit_ms_p50"] = percentile(submit, 0.5)
	out["custodyd.submit_ms_p90"] = percentile(submit, 0.9)
	out["custodyd.submit_ms_p99"] = percentile(submit, 0.99)

	st := tr.stats()
	out["manager.calls"] = float64(len(st.manager))
	out["manager.busy_s"] = sum(st.manager) / 1e3
	out["manager.self_s"] = (sum(st.manager) - st.managerCoreMs) / 1e3
	out["core.rounds"] = float64(len(st.core))
	out["core.busy_s"] = sum(st.core) / 1e3
	out["core.round_ms_p99"] = percentile(st.core, 0.99)
	out["core.idle_offered"] = float64(tr.idle)
	out["core.postings"] = float64(tr.postings)
	out["core.grants"] = float64(tr.grants)
	if tr.grants > 0 {
		out["core.local_grant_ratio"] = float64(tr.local) / float64(tr.grants)
	}
	out["custodyd.wal_appends"] = float64(len(st.appends))
	out["custodyd.wal_append_ms_p50"] = percentile(st.appends, 0.5)
	out["custodyd.wal_append_ms_p90"] = percentile(st.appends, 0.9)
	if len(st.appends) > 0 {
		out["custodyd.wal_bytes_per_op"] = m.counts["custodyd.wal_bytes"] / float64(len(st.appends))
	}
	out["custodyd.apply_ms_p50"] = percentile(st.apply, 0.5)
	out["custodyd.replay_parse_s"] = tr.replayParse
	out["custodyd.replay_apply_s"] = tr.replayApply
	out["custodyd.recovery_s"] = tr.replayParse + tr.replayApply

	for _, layer := range []string{"netsim", "event", "driver", "scheduler", "hdfs", "core", "custodyd"} {
		out[layer+".cpu_share"] = prof.share(prof.self[layer])
	}
	out["netsim.reallocate_cum_share"] = prof.share(prof.cum[fnReallocate])
	out["core.run_cum_share"] = prof.share(prof.cum[fnAllocRun])
	out["core.build_apps_cum_share"] = prof.share(prof.cum[fnBuildApps])
	out["core.pool_reset_cum_share"] = prof.share(prof.cum[fnPoolReset])
	if prof.total > 0 {
		out["runtime.gc_cpu_share"] = prof.gc / prof.total
	}
	if flows := m.counts["netsim.flows_completed"]; flows > 0 {
		out["netsim.cpu_us_per_flow"] = prof.self["netsim"] / 1e3 / flows
	}
	out["trace.overhead_ratio"] = overhead
	out["bench.reference_loop_ms"] = m.speed.loopMs()
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = 0
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
