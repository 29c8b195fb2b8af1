package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/custodyd"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// serviceSpec sizes service-commit: a history of iterations written once per
// process, which every unit recovers as its set-up, and the iterations a
// unit then commits. One iteration is a Submit of a job drawn from the run's
// seed (tenant, kind and input file uniform) followed by Round(0, false),
// each an fsync'd WAL commit.
type serviceSpec struct {
	history, iterations int
}

func serviceSize(tiny bool) serviceSpec {
	if tiny {
		return serviceSpec{history: 20, iterations: 40}
	}
	return serviceSpec{history: 2000, iterations: 2000}
}

const serviceTenants = 4

type serviceInstance struct {
	sp        serviceSpec
	dir       string
	svc       *custodyd.Service
	wal       interface{ Close() error }
	walPath   string
	recovered string // digest after replaying the history
	want      string // digest the history ended with
	tr        *tracer
	jobs      *jobStream
}

// serviceSetup writes the history under Dir through custodyd.Open, exactly as
// a running service would, and returns a set-up that restarts a service from
// a copy of it. The restart (log parse, replay, digest check) is the
// workload's set-up time.
func serviceSetup(o Options) (setupFunc, func() error, error) {
	sp := serviceSize(o.Tiny)
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(o.Dir, "service-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() error { return os.RemoveAll(root) }
	// The cluster keeps DefaultConfig's seed: with 10 input blocks on 16
	// nodes, block placement alone moves commit latency by 10% from seed to
	// seed. The run's seed draws the submission stream instead.
	cfg := custodyd.DefaultConfig()
	stream := xrand.New(o.Seed)
	svc, wal, _, err := custodyd.Open(filepath.Join(root, "history"), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("history: %w (cleanup: %v)", err, cleanup())
	}
	for i := 0; i < serviceTenants && err == nil; i++ {
		_, err = svc.Register(fmt.Sprintf("tenant-%d", i))
	}
	jobs := newJobStream(stream.Fork("history"), len(cfg.Files))
	for i := 0; i < sp.history && err == nil; i++ {
		if _, err = svc.Submit(jobs.next()); err == nil {
			err = svc.Round(0, false)
		}
	}
	want := svc.Digest()
	walName := filepath.Base(wal.Path())
	log, rerr := os.ReadFile(wal.Path())
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("history: %w (cleanup: %v)", err, cleanup())
	}

	units := 0
	setup := func(tr *tracer) (instance, error) {
		units++
		dir := filepath.Join(root, fmt.Sprintf("unit-%d", units))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		walPath := filepath.Join(dir, walName)
		if err := os.WriteFile(walPath, log, 0o644); err != nil {
			return nil, err
		}
		s := &serviceInstance{sp: sp, dir: dir, walPath: walPath, want: want, tr: tr,
			jobs: newJobStream(stream.Fork("unit"), len(cfg.Files))}
		if tr == nil {
			svc, wal, _, err := custodyd.Open(dir, cfg)
			if err != nil {
				return nil, err
			}
			s.svc, s.wal = svc, wal
		} else {
			// The same restart, split so its two halves can be timed, with
			// the journal and core decorators installed.
			t := time.Now()
			wal, err := custodyd.OpenWAL(walPath)
			if err != nil {
				return nil, err
			}
			tr.replayParse = time.Since(t).Seconds()
			c := cfg
			c.BootHook = func(s *custodyd.Service) { s.Manager().Policy = newTracedPolicy(tr) }
			t = time.Now()
			svc, err := custodyd.NewService(c, tracedJournal{wal, tr})
			if err != nil {
				return nil, fmt.Errorf("%w (close: %v)", err, wal.Close())
			}
			tr.replayApply = time.Since(t).Seconds()
			s.svc, s.wal = svc, wal
		}
		s.recovered = s.svc.Digest()
		return s, nil
	}
	return setup, cleanup, nil
}

// jobStream draws submissions: tenant, workload kind and input file.
type jobStream struct {
	rng   *xrand.Rand
	files int
}

func newJobStream(rng *xrand.Rand, files int) *jobStream { return &jobStream{rng, files} }

func (j *jobStream) next() (tenant int, kind string, file int) {
	kinds := workload.Kinds()
	return j.rng.Intn(serviceTenants), string(kinds[j.rng.Intn(len(kinds))]), j.rng.Intn(j.files)
}

// run commits the unit's iterations; round commits are the latency samples,
// submissions a layer sample, and every commit counts towards throughput.
func (s *serviceInstance) run(m *meter) error {
	m.check(s.recovered == s.want, "restart digest %s differs from the history's digest %s", s.recovered, s.want)
	before, err := s.snapshot()
	if err != nil {
		return err
	}
	for i := s.sp.history; i < s.sp.history+s.sp.iterations; i++ {
		if s.tr != nil {
			s.tr.unit = i
		}
		tenant, kind, file := s.jobs.next()
		t := m.start()
		id := s.tr.begin("custodyd.Submit")
		_, serr := s.svc.Submit(tenant, kind, file)
		s.tr.end(id)
		m.submit = append(m.submit, m.stop(t))
		m.check(serr == nil, "iteration %d: submit: %v", i, serr)

		t = m.start()
		id = s.tr.begin("custodyd.Round")
		rerr := s.svc.Round(0, false)
		s.tr.end(id)
		m.lat = append(m.lat, m.stop(t))
		m.check(rerr == nil, "iteration %d: round: %v", i, rerr)
		m.work += 2
	}
	if s.tr == nil {
		m.heapMB = liveHeapMB()
	}
	after, err := s.snapshot()
	if err != nil {
		return err
	}
	for k, v := range after {
		m.counts[k] += v - before[k]
	}
	derr := s.svc.Drain()
	m.check(derr == nil, "drain: %v", derr)
	m.check(s.svc.JobsFinished() == s.svc.JobsSubmitted(), "after drain %d of %d jobs finished",
		s.svc.JobsFinished(), s.svc.JobsSubmitted())
	m.dig.str(s.svc.Digest())
	return nil
}

// snapshot reads the service stack's cumulative work counts.
func (s *serviceInstance) snapshot() (map[string]float64, error) {
	fi, err := os.Stat(s.walPath)
	if err != nil {
		return nil, err
	}
	d := s.svc.Driver()
	col := d.Collector()
	return map[string]float64{
		"custodyd.wal_bytes":      float64(fi.Size()),
		"event.events_run":        float64(d.Engine().Executed()),
		"netsim.flows_completed":  float64(d.Fabric().CompletedFlows),
		"netsim.gb_moved":         d.Fabric().TotalBytesMoved / 1e9,
		"driver.tasks_completed":  float64(len(col.Tasks)),
		"driver.task_retries":     float64(col.TaskRetries),
		"driver.attempt_failures": float64(col.AttemptFailures),
		"manager.reallocations":   float64(col.Reallocations),
		"manager.migrations":      float64(col.ExecutorMigrations),
	}, nil
}

func (s *serviceInstance) close() error {
	err := s.wal.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
