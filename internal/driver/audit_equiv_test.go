package driver_test

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/driver"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// storm is one seeded fault-storm run: a small two-application Sort
// cluster under a chaos plan over all seven fault kinds.
type storm struct {
	seed       uint64
	resilient  bool
	speculate  bool
	standalone bool
	sched      driver.SchedulerKind
	scale      float64 // chaos.DefaultProfile multiplier
}

// checkEvery is the number of simulation events between equivalence checks
// in a storm run; every fault application and revert is checked as well.
const checkEvery = 50

// run builds the storm's driver, applies and reverts every planned fault
// through chaos.Apply and chaos.Revert (so through every driver Inject* and
// Restore* method), and steps the simulation to the end, calling check after
// each fault change and every checkEvery events. It returns the number of
// checks made.
func (s storm) run(tb testing.TB, check func(d *driver.Driver, where string)) int {
	tb.Helper()
	cfg := driver.DefaultConfig()
	cfg.Seed = s.seed
	cfg.Nodes = 8
	cfg.RackSize = 4
	cfg.BlockSize = 64 << 20
	cfg.Net = netsim.Config{UplinkBps: 250e6, DownlinkBps: 5e9, DiskBps: 400e6}
	cfg.Manager = manager.NewCustody()
	if s.standalone {
		cfg.Manager = manager.NewStandalone(xrand.New(s.seed), true)
	}
	cfg.ExecutorStartupSec = 0
	cfg.Speculation = s.speculate
	if s.sched != "" {
		cfg.Scheduler = s.sched
	}
	if s.resilient {
		cfg.EnableResilience()
	}
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 2, MeanInterarrival: 3, DatasetFiles: 2}
	sched := workload.Generate(spec, xrand.New(s.seed))
	d, err := driver.NewScheduled(cfg, sched)
	if err != nil {
		tb.Fatal(err)
	}
	checks := 0
	at := func(where string) {
		checks++
		check(d, where)
	}
	plan := chaos.Plan(chaos.DefaultProfile().Scale(s.scale), sched.Horizon(), cfg.Nodes,
		cfg.Nodes*cfg.ExecutorsPerNode, xrand.New(s.seed).Fork("chaos-plan"))
	for _, f := range plan {
		eng := d.Engine()
		eng.At(f.At, func() {
			applied := chaos.Apply(d, f)
			at(fmt.Sprintf("t=%.3f apply %s", eng.Now(), f.Kind))
			if applied && f.Duration > 0 {
				eng.Schedule(f.Duration, func() {
					chaos.Revert(d, f)
					at(fmt.Sprintf("t=%.3f revert %s", eng.Now(), f.Kind))
				})
			}
		})
	}
	for n := 1; d.Engine().Step(); n++ {
		if n%checkEvery == 0 {
			at(fmt.Sprintf("t=%.3f event %d", d.Engine().Now(), n))
		}
	}
	at("end")
	return checks
}

// requireAgreement fails unless the live task check and the full walk reach
// the same verdict on a clean state: the walk finds nothing, the tally
// matches the recount, and the live check passes.
func requireAgreement(tb testing.TB, d *driver.Driver, where string) {
	tb.Helper()
	live, walk, tallied := d.TaskAuditVerdicts()
	if !tallied || len(walk) > 0 || !live {
		tb.Fatalf("%s: live check %v, walk %q, tally matches recount %v", where, live, walk, tallied)
	}
	if err := d.Audit(); err != nil {
		tb.Fatalf("%s: %v", where, err)
	}
}

// TestAuditMatchesTaskWalk drives seeded fault storms, with resilience on
// and off, through every scheduler and both manager families, and requires
// the audit's live task check to agree with the full task walk after every
// fault change and every checkEvery events.
func TestAuditMatchesTaskWalk(t *testing.T) {
	var storms []storm
	for seed := uint64(1); seed <= 3; seed++ {
		for _, resilient := range []bool{false, true} {
			storms = append(storms,
				storm{seed: seed, resilient: resilient, scale: 2},
				storm{seed: seed, resilient: resilient, speculate: true, standalone: true, scale: 3})
		}
	}
	for i, k := range driver.SchedulerKinds() {
		storms = append(storms, storm{seed: uint64(10 + i), resilient: i%2 == 0, sched: k, scale: 2})
	}
	for _, s := range storms {
		name := fmt.Sprintf("seed%d/resilient=%v/spec=%v/standalone=%v/%s", s.seed, s.resilient, s.speculate, s.standalone, s.sched)
		t.Run(name, func(t *testing.T) {
			if n := s.run(t, func(d *driver.Driver, where string) { requireAgreement(t, d, where) }); n < 10 {
				t.Fatalf("only %d checks ran", n)
			}
		})
	}
}

// FuzzAuditEquivalence runs fault storms of fuzzed shape and requires the
// live task check and the full walk to agree on every state they reach.
//
//	go test -run='^$' -fuzz='^FuzzAuditEquivalence$' -fuzztime=60s ./internal/driver
func FuzzAuditEquivalence(f *testing.F) {
	f.Add(uint64(1), byte(0x03), byte(2))
	f.Add(uint64(7), byte(0x0c), byte(4))
	f.Fuzz(func(t *testing.T, seed uint64, flags, scale byte) {
		kinds := driver.SchedulerKinds()
		s := storm{
			seed:       seed,
			resilient:  flags&1 != 0,
			speculate:  flags&2 != 0,
			standalone: flags&4 != 0,
			sched:      kinds[int(flags>>3)%len(kinds)],
			scale:      float64(scale%6) / 2,
		}
		s.run(t, func(d *driver.Driver, where string) { requireAgreement(t, d, where) })
	})
}
