package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/xrand"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func cfg(up, down, disk float64) Config {
	return Config{UplinkBps: up, DownlinkBps: down, DiskBps: disk}
}

func TestSingleLocalRead(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 50))
	var finish float64 = -1
	fb.LocalRead(0, 500, func() { finish = eng.Now() })
	eng.Run()
	approx(t, finish, 10, 1e-6, "local read of 500B at 50B/s") // 500/50
}

func TestSingleRemoteRead(t *testing.T) {
	eng := event.NewEngine()
	// uplink is the bottleneck: 20 B/s.
	fb := NewFabric(eng, 2, cfg(20, 100, 50))
	var finish float64 = -1
	fb.RemoteReadCapTier(0, 1, 100, 0, TierDisk, func() { finish = eng.Now() })
	eng.Run()
	approx(t, finish, 5, 1e-6, "remote read bottlenecked by uplink")
}

func TestRemoteReadSameNodeIsLocal(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(1, 1, 50)) // network would take forever
	var finish float64 = -1
	fb.RemoteReadCapTier(1, 1, 100, 0, TierDisk, func() { finish = eng.Now() })
	eng.Run()
	approx(t, finish, 2, 1e-6, "same-node remote read must use disk only")
}

func TestFairShareTwoFlows(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 40))
	var t1, t2 float64 = -1, -1
	fb.LocalRead(0, 200, func() { t1 = eng.Now() })
	fb.LocalRead(0, 200, func() { t2 = eng.Now() })
	eng.Run()
	// Both share the 40 B/s disk: each gets 20 B/s, finishing at 10s.
	approx(t, t1, 10, 1e-6, "flow 1 fair share")
	approx(t, t2, 10, 1e-6, "flow 2 fair share")
}

func TestShorterFlowFreesBandwidth(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 40))
	var tShort, tLong float64 = -1, -1
	fb.LocalRead(0, 100, func() { tShort = eng.Now() })
	fb.LocalRead(0, 300, func() { tLong = eng.Now() })
	eng.Run()
	// Phase 1: both at 20 B/s until short finishes at t=5 (100B).
	// Phase 2: long has 200B left at 40 B/s → 5 more seconds.
	approx(t, tShort, 5, 1e-6, "short flow")
	approx(t, tLong, 10, 1e-6, "long flow speeds up after short finishes")
}

func TestMaxMinUnevenBottlenecks(t *testing.T) {
	eng := event.NewEngine()
	// Node 0 uplink 30; node 1 downlink 100; node 2 downlink 12.
	fb := NewFabric(eng, 3, cfg(30, 100, 1000))
	// Flow A: 0→1 (up0, down1). Flow B: 0→2 (up0, down2). Shrinking down2
	// from 100 gives the two flows different bottlenecks.
	fb.down[2].capacity = 12
	var ta, tb float64 = -1, -1
	fb.Transfer(0, 1, 180, func() { ta = eng.Now() })
	fb.Transfer(0, 2, 120, func() { tb = eng.Now() })
	eng.Run()
	// Max-min: down2 share = 12 < up0 share = 15 → B frozen at 12,
	// A then gets up0 residual 18.
	// B: 120/12 = 10s. A: 180/18 = 10s.
	approx(t, ta, 10, 1e-6, "flow A rate 18")
	approx(t, tb, 10, 1e-6, "flow B rate 12")
}

func TestCancelStopsFlow(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 10))
	fired := false
	fl := fb.LocalRead(0, 100, func() { fired = true })
	eng.Schedule(1, func() { fb.Cancel(fl) })
	eng.Run()
	if fired {
		t.Fatal("cancelled flow invoked done callback")
	}
	if len(fb.flows) != 0 {
		t.Fatalf("%d active flows after cancel", len(fb.flows))
	}
}

func TestCancelRestoresBandwidth(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 40))
	var tKeep float64 = -1
	fl := fb.LocalRead(0, 400, nil)
	fb.LocalRead(0, 400, func() { tKeep = eng.Now() })
	eng.Schedule(5, func() { fb.Cancel(fl) })
	eng.Run()
	// 0–5s at 20 B/s → 100B done; remaining 300B at 40 B/s → 7.5s more.
	approx(t, tKeep, 12.5, 1e-6, "survivor speeds up after cancel")
}

func TestZeroByteFlow(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, cfg(1, 1, 1))
	fired := false
	fb.LocalRead(0, 0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte flow never completed")
	}
	if eng.Now() != 0 {
		t.Fatalf("zero-byte flow advanced the clock to %v", eng.Now())
	}
}

func TestZeroByteFlowCancel(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, cfg(1, 1, 1))
	fired := false
	fl := fb.LocalRead(0, 0, func() { fired = true })
	fb.Cancel(fl)
	eng.Run()
	if fired {
		t.Fatal("cancelled zero-byte flow fired")
	}
}

func TestManyFlowsConservation(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 10, cfg(100, 400, 300))
	rng := xrand.New(99)
	total := 0.0
	count := 0
	for i := 0; i < 200; i++ {
		src := rng.Intn(10)
		dst := rng.Intn(10)
		size := rng.Range(10, 1000)
		total += size
		delay := rng.Range(0, 50)
		eng.Schedule(delay, func() {
			fb.Transfer(src, dst, size, func() { count++ })
		})
	}
	eng.Run()
	if count != 200 {
		t.Fatalf("completed %d flows, want 200", count)
	}
	if len(fb.flows) != 0 {
		t.Fatalf("%d active flows at end", len(fb.flows))
	}
}

func TestLinodeConfigSanity(t *testing.T) {
	c := LinodeConfig()
	if c.UplinkBps >= c.DownlinkBps {
		t.Fatal("paper testbed has asymmetric links: uplink < downlink")
	}
	if c.DiskBps <= c.UplinkBps {
		t.Fatal("local disk must out-run the uplink or locality would not matter")
	}
}

// Property: with random flows over random resources, rates never exceed any
// resource capacity and no flow is starved while capacity remains.
func TestQuickCapacityRespected(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		eng := event.NewEngine()
		n := rng.IntRange(2, 8)
		fb := NewFabric(eng, n, cfg(rng.Range(10, 100), rng.Range(10, 100), rng.Range(10, 100)))
		k := rng.IntRange(1, 30)
		for i := 0; i < k; i++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			fb.Transfer(src, dst, rng.Range(1, 100), nil)
		}
		// Inspect allocation right after setup.
		for i := 0; i < n; i++ {
			for _, r := range []*Resource{fb.up[i], fb.down[i], fb.disk[i]} {
				sum := 0.0
				for _, fl := range r.flows {
					if fl.rate < -1e-9 {
						return false // unfrozen flow escaped
					}
					sum += fl.rate
				}
				if sum > r.capacity*(1+1e-9) {
					return false
				}
			}
		}
		// Every flow must have a strictly positive rate.
		for _, fl := range fb.flows {
			if fl.rate <= 0 {
				return false
			}
		}
		eng.Run()
		return len(fb.flows) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a flow alone on its resources gets the full bottleneck rate.
func TestQuickLoneFlowFullRate(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		eng := event.NewEngine()
		up := rng.Range(10, 100)
		down := rng.Range(10, 100)
		disk := rng.Range(10, 100)
		fb := NewFabric(eng, 2, cfg(up, down, disk))
		bytes := rng.Range(100, 1000)
		var finish float64 = -1
		fb.RemoteReadCapTier(0, 1, bytes, 0, TierDisk, func() { finish = eng.Now() })
		eng.Run()
		want := bytes / math.Min(disk, math.Min(up, down))
		return math.Abs(finish-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReallocate200Flows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := event.NewEngine()
		fb := NewFabric(eng, 100, LinodeConfig())
		rng := xrand.New(7)
		for j := 0; j < 200; j++ {
			fb.Transfer(rng.Intn(100), rng.Intn(100), 128e6, nil)
		}
		eng.Run()
	}
}

// TestSetDiskSpeed: a node's disk speed scales its nominal bandwidth before
// the fabric runs, and setting it once a flow has started panics, since
// such a change would bypass the warm start's change log.
func TestSetDiskSpeed(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 40))
	fb.SetDiskSpeed(1, 0.5)
	if got := fb.disk[1].Capacity(); got != 20 {
		t.Fatalf("disk capacity %v after speed 0.5, want 20", got)
	}
	var finish float64 = -1
	fb.LocalRead(1, 100, func() { finish = eng.Now() })
	defer func() {
		if recover() == nil {
			t.Fatal("SetDiskSpeed after a flow started did not panic")
		}
		eng.Run()
		approx(t, finish, 5, 1e-6, "local read on the slowed disk")
	}()
	fb.SetDiskSpeed(0, 2)
}

// TestSubTickRemainderFinishes starts memory-tier reads a million simulated
// seconds in, where one tick of the clock drains more bytes than the
// completion tolerance. A flow left with a remainder too small to move the
// clock must finish, not re-arm its timer at the same instant forever.
func TestSubTickRemainderFinishes(t *testing.T) {
	const reads = 16
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, cfg(100, 100, 50))
	done := 0
	for i := 0; i < reads; i++ {
		eng.At(1e6+float64(i), func() {
			fb.LocalReadTier(0, float64(1000+i), TierMemory, func() { done++ })
		})
	}
	for steps := 0; eng.Step(); steps++ {
		if steps > 10*reads {
			t.Fatalf("%d of %d reads finished after %d events; a timer keeps firing at %v",
				done, reads, steps, eng.Now())
		}
	}
	if done != reads {
		t.Fatalf("%d of %d reads finished", done, reads)
	}
}
