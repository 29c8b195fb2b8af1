package event

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("executed %d events, want 100", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events executed out of order at %d: %v", i, got[i])
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(1.5, func() {
		if e.Now() != 1.5 {
			t.Errorf("Now() = %v inside event, want 1.5", e.Now())
		}
		e.Schedule(2.5, func() {
			if e.Now() != 4.0 {
				t.Errorf("Now() = %v inside nested event, want 4.0", e.Now())
			}
		})
	})
	e.Run()
	if e.Now() != 4.0 {
		t.Errorf("final Now() = %v, want 4.0", e.Now())
	}
	if e.Executed() != 2 {
		t.Errorf("Executed() = %d, want 2", e.Executed())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(1, func() { fired = true })
	e.Cancel(tm)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !tm.Cancelled() {
		t.Fatal("timer not marked cancelled")
	}
	// Double cancel and nil cancel must be safe.
	e.Cancel(tm)
	e.Cancel(nil)
}

func TestCancelFromEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var tm *Timer
	e.Schedule(1, func() { e.Cancel(tm) })
	tm = e.Schedule(2, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled from an earlier event still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) executed %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v after RunUntil(3), want 3", e.Now())
	}
	e.RunUntil(10)
	if len(got) != 5 {
		t.Fatalf("after RunUntil(10) executed %d events, want 5", len(got))
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after RunUntil(10), want 10", e.Now())
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(3, func() { fired = true })
	e.RunUntil(3)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("executed %d events before Stop, want 5", count)
	}
	// Run may be resumed.
	e.Run()
	if count != 10 {
		t.Fatalf("executed %d events total, want 10", count)
	}
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestNaNDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN delay did not panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", e.Pending())
	}
	e.Step()
	if e.Pending() != 6 {
		t.Fatalf("Pending() = %d after Step, want 6", e.Pending())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine's final clock equals the max delay.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fireTimes []float64
		for _, r := range raw {
			d := float64(r) / 16.0
			e.Schedule(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fireTimes) {
			return false
		}
		maxd := 0.0
		for _, r := range raw {
			if d := float64(r) / 16.0; d > maxd {
				maxd = d
			}
		}
		return e.Now() == maxd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of timers fires exactly the others.
func TestQuickCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n%64) + 1
		fired := make([]bool, total)
		timers := make([]*Timer, total)
		for i := 0; i < total; i++ {
			i := i
			timers[i] = e.Schedule(rng.Float64()*100, func() { fired[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(timers[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < total; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMassCancelCompaction pins the lazy-cancellation contract: cancelling
// is O(1) (the handle is only marked), dead entries are counted by Pending
// until compaction, and a mass cancel triggers a one-pass compaction that
// leaves only live timers — which then fire in exactly schedule order.
func TestMassCancelCompaction(t *testing.T) {
	e := NewEngine()
	const total = 1000
	timers := make([]*Timer, total)
	var got []int
	for i := 0; i < total; i++ {
		i := i
		timers[i] = e.Schedule(float64(i%50), func() { got = append(got, i) })
	}
	for i := 0; i < total; i++ {
		if i%10 != 0 {
			e.Cancel(timers[i])
		}
	}
	// 900 of 1000 cancelled: the >half+floor threshold fires repeatedly, so
	// at most the 100 live timers plus a below-threshold tail of dead ones
	// may remain queued (each compaction resets the dead counter).
	if e.Pending() > 100+2*compactFloor {
		t.Fatalf("Pending() = %d after mass cancel, want ≤ %d (compacted)", e.Pending(), 100+2*compactFloor)
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	for k, v := range got {
		if v%10 != 0 {
			t.Fatalf("cancelled timer %d fired", v)
		}
		_ = k
	}
	if !sort.IntsAreSorted(appendTimes(nil, got)) {
		t.Fatal("post-compaction firing order not sorted by (time, seq)")
	}
}

// appendTimes maps the fired indices back to (time, seq)-comparable keys:
// index i fired at time i%50 with tie-stamp i, so i%50*total+i is the total
// order the engine must respect.
func appendTimes(dst []int, fired []int) []int {
	for _, i := range fired {
		dst = append(dst, (i%50)*100000+i)
	}
	return dst
}

// TestCancelledPendingLazy pins that below the compaction threshold,
// cancelled events stay queued (Pending counts them) and are discarded at
// the root without counting as a step.
func TestCancelledPendingLazy(t *testing.T) {
	e := NewEngine()
	var fired int
	t1 := e.Schedule(1, func() { fired++ })
	e.Schedule(2, func() { fired++ })
	e.Cancel(t1)
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2 (lazy cancel keeps the entry)", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step() = false with a live event queued")
	}
	if fired != 1 || e.Now() != 2 {
		t.Fatalf("fired=%d now=%v, want the live event at t=2", fired, e.Now())
	}
	if e.Executed() != 1 {
		t.Fatalf("Executed() = %d, want 1 (discarded cancel must not count)", e.Executed())
	}
}

// TestReservedStampOrdersAtReservation: an event scheduled with a stamp
// reserved earlier fires before same-instant events scheduled after the
// reservation, as if it had been scheduled then.
func TestReservedStampOrdersAtReservation(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, func() { order = append(order, "before") })
	s := e.Reserve()
	e.Schedule(5, func() { order = append(order, "after") })
	e.AtStamp(5, s, func() { order = append(order, "reserved") })
	e.Run()
	if got := fmt.Sprint(order); got != "[before reserved after]" {
		t.Fatalf("firing order %s, want [before reserved after]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AtStamp accepted a stamp that was never reserved")
		}
	}()
	e.AtStamp(6, Stamp(1<<40), func() {})
}

// BenchmarkTimerChurn measures the netsim/chaos pattern the 4-ary heap and
// lazy cancellation target: schedule a timeout, cancel it, reschedule.
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		tm := e.Schedule(100, func() {})
		e.Cancel(tm)
		if i%64 == 0 {
			e.Schedule(0, func() {})
			e.Step()
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%100), func() {})
		}
		e.Run()
	}
}
