package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); got != 25 {
		t.Fatalf("p50 = %v, want 25 (interpolated)", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("percentile of empty not NaN")
	}
}

func TestJobRecordDerived(t *testing.T) {
	j := JobRecord{Submit: 5, Finish: 25, LocalInput: 3, TotalInput: 4}
	if j.CompletionSec() != 20 {
		t.Fatalf("completion = %v", j.CompletionSec())
	}
	if j.PctLocal() != 0.75 {
		t.Fatalf("pct = %v", j.PctLocal())
	}
	if j.Perfect() {
		t.Fatal("3/4 local reported perfect")
	}
	j.LocalInput = 4
	if !j.Perfect() {
		t.Fatal("4/4 local not perfect")
	}
	empty := JobRecord{}
	if empty.PctLocal() != 1 {
		t.Fatal("job with no input tasks should count as fully local")
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	c.AddJob(JobRecord{App: 0, Workload: "Sort", Submit: 0, Finish: 10, InputStageSec: 4, LocalInput: 2, TotalInput: 2})
	c.AddJob(JobRecord{App: 1, Workload: "Sort", Submit: 0, Finish: 30, InputStageSec: 8, LocalInput: 1, TotalInput: 2})
	c.AddTask(TaskRecord{App: 0, Input: true, Local: true, SchedulerDelay: 1})
	c.AddTask(TaskRecord{App: 0, Input: true, Local: false, SchedulerDelay: 3})
	c.AddTask(TaskRecord{App: 1, Input: false, SchedulerDelay: 2})

	if got := Summarize(c.JobCompletionTimes()).Mean; got != 20 {
		t.Fatalf("mean JCT = %v", got)
	}
	if got := Summarize(c.InputStageTimes()).Mean; got != 6 {
		t.Fatalf("mean input stage = %v", got)
	}
	if got := Summarize(c.LocalityPerJob()).Mean; got != 0.75 {
		t.Fatalf("mean locality = %v", got)
	}
	if got := c.PctLocalJobs(); got != 0.5 {
		t.Fatalf("pct local jobs = %v", got)
	}
	if got := c.PctLocalTasks(); got != 0.5 {
		t.Fatalf("pct local tasks = %v (only input tasks count)", got)
	}
	if got := Summarize(c.SchedulerDelays()).Mean; got != 2 {
		t.Fatalf("mean sched delay = %v", got)
	}
}

func TestPerAppSplit(t *testing.T) {
	c := NewCollector()
	c.AddJob(JobRecord{App: 0, LocalInput: 1, TotalInput: 1})
	c.AddJob(JobRecord{App: 1, LocalInput: 0, TotalInput: 1})
	per := c.PerApp()
	if len(per) != 2 {
		t.Fatalf("apps = %d", len(per))
	}
	if per[0].PctLocalJobs() != 1 || per[1].PctLocalJobs() != 0 {
		t.Fatalf("per-app locality wrong: %v %v", per[0].PctLocalJobs(), per[1].PctLocalJobs())
	}
	if c.MinAppLocality() != 0 {
		t.Fatalf("min app locality = %v", c.MinAppLocality())
	}
}

func TestPerWorkloadSplit(t *testing.T) {
	c := NewCollector()
	c.AddJob(JobRecord{Workload: "Sort", Submit: 0, Finish: 10})
	c.AddJob(JobRecord{Workload: "WordCount", Submit: 0, Finish: 20})
	per := c.PerWorkload()
	if Summarize(per["Sort"].JobCompletionTimes()).Mean != 10 {
		t.Fatal("per-workload split broken")
	}
}

func TestJainFairness(t *testing.T) {
	c := NewCollector()
	c.AddJob(JobRecord{App: 0, LocalInput: 1, TotalInput: 1})
	c.AddJob(JobRecord{App: 1, LocalInput: 1, TotalInput: 1})
	if f := c.JainFairness(); math.Abs(f-1) > 1e-12 {
		t.Fatalf("even locality Jain = %v, want 1", f)
	}
	c2 := NewCollector()
	c2.AddJob(JobRecord{App: 0, LocalInput: 1, TotalInput: 1})
	c2.AddJob(JobRecord{App: 1, LocalInput: 0, TotalInput: 1})
	if f := c2.JainFairness(); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("skewed locality Jain = %v, want 0.5", f)
	}
}

// Property: Summarize is order-invariant and bounds hold.
func TestQuickSummarize(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 7.0
		}
		s1 := Summarize(xs)
		shuffled := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(shuffled)))
		s2 := Summarize(shuffled)
		if math.Abs(s1.Mean-s2.Mean) > 1e-9 || s1.Min != s2.Min || s1.Max != s2.Max {
			return false
		}
		return s1.Min <= s1.Median && s1.Median <= s1.Max &&
			s1.Min <= s1.Mean && s1.Mean <= s1.Max && s1.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint8, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		sort.Float64s(xs)
		a := float64(aRaw) / 255
		b := float64(bRaw) / 255
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
