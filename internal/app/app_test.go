package app

import (
	"testing"

	"repro/internal/hdfs"
	"repro/internal/xrand"
)

func blocks(t *testing.T, n int) []*hdfs.Block {
	t.Helper()
	nn := hdfs.NewNameNode(10, xrand.New(1), hdfs.WithBlockSize(100))
	f, err := nn.Create("in", int64(n*100))
	if err != nil {
		t.Fatal(err)
	}
	return f.Blocks
}

func buildSortJob(t *testing.T, nMaps, nReduces int) *Job {
	b := NewJob(1, "Sort", "in")
	in := b.AddInputStage("map", blocks(t, nMaps), TaskSpec{ComputeSec: 1, OutputBytes: 50})
	b.AddShuffleStage("reduce", []*Stage{in}, nReduces, 100, TaskSpec{ComputeSec: 2})
	return b.Build()
}

func TestJobConstruction(t *testing.T) {
	j := buildSortJob(t, 4, 2)
	if len(j.Stages) != 2 {
		t.Fatalf("stages = %d", len(j.Stages))
	}
	in := j.InputStage()
	if in == nil || !in.Input() || len(in.Tasks) != 4 {
		t.Fatalf("input stage wrong: %+v", in)
	}
	for i, task := range in.Tasks {
		if !task.IsInput() || task.Index != i || task.InputBytes != 100 {
			t.Fatalf("input task %d malformed: %+v", i, task)
		}
	}
	red := j.Stages[1]
	if red.Input() || len(red.Tasks) != 2 {
		t.Fatalf("reduce stage wrong")
	}
	for _, task := range red.Tasks {
		if task.IsInput() {
			t.Fatal("reduce task claims to be input")
		}
	}
}

func TestStageReadiness(t *testing.T) {
	j := buildSortJob(t, 2, 1)
	in, red := j.Stages[0], j.Stages[1]
	if !in.Ready() {
		t.Fatal("input stage not ready")
	}
	if red.Ready() {
		t.Fatal("reduce ready before map complete")
	}
	a := NewApplication(0, "test")
	a.AddJob(j, 1.0)
	for _, task := range in.Tasks {
		if task.State != TaskReady || task.ReadyAt != 1.0 {
			t.Fatalf("input task not readied on submit: %+v", task)
		}
	}
	for _, task := range red.Tasks {
		if task.State != TaskWaiting {
			t.Fatal("reduce task ready before parents done")
		}
	}
	// Finish the map tasks.
	sd, jd := j.MarkTaskDone(in.Tasks[0], 2.0)
	if sd || jd {
		t.Fatal("stage/job done after 1 of 2 tasks")
	}
	sd, jd = j.MarkTaskDone(in.Tasks[1], 3.0)
	if !sd || jd {
		t.Fatalf("map stage completion: stageDone=%v jobDone=%v", sd, jd)
	}
	if in.FinishedAt() != 3.0 {
		t.Fatalf("stage finish time = %v", in.FinishedAt())
	}
	if !red.Ready() {
		t.Fatal("reduce not ready after map complete")
	}
	sd, jd = j.MarkTaskDone(red.Tasks[0], 5.0)
	if !sd || !jd {
		t.Fatal("job not done after last task")
	}
	if j.FinishedAt != 5.0 || !j.Complete() {
		t.Fatalf("job finish = %v", j.FinishedAt)
	}
}

func TestMarkTaskDoneIdempotent(t *testing.T) {
	j := buildSortJob(t, 1, 1)
	in := j.Stages[0]
	j.MarkTaskDone(in.Tasks[0], 1)
	sd, jd := j.MarkTaskDone(in.Tasks[0], 2)
	if sd || jd {
		t.Fatal("double MarkTaskDone reported progress")
	}
	if in.Done() != 1 {
		t.Fatalf("done count = %d", in.Done())
	}
}

func TestReadyStages(t *testing.T) {
	j := buildSortJob(t, 1, 1)
	rs := j.ReadyStages()
	if len(rs) != 1 || !rs[0].Input() {
		t.Fatalf("ready stages = %v", rs)
	}
	j.MarkTaskDone(j.Stages[0].Tasks[0], 1)
	rs = j.ReadyStages()
	if len(rs) != 1 || rs[0].Input() {
		t.Fatalf("ready stages after map = %v", rs)
	}
}

func TestMultiParentDAG(t *testing.T) {
	b := NewJob(2, "PageRank", "in")
	in := b.AddInputStage("load", blocks(t, 2), TaskSpec{})
	it1 := b.AddShuffleStage("iter1", []*Stage{in}, 2, 10, TaskSpec{})
	it2 := b.AddShuffleStage("iter2", []*Stage{in, it1}, 2, 10, TaskSpec{})
	j := b.Build()
	if it2.Ready() {
		t.Fatal("stage with incomplete parents ready")
	}
	for _, task := range in.Tasks {
		j.MarkTaskDone(task, 1)
	}
	if it2.Ready() {
		t.Fatal("iter2 ready with iter1 incomplete")
	}
	for _, task := range it1.Tasks {
		j.MarkTaskDone(task, 2)
	}
	if !it2.Ready() {
		t.Fatal("iter2 not ready after both parents")
	}
}

func TestApplicationHistory(t *testing.T) {
	a := NewApplication(3, "wc")
	a.RecordJobLocality(4, 4)
	a.RecordJobLocality(2, 4)
	if a.LocalJobs != 1 || a.TotalJobs != 2 {
		t.Fatalf("job history = %d/%d", a.LocalJobs, a.TotalJobs)
	}
	if a.LocalTasks != 6 || a.TotalTasks != 8 {
		t.Fatalf("task history = %d/%d", a.LocalTasks, a.TotalTasks)
	}
}

func TestDoubleSubmitPanics(t *testing.T) {
	a := NewApplication(0, "x")
	j := buildSortJob(t, 1, 1)
	a.AddJob(j, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double submit did not panic")
		}
	}()
	a.AddJob(j, 1)
}

func TestEmptyJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty job did not panic")
		}
	}()
	NewJob(1, "x", "f").Build()
}

func TestTaskString(t *testing.T) {
	a := NewApplication(7, "x")
	j := buildSortJob(t, 1, 1)
	a.AddJob(j, 0)
	got := j.Stages[0].Tasks[0].String()
	want := "app7/job1/stage0/task0"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
