// Package app models data-parallel applications the way the paper does
// (§III-A): an application A_i submits jobs J_ij; each job is a DAG of
// stages; the input stage has one task per HDFS block (T_ijk reads block
// d_ijk); downstream stages read shuffled intermediate data from their
// parent stages.
package app

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hdfs"
)

// TaskState tracks a task through its lifecycle.
type TaskState int

const (
	// TaskWaiting means the task's stage is not ready yet.
	TaskWaiting TaskState = iota
	// TaskReady means the task may be launched.
	TaskReady
	// TaskRunning means the task occupies an executor.
	TaskRunning
	// TaskDone means the task finished.
	TaskDone
)

func (s TaskState) String() string {
	switch s {
	case TaskWaiting:
		return "waiting"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	}
	return "unknown"
}

// Task is one unit of parallel work.
type Task struct {
	Job   *Job
	Stage *Stage
	Index int // position within the stage

	// Block is the HDFS block an input task reads; -1 for non-input tasks.
	Block hdfs.BlockID
	// InputBytes is the volume read from HDFS (input tasks) or fetched via
	// shuffle (downstream tasks).
	InputBytes int64
	// ComputeSec is the pure computation time once input is available.
	ComputeSec float64
	// OutputBytes is the intermediate data produced for the next stage.
	OutputBytes int64

	State TaskState

	// Runtime bookkeeping (owned by the driver).
	ReadyAt    float64
	LaunchedAt float64
	FinishedAt float64
	RanOnNode  int
	RanLocal   bool
	Attempts   int
}

// IsInput reports whether the task reads an HDFS block directly.
func (t *Task) IsInput() bool { return t.Block >= 0 }

// String identifies the task for logs and errors.
func (t *Task) String() string {
	return fmt.Sprintf("app%d/job%d/stage%d/task%d", t.Job.App.ID, t.Job.ID, t.Stage.ID, t.Index)
}

// Stage is a set of homogeneous tasks with shared dependencies.
type Stage struct {
	ID      int
	Job     *Job
	Name    string
	Tasks   []*Task
	Parents []*Stage

	done     int
	ready    bool
	finished float64
}

// Input reports whether this is the job's input (map) stage.
func (s *Stage) Input() bool { return len(s.Parents) == 0 }

// Complete reports whether every task in the stage has finished.
func (s *Stage) Complete() bool { return s.done == len(s.Tasks) }

// Done returns the number of finished tasks.
func (s *Stage) Done() int { return s.done }

// Ready reports whether all parent stages are complete (tasks may launch).
func (s *Stage) Ready() bool {
	for _, p := range s.Parents {
		if !p.Complete() {
			return false
		}
	}
	return true
}

// FinishedAt returns the time the stage's last task finished (0 if not yet).
func (s *Stage) FinishedAt() float64 { return s.finished }

// Job is a DAG of stages submitted by a user request.
type Job struct {
	ID        int
	App       *Application
	Workload  string
	InputFile string
	Stages    []*Stage

	SubmitAt   float64
	FinishedAt float64
	submitted  bool
}

// InputStage returns the job's HDFS-reading stage.
func (j *Job) InputStage() *Stage {
	for _, s := range j.Stages {
		if s.Input() {
			return s
		}
	}
	return nil
}

// Complete reports whether all stages are complete.
func (j *Job) Complete() bool {
	for _, s := range j.Stages {
		if !s.Complete() {
			return false
		}
	}
	return true
}

// InputTasks returns the tasks of the input stage.
func (j *Job) InputTasks() []*Task {
	in := j.InputStage()
	if in == nil {
		return nil
	}
	return in.Tasks
}

// ReadyStages returns stages whose parents are complete but which still have
// unfinished tasks.
func (j *Job) ReadyStages() []*Stage {
	var out []*Stage
	for _, s := range j.Stages {
		if !s.Complete() && s.Ready() {
			out = append(out, s)
		}
	}
	return out
}

// MarkTaskDone advances stage/job accounting and reports whether the task's
// stage and job completed as a result.
func (j *Job) MarkTaskDone(t *Task, now float64) (stageDone, jobDone bool) {
	if t.State == TaskDone {
		return false, false
	}
	t.State = TaskDone
	t.FinishedAt = now
	t.Stage.done++
	if t.Stage.Complete() {
		t.Stage.finished = now
		stageDone = true
	}
	if j.Complete() {
		j.FinishedAt = now
		jobDone = true
	}
	return stageDone, jobDone
}

// Application is a long-running framework instance that submits jobs.
type Application struct {
	ID   cluster.AppID
	Name string

	Jobs []*Job

	// Locality history over finished jobs, feeding Algorithm 1's fairness
	// metric.
	LocalJobs, TotalJobs   int
	LocalTasks, TotalTasks int
}

// NewApplication creates an application.
func NewApplication(id cluster.AppID, name string) *Application {
	return &Application{ID: id, Name: name}
}

// AddJob registers a submitted job and marks its input-stage tasks ready.
func (a *Application) AddJob(j *Job, now float64) {
	if j.submitted {
		panic("app: job submitted twice")
	}
	j.submitted = true
	j.SubmitAt = now
	j.App = a
	a.Jobs = append(a.Jobs, j)
	for _, s := range j.Stages {
		if s.Ready() {
			for _, t := range s.Tasks {
				if t.State == TaskWaiting {
					t.State = TaskReady
					t.ReadyAt = now
				}
			}
		}
	}
}

// RecordJobLocality folds a finished job into the history counters.
func (a *Application) RecordJobLocality(local, total int) {
	a.TotalJobs++
	if local == total {
		a.LocalJobs++
	}
	a.LocalTasks += local
	a.TotalTasks += total
}

// StageBuilder constructs job DAGs.
type StageBuilder struct {
	job     *Job
	nextID  int
	nameIdx int
}

// NewJob begins building a job.
func NewJob(id int, workload, inputFile string) *StageBuilder {
	return &StageBuilder{job: &Job{ID: id, Workload: workload, InputFile: inputFile}}
}

// TaskSpec configures the homogeneous tasks of one stage.
type TaskSpec struct {
	ComputeSec  float64
	OutputBytes int64
}

// AddInputStage appends the HDFS-reading stage with one task per block.
func (b *StageBuilder) AddInputStage(name string, blocks []*hdfs.Block, spec TaskSpec) *Stage {
	s := &Stage{ID: b.nextID, Job: b.job, Name: name}
	b.nextID++
	for i, blk := range blocks {
		s.Tasks = append(s.Tasks, &Task{
			Job:         b.job,
			Stage:       s,
			Index:       i,
			Block:       blk.ID,
			InputBytes:  blk.Size,
			ComputeSec:  spec.ComputeSec,
			OutputBytes: spec.OutputBytes,
			RanOnNode:   -1,
		})
	}
	b.job.Stages = append(b.job.Stages, s)
	return s
}

// AddShuffleStage appends a stage of nTasks tasks, each fetching
// bytesPerTask of intermediate data from the parent stages.
func (b *StageBuilder) AddShuffleStage(name string, parents []*Stage, nTasks int, bytesPerTask int64, spec TaskSpec) *Stage {
	s := &Stage{ID: b.nextID, Job: b.job, Name: name, Parents: parents}
	b.nextID++
	for i := 0; i < nTasks; i++ {
		s.Tasks = append(s.Tasks, &Task{
			Job:         b.job,
			Stage:       s,
			Index:       i,
			Block:       -1,
			InputBytes:  bytesPerTask,
			ComputeSec:  spec.ComputeSec,
			OutputBytes: spec.OutputBytes,
			RanOnNode:   -1,
		})
	}
	b.job.Stages = append(b.job.Stages, s)
	return s
}

// Build finalizes and returns the job.
func (b *StageBuilder) Build() *Job {
	if len(b.job.Stages) == 0 {
		panic("app: job with no stages")
	}
	return b.job
}
