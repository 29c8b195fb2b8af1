package core

import (
	"fmt"
	"testing"

	"repro/internal/hdfs"
)

// FuzzAllocateEquivalence is the gate on the incremental fast path: it
// decodes arbitrary bytes into an allocation instance and requires Allocate
// to produce a byte-identical Plan to AllocateReference (the pre-fast-path
// implementation frozen in reference.go) — cold, and across three
// consecutive rounds through one warm Session with the demand/pool state
// advanced between rounds the way the manager would. The seed corpus covers
// the Fig. 7 grid shapes (25/50/100 nodes, two executors per node, two
// apps). Run with `go test -fuzz=FuzzAllocateEquivalence` for continuous
// fuzzing; seeds run under plain `go test`.
func FuzzAllocateEquivalence(f *testing.F) {
	f.Add(fig7Seed(25, 2, 2, 4, 4))
	f.Add(fig7Seed(50, 2, 2, 4, 4))
	f.Add(fig7Seed(100, 2, 2, 6, 4))
	f.Add(fig7Seed(10, 3, 3, 2, 5))
	f.Add([]byte{3, 2, 2, 1, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{8, 4, 1, 3, 3, 0, 0, 0, 0, 7, 7, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		apps0, idle0 := decodeDiffInstance(data)
		for oi, opts := range equivOptSets {
			apps, idle := apps0, idle0
			sess := NewSession()
			for round := 0; round < 3; round++ {
				want := AllocateReference(apps, idle, opts)
				got := sess.Allocate(apps, idle, opts)
				ws, gs := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", got)
				if ws != gs {
					t.Fatalf("opts[%d] round %d: plans diverge\nreference: %s\nfast path: %s", oi, round, ws, gs)
				}
				apps, idle = advanceRound(apps, idle, want)
			}
		}
	})
}

// equivOptSets are the option sets the equivalence batteries run every
// instance under: the paper's defaults, no fill phase, and FairnessIntra.
var equivOptSets = []Options{DefaultOptions(), {FillToBudget: false}, {FillToBudget: true, Intra: FairnessIntra{}}}

// decodeDiffInstance maps fuzz bytes onto an allocation instance with unique
// app, job, and executor IDs (the documented contract of Allocate).
func decodeDiffInstance(data []byte) ([]AppDemand, []ExecInfo) {
	next := func(def, mod byte) int {
		if len(data) == 0 {
			return int(def)
		}
		v := data[0]
		data = data[1:]
		if mod == 0 {
			return int(v)
		}
		return int(v % mod)
	}
	nodes := next(4, 64) + 1
	nExec := next(6, 0)
	var idle []ExecInfo
	for i := 0; i < nExec; i++ {
		idle = append(idle, ExecInfo{ID: i, Node: next(0, byte(nodes)), Slots: next(1, 4) + 1})
	}
	nApps := next(1, 5) + 1
	var apps []AppDemand
	block := 0
	for a := 0; a < nApps; a++ {
		ad := AppDemand{
			App:        a,
			Budget:     next(2, byte(nExec%250+2)),
			Held:       next(0, 3),
			ExtraTasks: next(0, 4),
			LocalJobs:  next(0, 4),
			TotalJobs:  next(0, 6),
			LocalTasks: next(0, 8),
			TotalTasks: next(0, 16),
		}
		nJobs := next(1, 4)
		for j := 0; j < nJobs; j++ {
			jd := JobDemand{Job: j}
			nTasks := next(1, 6) + 1
			for k := 0; k < nTasks; k++ {
				nReps := next(1, 3) + 1
				var reps []int
				for r := 0; r < nReps; r++ {
					reps = append(reps, next(0, byte(nodes)))
				}
				jd.Tasks = append(jd.Tasks, TaskDemand{Task: k, Block: hdfs.BlockID(block), Nodes: reps})
				block++
			}
			ad.Jobs = append(ad.Jobs, jd)
		}
		apps = append(apps, ad)
	}
	return apps, idle
}

// fig7Seed encodes a Fig. 7-shaped grid instance as fuzz input. It mirrors
// decodeDiffInstance call-for-call: each emitted byte is consumed by exactly
// one next() and is chosen below the modulus so the decoded value is exact.
func fig7Seed(nodes, execsPerNode, apps, jobsPerApp, tasksPerJob int) []byte {
	var b []byte
	emit := func(v int) { b = append(b, byte(v)) }
	emit(nodes - 1) // nodes (mod 64)
	nExec := nodes * execsPerNode
	emit(nExec) // nExec (raw)
	for i := 0; i < nExec; i++ {
		emit(i % nodes) // exec node
		emit(1)         // slots-1 → 2 slots
	}
	emit(apps - 1) // nApps (mod 5)
	budget := nExec / apps
	for a := 0; a < apps; a++ {
		emit(budget % (nExec%250 + 2)) // Budget
		emit(0)                        // Held
		emit(2)                        // ExtraTasks
		emit(0)                        // LocalJobs
		emit(0)                        // TotalJobs
		emit(0)                        // LocalTasks
		emit(0)                        // TotalTasks
		emit(jobsPerApp % 4)           // nJobs
		for j := 0; j < jobsPerApp%4; j++ {
			emit(tasksPerJob%6 - 1) // nTasks-1
			for k := 0; k < tasksPerJob%6; k++ {
				emit(2) // 3 replicas
				for r := 0; r < 3; r++ {
					emit((a*31 + j*7 + k*3 + r) % nodes)
				}
			}
		}
	}
	return b
}

// advanceRound plays one manager round-trip: granted executors leave the
// idle pool (and count against Held), satisfied tasks leave the demand, and
// this round's jobs/tasks roll into the locality history.
func advanceRound(apps []AppDemand, idle []ExecInfo, plan Plan) ([]AppDemand, []ExecInfo) {
	granted := map[int]bool{}
	claimed := map[int]int{}
	localSat := map[[3]int]bool{}
	for _, as := range plan.Assignments {
		if !granted[as.Exec] {
			granted[as.Exec] = true
			claimed[as.App]++
		}
		if as.Local {
			localSat[[3]int{as.App, as.Job, as.Task}] = true
		}
	}
	var nextIdle []ExecInfo
	for _, e := range idle {
		if !granted[e.ID] {
			nextIdle = append(nextIdle, e)
		}
	}
	var nextApps []AppDemand
	for _, ad := range apps {
		nd := ad
		nd.Held += claimed[ad.App]
		nd.TotalJobs += len(ad.Jobs)
		nd.Jobs = nil
		for _, jd := range ad.Jobs {
			nd.TotalTasks += len(jd.Tasks)
			var rest []TaskDemand
			for _, td := range jd.Tasks {
				if localSat[[3]int{ad.App, jd.Job, td.Task}] {
					nd.LocalTasks++
				} else {
					rest = append(rest, td)
				}
			}
			if len(rest) == 0 {
				nd.LocalJobs++
			} else {
				nd.Jobs = append(nd.Jobs, JobDemand{Job: jd.Job, Tasks: rest})
			}
		}
		nextApps = append(nextApps, nd)
	}
	return nextApps, nextIdle
}
