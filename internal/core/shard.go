package core

import "sync"

// This file implements the sharded round build (Options.Shards > 1): the
// expensive O(executors + tasks × replicas) index construction of an
// allocation round — executor-by-node indexes, locality postings, and
// availability counters — fans out to parallel workers over disjoint
// partitions, while the decision loop itself (Algorithms 1 and 2, amortized
// O(1) per grant) stays sequential. Determinism argument (DESIGN.md §14):
//
//   - Executors live in one global array in ascending executor-ID order,
//     shared read-only by every worker, so every pick-order contract
//     (lowest ID wins, app-reserved first) never sees shard boundaries.
//   - Each worker writes only its own partition: shard workers own their
//     shard's node/na arenas, job workers own disjoint job ranges of the
//     arenas, counter workers own disjoint task ranges. No locks, no
//     atomics; the fork-join WaitGroup publishes the writes.
//   - Within a shard, postings and executor lists are appended in the same
//     global (task order, executor ID) tie-stamp order the sequential
//     build produces, and the cross-shard merge (free-slot totals,
//     per-app satisfiability) happens sequentially in fixed shard order.
//
// The result is byte-identical to the one-shard build — and therefore to
// AllocateReference — for every shard count and every shard function; the
// differential battery in shard_test.go is the gate.

// shardOf maps a node ID to its build shard: Options.ShardFn when set
// (reduced modulo the shard count), else a jump consistent hash of the
// node ID.
//
//custody:noalloc
func (p *execPool) shardOf(node int) int {
	if p.nShards <= 1 {
		return 0
	}
	if p.shardFn != nil {
		s := p.shardFn(node) % p.nShards //custody:ignore noalloc dynamic shard-function dispatch; the contract requires ShardFn to be pure and the in-tree rack map is allocation-free
		if s < 0 {
			s += p.nShards
		}
		return s
	}
	return jumpHash(uint64(int64(node)), p.nShards)
}

// shardFor routes a node to its owning shard's index structures.
//
//custody:noalloc
func (p *execPool) shardFor(node int) *poolShard {
	if p.nShards <= 1 {
		return &p.shards[0]
	}
	return &p.shards[p.shardOf(node)]
}

// jumpHash is Lamping & Veach's jump consistent hash: O(ln buckets), no
// state, and only ~1/buckets of keys move when the bucket count changes —
// so growing the shard count relocates few nodes between shards.
//
//custody:noalloc
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// chunkRange splits n items into `workers` contiguous ranges and returns
// the w-th as [lo, hi).
func chunkRange(n, workers, w int) (lo, hi int) {
	return n * w / workers, n * (w + 1) / workers
}

// buildShardsParallel fans the per-shard executor-index builds out to one
// goroutine per shard and joins them before anything reads the pool.
//
//custody:workerpool per-shard index builds write disjoint shard arenas; joined below
func (p *execPool) buildShardsParallel() {
	var wg sync.WaitGroup
	for s := 0; s < p.nShards; s++ {
		wg.Add(1)
		go p.buildShardWorker(&wg, s)
	}
	wg.Wait()
}

func (p *execPool) buildShardWorker(wg *sync.WaitGroup, s int) {
	defer wg.Done()
	p.buildShard(s)
}

// shardJobMeta locates one job's arena slices for the parallel fill
// workers: the owning app's arena index, the job's index within the app,
// and the job's task-arena offset. Computed by the sequential pre-pass.
type shardJobMeta struct {
	app int32
	k   int32
	tb  int32
}

// buildAppsSharded is the parallel counterpart of buildApps' sequential
// loop. Four steps:
//
//  1. a sequential pre-pass initializes per-app state and the arena
//     offsets the workers partition on (O(apps + jobs + tasks));
//  2. job workers fill the job/task arenas over disjoint job ranges;
//  3. occurrence-resolve workers look up each replica occurrence's
//     (shard, node index) exactly once over disjoint task ranges — total
//     work flat in the shard count — computing per-task availability as a
//     byproduct;
//  4. per-shard posting walks scan the resolved occurrences in global
//     order and append only their own shard's (a cheap integer compare per
//     occurrence, no hashing), then the satisfiability counters merge
//     sequentially.
//
//custody:workerpool arena fills, occurrence resolution, and posting walks write disjoint partitions; joined below
func (s *Session) buildAppsSharded(apps []AppDemand, nJobs, nTasks int) {
	st := &s.st
	p := st.pool

	s.jobMeta = grow(s.jobMeta, nJobs)
	s.occOff = grow(s.occOff, nTasks+1)
	jb, tb, occ := 0, 0, int32(0)
	for i := range apps {
		d := apps[i]
		a := &s.appArena[i]
		a.reset(d, i)
		a.jobs = s.jobArena[jb : jb+len(d.Jobs)]
		denTasks := d.TotalTasks
		for k := range d.Jobs {
			tasks := d.Jobs[k].Tasks
			nt := len(tasks)
			s.jobMeta[jb] = shardJobMeta{app: int32(i), k: int32(k), tb: int32(tb)}
			jb++
			tb += nt
			denTasks += nt
			a.wantSum += nt
			for x := range tasks {
				s.occOff[tb-nt+x] = occ
				occ += int32(len(tasks[x].Nodes))
			}
		}
		a.denTasks = denTasks
		st.apps = append(st.apps, a)
		st.heap = append(st.heap, a)
	}
	s.occOff[nTasks] = occ
	s.occ = grow(s.occ, int(occ))

	nw := p.nShards
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo, hi := chunkRange(nJobs, nw, w)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go s.fillJobsWorker(&wg, apps, lo, hi)
	}
	wg.Wait()

	for w := 0; w < nw; w++ {
		lo, hi := chunkRange(nTasks, nw, w)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go s.resolveOccWorker(&wg, lo, hi)
	}
	wg.Wait()

	for sIdx := 0; sIdx < p.nShards; sIdx++ {
		wg.Add(1)
		go s.postShardWorker(&wg, sIdx, nTasks)
	}
	wg.Wait()

	// Sequential merge: roll per-task availability up into per-app
	// satisfiability, exactly the sum the one-shard build accumulates as
	// it posts.
	for i := 0; i < nTasks; i++ {
		t := &s.taskArena[i]
		if t.unresAvail > 0 {
			t.owner.satUnres++
			t.job.satUnres++
		}
	}
}

// fillJobsWorker initializes the job/task arena entries for jobs [lo, hi).
// Writes stay inside the range's slice of the arenas; reads (the demand
// snapshot, the pre-initialized appState entries) are frozen for the phase.
func (s *Session) fillJobsWorker(wg *sync.WaitGroup, apps []AppDemand, lo, hi int) {
	defer wg.Done()
	for ji := lo; ji < hi; ji++ {
		m := s.jobMeta[ji]
		a := &s.appArena[m.app]
		jd := apps[m.app].Jobs[m.k]
		j := &s.jobArena[ji]
		*j = jobState{d: jd, remaining: len(jd.Tasks), tasks: s.taskArena[m.tb : int(m.tb)+len(jd.Tasks)]}
		for x := range jd.Tasks {
			j.tasks[x] = taskState{d: &jd.Tasks[x], owner: a, job: j}
		}
	}
}

// resolveOccWorker resolves each replica occurrence of tasks [lo, hi) to a
// packed (shard << 32 | node index) — or -1 when the node has no executors
// — and counts the hits as the task's unreserved availability, duplicates
// included: the same accounting post() does inline. Shard membership needs
// no second hash downstream: a node with executors lives in exactly one
// shard's byNode index, so one lookup answers "where?" once and for all.
// Index lookups across all shards are read-only; writes stay inside the
// worker's own task range of the occ and task arenas.
func (s *Session) resolveOccWorker(wg *sync.WaitGroup, lo, hi int) {
	defer wg.Done()
	p := s.st.pool
	for i := lo; i < hi; i++ {
		t := &s.taskArena[i]
		off := s.occOff[i]
		avail := int32(0)
		for r, n := range t.d.Nodes {
			if !p.mayHold(n) {
				s.occ[int(off)+r] = -1
				continue
			}
			sIdx := p.shardOf(n)
			if ni, ok := p.shards[sIdx].byNode[n]; ok {
				s.occ[int(off)+r] = int64(sIdx)<<32 | int64(ni)
				avail++
			} else {
				s.occ[int(off)+r] = -1
			}
		}
		t.unresAvail = avail
	}
}

// postShardWorker is one shard's posting walk: it scans the resolved
// occurrences in global task order and registers the ones landing on its
// own shard's nodes, so each per-node (and per node-app) posting list
// comes out in exactly the order the sequential build's post() produces.
// The scan is an integer compare per occurrence — the expensive lookups
// already happened, once, in resolveOccWorker. It writes only its shard's
// arenas and reads only phase-frozen state.
func (s *Session) postShardWorker(wg *sync.WaitGroup, sIdx, nTasks int) {
	defer wg.Done()
	p := s.st.pool
	sh := &p.shards[sIdx]
	want := int64(sIdx) << 32
	for i := 0; i < nTasks; i++ {
		t := &s.taskArena[i]
		off, end := s.occOff[i], s.occOff[i+1]
		for _, pk := range s.occ[off:end] {
			if pk < 0 || pk&^0xffffffff != want {
				continue
			}
			ni := int32(pk)
			ns := &sh.nodes[ni]
			ns.posts = append(ns.posts, t)
			nai := sh.nodeApp(ni, t.owner.d.App)
			sh.na[nai].posts = append(sh.na[nai].posts, t)
		}
	}
}
