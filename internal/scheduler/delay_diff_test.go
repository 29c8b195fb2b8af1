package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/xrand"
)

// The differential battery: one operation sequence drives Delay and the
// frozen delayReference side by side over one real NameNode. Submissions,
// offers, deadline queries, hints, replica commits, node death and revival,
// flakes and stale-metadata windows interleave; after every operation both
// schedulers must have picked the same task (or none), report the same
// deadline and hold the same queue.

// opStream feeds an operation sequence from a byte string; past its end it
// reads zeros.
type opStream struct {
	data []byte
	i    int
}

func (b *opStream) next() int {
	if b.i >= len(b.data) {
		return 0
	}
	v := b.data[b.i]
	b.i++
	return int(v)
}

func (b *opStream) more() bool { return b.i < len(b.data) }

// Operation kinds, chosen by one byte each.
const (
	dopSubmit = iota
	dopOffer
	dopOfferAgain
	dopDeadline
	dopAdvance
	dopPeek // offer and deadline at an earlier time, clock unchanged
	dopHint
	dopUnhint
	dopDecommission
	dopRecommission
	dopSuspend
	dopResume
	dopBeginStale
	dopEndStale
	dopCommit
	dopCreate
	numDelayOps
)

// delayPair holds the two schedulers under comparison and their world.
type delayPair struct {
	t       *testing.T
	nn      *hdfs.NameNode
	execs   []*cluster.Executor
	got     *Delay
	ref     *delayReference
	hints   map[*app.Task]int
	tasks   []*app.Task // every task ever submitted
	done    []*app.Task // launched tasks, candidates for a retry
	blocks  int         // blocks written so far
	copies  []hdfs.ReplicaCopy
	job     *app.Job
	stage   *app.Stage
	now     float64
	files   int
	kinds   [numDelayOps]int
	offered int // offers that launched a task
}

// runDelayEquivalence decodes a header (nodes, wait, hints on or off,
// replication) and then one operation per byte group, comparing the two
// schedulers after each.
func runDelayEquivalence(t *testing.T, data []byte) *delayPair {
	b := &opStream{data: data}
	nodes := 2 + b.next()%7
	wait := [...]float64{0, 0.5, 3}[b.next()%3]
	useHints := b.next()%2 == 1
	repl := 1 + b.next()%3
	nn := hdfs.NewNameNode(nodes, xrand.New(1), hdfs.WithBlockSize(100), hdfs.WithReplication(repl))
	cl := cluster.New(cluster.Config{Nodes: nodes, ExecutorsPerNode: 2})
	a := app.NewApplication(0, "diff")
	job := &app.Job{ID: 1, App: a}
	p := &delayPair{
		t: t, nn: nn, execs: cl.Executors(),
		got:   NewDelay(nn, wait),
		ref:   &delayReference{Loc: nn, Wait: wait},
		hints: map[*app.Task]int{},
		job:   job, stage: &app.Stage{ID: 0, Job: job},
	}
	if useHints {
		hint := func(t *app.Task) (int, bool) { e, ok := p.hints[t]; return e, ok }
		p.got.Hint, p.ref.Hint = hint, hint
	}
	p.create(b)
	p.create(b)
	for step := 0; b.more(); step++ {
		op := b.next() % numDelayOps
		p.kinds[op]++
		p.apply(b, op, step)
		p.compareQueues(step, op)
	}
	return p
}

func (p *delayPair) create(b *opStream) {
	f, err := p.nn.Create(fmt.Sprintf("f%d", p.files), int64(1+b.next()*7))
	if err != nil && !errors.Is(err, hdfs.ErrNoSpace) { // too few live nodes: fine
		p.t.Fatal(err)
	}
	if f != nil {
		p.blocks += len(f.Blocks)
	}
	p.files++
}

func (p *delayPair) apply(b *opStream, op, step int) {
	node := b.next() % p.nn.Nodes()
	switch op {
	case dopSubmit:
		var batch []*app.Task
		for n := 1 + b.next()%4; n > 0; n-- {
			if v := b.next(); v%8 == 0 && len(p.done) > 0 {
				// A retry: a launched task comes back, its hint intact.
				i := v / 8 % len(p.done)
				t := p.done[i]
				p.done = slices.Delete(p.done, i, i+1)
				t.ReadyAt = p.now
				batch = append(batch, t)
				continue
			}
			t := &app.Task{Job: p.job, Stage: p.stage, Index: len(p.tasks), Block: -1,
				State: app.TaskReady, ReadyAt: p.now, RanOnNode: -1}
			if v := b.next(); v%4 != 0 {
				// Input task; some blocks were never written.
				t.Block = hdfs.BlockID(v % (p.blocks + 2))
			}
			p.tasks = append(p.tasks, t)
			batch = append(batch, t)
		}
		p.got.Submit(batch, p.now)
		p.ref.Submit(batch, p.now)
	case dopOffer, dopOfferAgain:
		p.offer(b, p.now, step)
	case dopDeadline:
		p.deadline(p.now, step)
	case dopAdvance:
		p.now += [...]float64{0, 0.1, 0.25, 0.5, 1, 2.9, 3, 7}[b.next()%8]
	case dopPeek:
		at := p.now - float64(b.next()%8)*0.7
		p.deadline(at, step)
		p.offer(b, at, step)
		p.deadline(p.now, step)
	case dopHint:
		// Mostly a queued task; sometimes any task, queued or long gone.
		pool := p.ref.queue
		if b.next()%4 == 0 || len(pool) == 0 {
			pool = p.tasks
		}
		if len(pool) > 0 {
			t := pool[b.next()%len(pool)]
			exec := p.execs[b.next()%len(p.execs)].ID
			p.hints[t] = exec
			p.got.Hinted(t, exec)
		}
	case dopUnhint:
		if len(p.tasks) > 0 {
			delete(p.hints, p.tasks[b.next()%len(p.tasks)])
		}
	case dopDecommission:
		if copies, err := p.nn.Decommission(node); err == nil {
			p.copies = append(p.copies, copies...)
		}
	case dopRecommission:
		p.nn.Recommission(node)
	case dopSuspend:
		p.nn.Suspend(node)
	case dopResume:
		p.nn.Resume(node)
	case dopBeginStale:
		p.nn.BeginStale()
	case dopEndStale:
		p.nn.EndStale()
	case dopCommit:
		if len(p.copies) > 0 {
			i := b.next() % len(p.copies)
			cp := p.copies[i]
			p.copies = slices.Delete(p.copies, i, i+1)
			if b.next()%5 != 0 {
				_ = p.nn.CommitReplica(cp.Block, cp.To) // fails when the target died: fine
			} else {
				p.nn.AbortReplica(cp.Block, cp.To)
			}
		}
	case dopCreate:
		p.create(b)
	}
}

func (p *delayPair) offer(b *opStream, at float64, step int) {
	e := p.execs[b.next()%len(p.execs)]
	got, want := p.got.Offer(e, at), p.ref.Offer(e, at)
	if got != want {
		p.t.Fatalf("step %d: Offer(exec %d on node %d, %v) = %s, reference %s",
			step, e.ID, e.Node.ID, at, taskName(got), taskName(want))
	}
	if got != nil {
		p.offered++
		p.done = append(p.done, got)
	}
}

func (p *delayPair) deadline(at float64, step int) {
	gdl, gok := p.got.NextDeadline(at)
	rdl, rok := p.ref.NextDeadline(at)
	if gdl != rdl || gok != rok {
		p.t.Fatalf("step %d: NextDeadline(%v) = %v,%v, reference %v,%v", step, at, gdl, gok, rdl, rok)
	}
}

func (p *delayPair) compareQueues(step, op int) {
	if g, w := p.got.Pending(), p.ref.Pending(); g != w {
		p.t.Fatalf("step %d (op %d): Pending = %d, reference %d", step, op, g, w)
	}
	if g, w := p.got.PendingTasks(), p.ref.PendingTasks(); !slices.Equal(g, w) {
		p.t.Fatalf("step %d (op %d): PendingTasks differ from the reference", step, op)
	}
}

func taskName(t *app.Task) string {
	if t == nil {
		return "nil"
	}
	return fmt.Sprintf("task %d (block %d, ready %v)", t.Index, t.Block, t.ReadyAt)
}

// TestDelayMatchesReference runs random operation sequences over several
// cluster sizes, waits and replication levels, with and without hints. The
// long sequences launch enough tasks to compact the postings repeatedly.
func TestDelayMatchesReference(t *testing.T) {
	var kinds [numDelayOps]int
	offered := 0
	for seed := uint64(1); seed <= 120; seed++ {
		rng := xrand.New(seed)
		// Bias towards submissions and offers so queues both grow and
		// drain. Every tenth sequence is long and rarely touches the
		// NameNode, so launches pile up between rebuilds and compact the
		// postings.
		n, bias := 400, 0.5
		if seed%10 == 0 {
			n, bias = 6000, 0.998
		}
		data := []byte{byte(seed), byte(seed / 2), byte(seed / 6), byte(seed / 12)}
		for i := 0; i < n; i++ {
			v := rng.Intn(256)
			if rng.Bool(bias) {
				v = [...]int{dopSubmit, dopOffer, dopOfferAgain, dopAdvance, dopHint}[rng.Intn(5)]
			}
			data = append(data, byte(v))
		}
		p := runDelayEquivalence(t, data)
		for k, c := range p.kinds {
			kinds[k] += c
		}
		offered += p.offered
	}
	for k, c := range kinds {
		if c == 0 {
			t.Errorf("operation kind %d never ran", k)
		}
	}
	if offered < 10*compactSlack {
		t.Errorf("only %d launches: too few to exercise compaction", offered)
	}
}

// FuzzDelayEquivalence drives the same comparison from fuzzer-chosen bytes.
func FuzzDelayEquivalence(f *testing.F) {
	f.Add([]byte{3, 2, 1, 2, dopSubmit, 9, 3, 5, 7, 1, dopOffer, 1, 2, dopAdvance, 0, 5, dopDeadline, 0, dopOffer, 3, 4})
	f.Add([]byte{5, 1, 1, 0, dopSubmit, 0, 2, 4, 6, dopHint, 0, 1, 3, dopOffer, 0, 3, dopDecommission, 2,
		dopDeadline, 0, dopBeginStale, 0, dopSuspend, 1, dopOffer, 2, 5, dopEndStale, 0, dopOffer, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		runDelayEquivalence(t, data)
	})
}
