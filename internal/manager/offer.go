package manager

import (
	"repro/internal/app"
	"repro/internal/cluster"
)

// Offer is a Mesos-like dynamic manager (§II-A): idle resources are offered
// to applications in turn; a data-aware application (running delay
// scheduling) rejects offers that carry no locality for its pending tasks,
// so the manager "has to resend an offer to multiple applications before any
// of them accepts it". Rejected executors are re-offered after RetryDelay.
type Offer struct {
	// RetryDelay is the pause before re-offering an executor every
	// application declined. Models Mesos's offer round-trip.
	RetryDelay float64

	rotation int
	retries  map[int]bool // executor ID → retry pending
}

// NewOffer builds the offer-based manager with a 1-second retry delay.
func NewOffer() *Offer {
	return &Offer{RetryDelay: 1.0, retries: map[int]bool{}}
}

// Name implements Manager.
func (o *Offer) Name() string { return "mesos-offer" }

// Register implements Manager: nothing is allocated up front.
func (o *Offer) Register(env Env) {}

// OnJobSubmit implements Manager: new demand → run an offer round.
func (o *Offer) OnJobSubmit(env Env, a *app.Application, j *app.Job) {
	o.offerAll(env)
}

// OnJobFinish implements Manager.
func (o *Offer) OnJobFinish(env Env, a *app.Application, j *app.Job) {
	o.offerAll(env)
}

// OnExecutorIdle implements Manager: fine-grained sharing returns the
// executor to the pool, then re-offers it.
func (o *Offer) OnExecutorIdle(env Env, e *cluster.Executor) {
	if e.Owner() != cluster.NoApp && e.Running() == 0 {
		env.Release(e)
	}
	o.offerOne(env, e)
}

// OnNodeFail implements Manager: re-offer the surviving free executors.
func (o *Offer) OnNodeFail(env Env, node int) {
	o.offerAll(env)
}

// offerAll offers every free executor.
func (o *Offer) offerAll(env Env) {
	for _, e := range env.Cluster().Free() {
		o.offerOne(env, e)
	}
}

// offerOne walks the applications round-robin, offering the executor to
// each until one accepts. Applications at their fair-share cap are skipped.
func (o *Offer) offerOne(env Env, e *cluster.Executor) {
	if e.Owner() != cluster.NoApp {
		return // someone took it meanwhile
	}
	apps := env.Apps()
	if len(apps) == 0 {
		return
	}
	share := fairShare(env)
	cl := env.Cluster()
	start := o.rotation
	o.rotation = (o.rotation + 1) % len(apps)
	for k := 0; k < len(apps); k++ {
		a := apps[(start+k)%len(apps)]
		if cl.OwnedCount(a.ID) >= share {
			continue
		}
		if env.TryLaunch(e, a) {
			return
		}
		env.Collector().OfferRejections++
	}
	// Everyone declined: retry later (delay-scheduling waits may expire),
	// but only while someone still has queued work.
	anyPending := false
	for _, a := range apps {
		if env.PendingCount(a) > 0 {
			anyPending = true
			break
		}
	}
	if !anyPending || o.retries[e.ID] {
		return
	}
	o.retries[e.ID] = true
	env.Schedule(o.RetryDelay, func() {
		o.retries[e.ID] = false
		o.offerOne(env, e)
	})
}
