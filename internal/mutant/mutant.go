// Package mutant names the seeded bugs that prove the model checker and the
// differential tests have teeth. Each mutation point is guarded by
// `mutant.Active == mutant.X`. Builds without the custodymutate tag fix
// Active at None as a constant, so every guarded branch is compile-time
// false and compiled out. A build with the tag makes Active a variable
// that Select sets, so one tagged test binary can run each mutant in turn,
// and with nothing selected it behaves like an untagged build.
//
// Run the mutation smoke tests with:
//
//	go test -tags custodymutate -run '^TestMutationSmoke$' ./internal/modelcheck
//	go test -tags custodymutate -run '^TestMutationSmoke$/^cluster-stale-owner$' ./internal/modelcheck
//	go test -tags custodymutate -run '^TestMutationSmoke$/^driver-tally-drift$' ./internal/modelcheck
//	go test -tags custodymutate -run '^TestWarmJoinedMutant$' ./internal/netsim
//	go test -tags custodymutate -run '^TestTieCalmMutant$' ./internal/netsim
//	go test -tags custodymutate -run '^TestTrustOrderMutant$' ./internal/core
package mutant

// Name identifies one seeded bug.
type Name string

const (
	// None selects no mutant: the correct code.
	None Name = ""
	// InvertFairness inverts MINLOCALITY's job-locality comparison in
	// internal/core, so Algorithm 1 picks the MOST-localized application
	// first: a fairness-key monotonicity violation.
	InvertFairness Name = "invert-fairness"
	// TieStamp makes internal/core index executors in descending ID order,
	// so same-node ties resolve to the highest executor ID instead of the
	// lowest: a divergence only the SelfCheck reference oracle can see.
	TieStamp Name = "tie-stamp"
	// PolicyCostSign inverts the sign of every app→executor edge cost in
	// internal/policy's Quincy flow network, so the policy starves every
	// application: a bug only the policy-generic invariants can catch.
	PolicyCostSign Name = "policy-cost-sign"
	// NetsimWarmJoined makes internal/netsim's warm start skip the check
	// that every joined or rescaled resource's share stays above a replayed
	// level's, so a new flow that should become the bottleneck is frozen at
	// a stale level: a divergence the fabric differential must catch.
	NetsimWarmJoined Name = "netsim-warm-joined"
	// NetsimTieCalm makes internal/netsim's tie-run check (Fabric.calm)
	// report every freeze as calm, so a tie run keeps freezing its members
	// after a freeze left another resource at or below the run's share,
	// which the cold scan would have picked first: a divergence the fabric
	// differential must catch.
	NetsimTieCalm Name = "netsim-tie-calm"
	// TrustOrder makes internal/core's executor pool skip its sort and
	// trust the idle list to arrive in ascending executor ID, so an
	// unsorted list breaks the lowest-ID tie-breaks: a divergence the
	// warm-session churn differential must catch.
	TrustOrder Name = "core-trust-order"
	// ClusterStaleOwner makes internal/cluster's FailExecutor clear the
	// executor's owner without updating the per-application owned index,
	// so the crashed executor stays listed as its old owner's: a drift the
	// driver's audit (cluster.Validate) must catch.
	ClusterStaleOwner Name = "cluster-stale-owner"
	// DriverTallyDrift makes internal/driver's requeueFailed mark a retried
	// task ready without moving it in the driver's per-state task tally, so
	// the tally keeps counting it as running: a drift the driver's audit
	// must catch even though every task is where its state says.
	DriverTallyDrift Name = "driver-tally-drift"
)
