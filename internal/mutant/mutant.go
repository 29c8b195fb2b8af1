// Package mutant names the seeded bugs that prove the model checker has
// teeth. Each mutation point in the allocator stack is guarded by
// `mutant.Active == mutant.X`. Builds without the custodymutate tag fix
// Active at None as a constant, so every guarded branch is compile-time
// false and compiled out. A build with the tag makes Active a variable
// that Select sets, so one tagged test binary can run each mutant in turn,
// and with nothing selected it behaves like an untagged build.
//
// Run the mutation smoke test with:
//
//	go test -tags custodymutate -run '^TestMutationSmoke$' ./internal/modelcheck
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
)
