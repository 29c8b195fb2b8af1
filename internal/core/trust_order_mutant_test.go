//go:build custodymutate

package core

import (
	"errors"
	"testing"

	"repro/internal/mutant"
)

// TestTrustOrderMutant proves the churn differential has teeth against the
// pool's sort skip: with the sort compiled out, the unsorted idle lists of
// TestSessionChurnEquivalence's cluster break the lowest-ID tie-breaks, and
// a plan must diverge from AllocateReference.
//
// Run with: go test -tags custodymutate -run '^TestTrustOrderMutant$' ./internal/core
func TestTrustOrderMutant(t *testing.T) {
	if !mutant.Select(mutant.TrustOrder) {
		t.Skip("requires -tags custodymutate (seeded bugs not compiled in)")
	}
	defer mutant.Select(mutant.None)
	err := churnRounds(serviceChurn, serviceChurnRounds, serviceChurnRelease)
	if !errors.Is(err, errPlanDiverged) {
		t.Fatalf("the churn differential did not see a plan diverge with the sort skipped (got %v)", err)
	}
	t.Logf("caught the mutant: %.200s", err)
}
