//go:build custodymutate

package netsim

import (
	"fmt"
	"testing"

	"repro/internal/mutant"
)

// panicFailer turns a differential failure into a panic that catchDivergence
// recovers.
type panicFailer struct{}

func (panicFailer) Helper() {}

func (panicFailer) Fatalf(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

// catchDivergence runs the differential on data and returns how it failed:
// a mismatch with the reference or a fabric invariant panic. It returns ""
// when the fabrics agree.
func catchDivergence(data []byte) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	runFabricEquivalence(panicFailer{}, data)
	return ""
}

// requireCaught selects the mutant m and runs the battery of
// TestFabricMatchesReference until a case diverges from the reference; it
// fails the test, saying what, when none does.
func requireCaught(t *testing.T, m mutant.Name, what string) {
	t.Helper()
	if !mutant.Select(m) {
		t.Skip("requires -tags custodymutate (seeded bugs not compiled in)")
	}
	defer mutant.Select(mutant.None)
	for _, c := range referenceCases {
		for seed := uint64(1); seed <= 40; seed++ {
			if msg := catchDivergence(referenceData(c.header, seed)); msg != "" {
				t.Logf("%s seed %d caught the mutant: %s", c.name, seed, msg)
				return
			}
		}
	}
	t.Fatalf("the fabric differential never caught %s", what)
}

// TestWarmJoinedMutant proves the fabric differential has teeth against the
// warm start: with the replay's joined-resource check compiled out, a new
// flow that should become a bottleneck is frozen at a stale level, and the
// battery of TestFabricMatchesReference must see the divergence.
//
// Run with: go test -tags custodymutate -run '^TestWarmJoinedMutant$' ./internal/netsim
func TestWarmJoinedMutant(t *testing.T) {
	requireCaught(t, mutant.NetsimWarmJoined, "the warm start ignoring joined resources")
}

// TestTieCalmMutant proves the differential has teeth against tie runs:
// with every freeze reported calm, a run keeps freezing its members after a
// freeze left another resource at or below the run's share, which the cold
// scan would have picked, and the battery must see the divergence.
//
// Run with: go test -tags custodymutate -run '^TestTieCalmMutant$' ./internal/netsim
func TestTieCalmMutant(t *testing.T) {
	requireCaught(t, mutant.NetsimTieCalm, "tie runs that ignore the calm check")
}
