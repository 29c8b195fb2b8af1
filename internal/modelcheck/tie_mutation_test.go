package modelcheck

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestTieMutationSmoke proves the checker guards the executor tie-break:
// under the custodymutatetie build tag, internal/core indexes executors in
// descending ID order (so same-node ties resolve to the highest executor ID
// instead of the lowest), and the harness's manager self-check must (a)
// catch the divergence from the reference oracle within a bounded seed
// scan, (b) shrink the counterexample to at most 12 commands, and (c)
// round-trip it through a .repro file that replays to the same digest.
//
// Run with: go test -tags custodymutatetie -run TestTieMutationSmoke ./internal/modelcheck
func TestTieMutationSmoke(t *testing.T) {
	if !tieMutationEnabled {
		t.Skip("requires -tags custodymutatetie (seeded tie-break bug not compiled in)")
	}
	const (
		maxSeeds    = 80
		cmdsPerSeed = 40
		maxShrunk   = 12
	)
	for seed := uint64(1); seed <= maxSeeds; seed++ {
		r := Check(seed, cmdsPerSeed)
		if !r.Failed() {
			continue
		}
		min := ShrinkResult(r)
		if !min.Failed() {
			t.Fatalf("seed %d: shrunken sequence no longer fails", seed)
		}
		var b bytes.Buffer
		if err := min.WriteReport(&b); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		t.Logf("seed %d caught the tie mutation; minimal reproducer:\n%s", seed, b.String())
		if len(min.Commands) > maxShrunk {
			t.Fatalf("seed %d: shrunk to %d commands, want <= %d", seed, len(min.Commands), maxShrunk)
		}
		path := filepath.Join(t.TempDir(), "tie.repro")
		if err := WriteRepro(path, Repro{Seed: min.Seed, Commands: min.Commands}); err != nil {
			t.Fatalf("WriteRepro: %v", err)
		}
		got, err := ReadRepro(path)
		if err != nil {
			t.Fatalf("ReadRepro: %v", err)
		}
		replay := Run(got.Seed, got.Commands)
		if !replay.Failed() || replay.Digest != min.Digest {
			t.Fatalf(".repro does not replay (failed=%v digest %s vs %s)",
				replay.Failed(), replay.Digest, min.Digest)
		}
		return
	}
	t.Fatalf("seeded tie-break bug never detected in %d seeds — the self-check is blind", maxSeeds)
}
