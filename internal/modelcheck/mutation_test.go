package modelcheck

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mutant"
)

// TestMutationSmoke proves the checker has teeth: for each seeded bug in
// internal/mutant, the checker must (a) catch it within a bounded seed scan,
// (b) shrink the counterexample to at most 12 commands, and (c) round-trip
// it through a .repro file that Replay runs to the same digest. The
// allocator mutants are hunted in both modes: the service mode runs the same
// check battery over the custodyd stack. The subtests skip unless the bugs
// are compiled in.
//
// Run with: go test -tags custodymutate -run '^TestMutationSmoke$' ./internal/modelcheck
func TestMutationSmoke(t *testing.T) {
	const (
		maxSeeds    = 80
		cmdsPerSeed = 40
		maxShrunk   = 12
	)
	for _, tc := range []struct {
		mutant mutant.Name
		// server hunts the mutant through the custodyd service stack.
		server bool
		// prefix runs before each generated sequence.
		prefix []Command
		// check adds mutant-specific requirements on the minimal reproducer.
		check func(t *testing.T, min *Result)
	}{
		// The allocator prefers the MOST-localized application; the
		// fairness-key monotonicity invariant must fire.
		{mutant: mutant.InvertFairness},
		// Same-node ties resolve to the highest executor ID; only the
		// manager self-check against the reference oracle can see it.
		{mutant: mutant.TieStamp},
		// The same two bugs behind the service's committed ops.
		{mutant: mutant.InvertFairness, server: true},
		{mutant: mutant.TieStamp, server: true},
		// A crashed executor stays in its old owner's owned index; the
		// driver's audit, through cluster.Validate, must report it.
		{mutant: mutant.ClusterStaleOwner, check: func(t *testing.T, min *Result) {
			for _, v := range min.Violations {
				if v.Rule == "audit" {
					return
				}
			}
			t.Fatalf("the audit rule did not fire; violations: %v", min.Violations)
		}},
		// A retried task is marked ready without moving it in the driver's
		// per-state tally. Every task is where its state says, so only the
		// audit's tally cross-check can see it.
		{mutant: mutant.DriverTallyDrift, check: func(t *testing.T, min *Result) {
			for _, v := range min.Violations {
				if v.Rule == "audit" && strings.Contains(v.Detail, "task tally") {
					return
				}
			}
			t.Fatalf("the audit rule did not report the tally; violations: %v", min.Violations)
		}},
		// Quincy starves every application. The set-policy prefix arms the
		// mutated policy before any generated command runs. The
		// Custody-specific invariants are detached while quincy is active, so
		// a detection must come from the policy-generic core alone.
		{mutant: mutant.PolicyCostSign, prefix: []Command{{Op: OpSetPolicy, A: 1}}, check: func(t *testing.T, min *Result) {
			generic := false
			for _, v := range min.Violations {
				if v.Rule == "plancheck" || v.Rule == "audit" || strings.HasPrefix(v.Rule, "model-") || v.Rule == "round-double-grant" || v.Rule == "grant-follow" {
					generic = true
				}
				if v.Rule == "selfcheck" {
					t.Fatalf("selfcheck fired under a non-custody policy (should be detached): %s", v)
				}
			}
			if !generic {
				t.Fatalf("no policy-generic rule fired; violations: %v", min.Violations)
			}
		}},
	} {
		name, generate := string(tc.mutant), Generate
		if tc.server {
			name, generate = name+"-server", GenerateServer
		}
		t.Run(name, func(t *testing.T) {
			if !mutant.Select(tc.mutant) {
				t.Skip("requires -tags custodymutate (seeded bugs not compiled in)")
			}
			defer mutant.Select(mutant.None)
			if len(tc.prefix) > 0 && policyTarget(1) != "quincy" {
				t.Fatalf("policyTarget(1) = %q, want quincy (registry order changed?)", policyTarget(1))
			}
			for seed := uint64(1); seed <= maxSeeds; seed++ {
				cmds := append(append([]Command(nil), tc.prefix...), generate(seed, cmdsPerSeed)...)
				r := Replay(Repro{Seed: seed, Commands: cmds, Server: tc.server})
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
				t.Logf("seed %d caught the mutant; minimal reproducer:\n%s", seed, b.String())
				if len(min.Commands) > maxShrunk {
					t.Fatalf("seed %d: shrunk to %d commands, want <= %d", seed, len(min.Commands), maxShrunk)
				}
				if tc.check != nil {
					tc.check(t, min)
				}
				path := filepath.Join(t.TempDir(), name+".repro")
				if err := WriteRepro(path, min.Repro()); err != nil {
					t.Fatalf("WriteRepro: %v", err)
				}
				got, err := ReadRepro(path)
				if err != nil {
					t.Fatalf("ReadRepro: %v", err)
				}
				replay := Replay(got)
				if !replay.Failed() || replay.Digest != min.Digest {
					t.Fatalf(".repro does not replay (failed=%v digest %s vs %s)",
						replay.Failed(), replay.Digest, min.Digest)
				}
				return
			}
			t.Fatalf("seeded bug never detected in %d seeds — the checker is blind to it", maxSeeds)
		})
	}
}
