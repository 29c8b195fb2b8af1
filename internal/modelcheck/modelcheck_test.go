package modelcheck

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// seedSet returns the fixed seed set for the randomized sweeps: 500 seeds
// in full mode, a bounded prefix under -short.
func seedSet(t *testing.T) []uint64 {
	n := 500
	if testing.Short() {
		n = 60
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// TestGenerateIsPure pins that sequence generation depends only on
// (seed, n): equal inputs give equal sequences, prefixes agree, and
// different seeds diverge.
func TestGenerateIsPure(t *testing.T) {
	a := Generate(42, 30)
	b := Generate(42, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate(42, 30) is not deterministic")
	}
	if !reflect.DeepEqual(a[:10], Generate(42, 10)) {
		t.Fatal("Generate prefix does not agree with shorter generation")
	}
	if reflect.DeepEqual(a, Generate(43, 30)) {
		t.Fatal("different seeds generated identical sequences")
	}
}

// TestRandomSequencesHoldInvariants is the tier-1 bounded-budget entry:
// with no mutant selected, every seed in the fixed set must run violation-free,
// and the run must be byte-identical across three repeats (same digest,
// same violation list, same applied count).
func TestRandomSequencesHoldInvariants(t *testing.T) {
	const cmdsPerSeed = 25
	for _, seed := range seedSet(t) {
		first := Check(seed, cmdsPerSeed)
		if first.Failed() {
			min := ShrinkResult(first)
			var b bytes.Buffer
			if err := min.WriteReport(&b); err != nil {
				t.Fatalf("seed %d: WriteReport: %v", seed, err)
			}
			t.Fatalf("seed %d violated invariants; minimal reproducer:\n%s", seed, b.String())
		}
		for rep := 0; rep < 2; rep++ {
			again := Check(seed, cmdsPerSeed)
			if again.Digest != first.Digest {
				t.Fatalf("seed %d: digest %s on repeat %d, want %s — run is not deterministic",
					seed, again.Digest, rep+2, first.Digest)
			}
			if again.Applied != first.Applied || len(again.Violations) != len(first.Violations) {
				t.Fatalf("seed %d: repeat diverged (applied %d vs %d)", seed, again.Applied, first.Applied)
			}
		}
	}
}

// TestReproRoundTrip pins the .repro serialization in both modes:
// encode → decode → equal, and replaying the decoded reproducer runs the
// stack it was recorded from — the mode's own entry point gives the same
// digest, and allocation rounds actually ran.
func TestReproRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		repro Repro
		run   func(uint64, []Command) *Result
	}{
		{Repro{Seed: 7, Commands: Generate(7, 12)}, Run},
		{Repro{Seed: 42, Commands: GenerateServer(42, 60), Server: true}, RunServer},
	} {
		r := tc.repro
		path := filepath.Join(t.TempDir(), "case.repro")
		if err := WriteRepro(path, r); err != nil {
			t.Fatalf("WriteRepro: %v", err)
		}
		got, err := ReadRepro(path)
		if err != nil {
			t.Fatalf("ReadRepro: %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip changed the reproducer:\n got %+v\nwant %+v", got, r)
		}
		want, replay := tc.run(r.Seed, r.Commands), Replay(got)
		if replay.Server != r.Server || replay.Digest != want.Digest || replay.rounds == 0 {
			t.Fatalf("server=%v reproducer replayed with server=%v digest %s after %d rounds, want digest %s after %d",
				r.Server, replay.Server, replay.Digest, replay.rounds, want.Digest, want.rounds)
		}
	}
}

// TestReproWithoutModeIsDriverMode pins the file format's compatibility: a
// .repro written before reproducers recorded their mode decodes and
// replays as driver mode.
func TestReproWithoutModeIsDriverMode(t *testing.T) {
	r, err := DecodeRepro([]byte(`{"seed": 5, "commands": [{"op": "submit-job", "a": 1, "b": 2}, {"op": "grant-round"}, {"op": "advance-clock", "f": 1.5}]}`))
	if err != nil {
		t.Fatalf("DecodeRepro: %v", err)
	}
	if r.Server {
		t.Fatal("a .repro without a server field decoded as service mode")
	}
	if a, b := Replay(r).Digest, Run(r.Seed, r.Commands).Digest; a != b {
		t.Fatalf("legacy .repro replayed to digest %s, driver mode gives %s", a, b)
	}
}

// TestShrinkCommandsMinimizes drives ddmin against a synthetic predicate:
// the failure needs commands with markers 3 AND 11 present, in order. The
// shrinker must find exactly that 2-command core from a 40-command haystack.
func TestShrinkCommandsMinimizes(t *testing.T) {
	cmds := make([]Command, 40)
	for i := range cmds {
		cmds[i] = Command{Op: OpAdvanceClock, A: i}
	}
	fails := func(sub []Command) bool {
		seen3 := false
		for _, c := range sub {
			if c.A == 3 {
				seen3 = true
			}
			if c.A == 11 && seen3 {
				return true
			}
		}
		return false
	}
	min := ShrinkCommands(cmds, fails)
	if len(min) != 2 || min[0].A != 3 || min[1].A != 11 {
		t.Fatalf("ShrinkCommands = %v, want the [3, 11] core", min)
	}
	// 1-minimality: removing either remaining command breaks the failure.
	for i := range min {
		sub := append(append([]Command(nil), min[:i]...), min[i+1:]...)
		if fails(sub) {
			t.Fatalf("result is not 1-minimal: still fails without %v", min[i])
		}
	}
}

// TestShrinkCommandsRejectsBrokenPredicate pins the harness-is-broken
// guard: a predicate that fails on the empty sequence must not shrink.
func TestShrinkCommandsRejectsBrokenPredicate(t *testing.T) {
	cmds := Generate(1, 10)
	min := ShrinkCommands(cmds, func([]Command) bool { return true })
	if !reflect.DeepEqual(min, cmds) {
		t.Fatalf("a predicate failing on nil must return the input unshrunk, got %v", min)
	}
}

// TestViolationReportsCarryProvenance checks that a run forced into a
// model/live disagreement produces a readable report (using a doctored
// observer report channel rather than a real allocator bug).
func TestViolationReportsCarryProvenance(t *testing.T) {
	r := Run(3, Generate(3, 15))
	// Healthy run with no mutant selected; forge a violation to exercise
	// the report path including the explain chain.
	if r.Failed() {
		t.Fatalf("seed 3 unexpectedly failed: %v", r.Violations)
	}
	r.Violations = append(r.Violations, Violation{Cmd: 1, Rule: "synthetic", Detail: "forged for report test", App: 0, Job: 1})
	var b bytes.Buffer
	if err := r.WriteReport(&b); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	out := b.String()
	for _, want := range []string{"modelcheck seed=3", "synthetic", "forged for report test"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
