package modelcheck

import (
	"testing"
)

// TestServerSequencesHoldInvariants sweeps seeded server-mode sequences —
// submissions, degraded and normal rounds, fault windows, drains, and
// crash/recover cycles — expecting the full battery (model ledger, round
// observer, driver audit, reference-oracle differential, plan contract,
// digest-identical recovery) to stay quiet.
func TestServerSequencesHoldInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := RunServer(seed, GenerateServer(seed, 60))
		if r.Failed() {
			shrunk := ShrinkResult(r)
			for _, v := range shrunk.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			for i, c := range shrunk.Commands {
				t.Logf("seed %d repro %2d: %s", seed, i, c)
			}
			t.FailNow()
		}
	}
}

// TestServerRunDeterministic re-runs the same seeded sequence and requires
// byte-identical digests — crashes included, since recovery replay is part
// of the digested history.
func TestServerRunDeterministic(t *testing.T) {
	cmds := GenerateServer(42, 60)
	a := RunServer(42, cmds)
	b := RunServer(42, cmds)
	if a.Failed() || b.Failed() {
		t.Fatalf("unexpected violations: %v / %v", a.Violations, b.Violations)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digest %s != %s across identical runs", a.Digest, b.Digest)
	}
}

// TestServerCrashSequence pins an explicit crash-heavy script: crashes
// mid-workload, mid-fault-window, and back-to-back must all recover
// digest-identically and keep every invariant.
func TestServerCrashSequence(t *testing.T) {
	cmds := []Command{
		{Op: OpSrvRegister},
		{Op: OpSrvRegister},
		{Op: OpSrvSubmit, A: 0, B: 0},
		{Op: OpSrvSubmit, A: 1, B: 1},
		{Op: OpSrvRound, F: 0.5},
		{Op: OpSrvCrash},
		{Op: OpSrvInject, A: 1, B: 3},  // executor crash
		{Op: OpSrvRound, A: 1, F: 1.0}, // degraded round mid-fault
		{Op: OpSrvCrash},
		{Op: OpSrvCrash},
		{Op: OpSrvRestore, A: 1},
		{Op: OpSrvRound, F: 2.0},
		{Op: OpSrvDrain},
		{Op: OpSrvCrash},
	}
	r := RunServer(7, cmds)
	if r.Failed() {
		for _, v := range r.Violations {
			t.Errorf("%s", v)
		}
	}
	if r.Applied != len(cmds) {
		t.Fatalf("applied %d of %d commands", r.Applied, len(cmds))
	}
}

// TestGenerateServerCoversAlphabet checks generation reaches every
// server op, crash included, and is a pure function of (seed, n).
func TestGenerateServerCoversAlphabet(t *testing.T) {
	cmds := GenerateServer(3, 400)
	seen := map[Op]bool{}
	for _, c := range cmds {
		seen[c.Op] = true
	}
	for _, op := range []Op{OpSrvRegister, OpSrvSubmit, OpSrvRound, OpSrvInject, OpSrvRestore, OpSrvCrash, OpSrvDrain} {
		if !seen[op] {
			t.Errorf("generation never produced %s", op)
		}
	}
	again := GenerateServer(3, 400)
	for i := range cmds {
		if cmds[i] != again[i] {
			t.Fatalf("generation not deterministic at %d: %v vs %v", i, cmds[i], again[i])
		}
	}
}
