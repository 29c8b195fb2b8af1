package custodyd

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// testConfig is a small, audited service configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.RackSize = 4
	cfg.MaxTenants = 3
	cfg.AuditEveryOp = true
	return cfg
}

// driveScript commits a representative op mix: registrations, submissions,
// normal and degraded rounds, a fault window, and a drain.
func driveScript(t *testing.T, svc *Service) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Register("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(0, "WordCount", 0); err != nil {
		t.Fatal(err)
	}
	must(svc.Round(0, false))
	if _, err := svc.Submit(1, "Sort", 1); err != nil {
		t.Fatal(err)
	}
	must(svc.Round(0, false))
	must(svc.InjectFault(chaos.Fault{Kind: chaos.ExecutorCrash, Exec: 3}))
	must(svc.Round(0, true)) // a degraded round mid-fault
	must(svc.RestoreFault(chaos.Fault{Kind: chaos.ExecutorCrash, Exec: 3}))
	must(svc.Round(2.5, false))
	must(svc.Drain())
}

func TestReplayReproducesDigest(t *testing.T) {
	jnl := NewMemJournal()
	svc, err := NewService(testConfig(), jnl)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(t, svc)
	if !svc.Idle() {
		t.Fatalf("service not idle after drain: %d submitted, %d finished", svc.JobsSubmitted(), svc.JobsFinished())
	}
	want := svc.Digest()

	replayed, err := NewService(testConfig(), NewMemJournal(jnl.Ops()...))
	if err != nil {
		t.Fatal(err)
	}
	if got := replayed.Digest(); got != want {
		t.Fatalf("replay digest %s != live digest %s", got, want)
	}
}

// TestReplayPrefixThenContinue simulates a crash after every prefix of the
// op log: recover from the prefix, re-drive the remaining ops live, and
// require the final digest to match the uncrashed run. This is the
// recovery contract at op granularity.
func TestReplayPrefixThenContinue(t *testing.T) {
	jnl := NewMemJournal()
	svc, err := NewService(testConfig(), jnl)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(t, svc)
	want := svc.Digest()
	ops := jnl.Ops()

	for cut := 0; cut <= len(ops); cut++ {
		recovered, err := NewService(testConfig(), NewMemJournal(ops[:cut]...))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, op := range ops[cut:] {
			op.Seq = 0 // commit reassigns
			if err := recovered.commit(op); err != nil {
				t.Fatalf("cut %d: re-commit %s: %v", cut, op.Kind, err)
			}
		}
		if got := recovered.Digest(); got != want {
			t.Fatalf("cut %d: digest %s != %s", cut, got, want)
		}
	}
}

func TestTenantQuota(t *testing.T) {
	jnl := NewMemJournal()
	svc, err := NewService(testConfig(), jnl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Register("t"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Register("overflow"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("want ErrTenantQuota, got %v", err)
	}
	// The refused registration must not have reached the journal.
	if n := len(jnl.Ops()); n != 3 {
		t.Fatalf("journal has %d ops, want 3", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	jnl := NewMemJournal()
	svc, err := NewService(testConfig(), jnl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("a"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tenant int
		kind   string
		file   int
		want   string
	}{
		{5, "Sort", 0, "unknown tenant"},
		{0, "Bogus", 0, "unknown workload"},
		{0, "Sort", 9, "out of range"},
	}
	for _, c := range cases {
		err := svc.ValidateSubmit(c.tenant, c.kind, c.file)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ValidateSubmit(%d, %q, %d) = %v, want %q", c.tenant, c.kind, c.file, err, c.want)
		}
		if _, err := svc.Submit(c.tenant, c.kind, c.file); err == nil {
			t.Errorf("Submit(%d, %q, %d) accepted invalid submission", c.tenant, c.kind, c.file)
		}
	}
	if n := len(jnl.Ops()); n != 1 {
		t.Fatalf("journal has %d ops, want only the registration", n)
	}
}

func TestJournalGapRejected(t *testing.T) {
	jnl := NewMemJournal()
	svc, err := NewService(testConfig(), jnl)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(t, svc)
	ops := jnl.Ops()
	gapped := append(append([]Op(nil), ops[:2]...), ops[3:]...)
	if _, err := NewService(testConfig(), NewMemJournal(gapped...)); err == nil {
		t.Fatal("replay of a gapped journal succeeded")
	}
}

// faultyJournal records every op it is handed, then fails the append
// numbered failAt (1-based), the way an fsync error after a landed write
// does.
type faultyJournal struct {
	MemJournal
	appends, failAt int
}

func (j *faultyJournal) Append(op Op) error {
	j.appends++
	j.ops = append(j.ops, op)
	if j.appends == j.failAt {
		return errors.New("fsync: input/output error")
	}
	return nil
}

// TestJournalAppendErrorBreaksService pins fail-stop on a journal error:
// after one failed append the service refuses every further commit, so no
// later op can reuse the failed op's sequence number, and the recorded log
// still boots.
func TestJournalAppendErrorBreaksService(t *testing.T) {
	jnl := &faultyJournal{failAt: 2}
	svc, err := NewService(testConfig(), jnl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(0, "WordCount", 0); err == nil {
		t.Fatal("submit succeeded although its journal append failed")
	}
	if svc.Broken() == nil {
		t.Fatal("Broken() is nil after a failed journal append")
	}
	if _, err := svc.Submit(0, "Sort", 1); !errors.Is(err, svc.Broken()) {
		t.Fatalf("commit after a failed append returned %v, want the broken error %v", err, svc.Broken())
	}
	if _, err := NewService(testConfig(), NewMemJournal(jnl.Ops()...)); err != nil {
		t.Fatalf("recorded log does not boot: %v", err)
	}
}
