package modelcheck

import (
	"errors"
	"fmt"

	"repro/internal/custodyd"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Server-mode checking drives the custodyd.Service op log instead of the
// bare driver: every command becomes a committed, replayable op, and the
// alphabet gains srv-crash — kill the incarnation and recover a fresh one
// from the intent log, requiring a digest-identical resurrection. The same
// harness and check battery as driver mode checks every step (harness.go);
// only the stack's construction and the command semantics live here.
const (
	// OpSrvRegister activates the next tenant slot (no-op at quota).
	OpSrvRegister Op = "srv-register"
	// OpSrvSubmit submits workload B to tenant A mod tenants.
	OpSrvSubmit Op = "srv-submit"
	// OpSrvRound commits one allocation round covering F simulated seconds;
	// odd A makes it a degraded round (fallback-only locality).
	OpSrvRound Op = "srv-round"
	// OpSrvInject logs and applies chaos fault family A on target B.
	OpSrvInject Op = "srv-inject"
	// OpSrvRestore logs and reverts fault family A.
	OpSrvRestore Op = "srv-restore"
	// OpSrvCrash kills the service and recovers it by replaying the intent
	// log; recovery must reproduce the pre-crash state digest.
	OpSrvCrash Op = "srv-crash"
	// OpSrvDrain runs the engine until every accepted job finishes.
	OpSrvDrain Op = "srv-drain"
)

// GenerateServer produces n server-mode commands from the seed; like
// Generate it is a pure function of (seed, n).
func GenerateServer(seed uint64, n int) []Command {
	rng := xrand.New(seed).Fork("modelcheck-server-commands")
	cmds := make([]Command, 0, n)
	for i := 0; i < n; i++ {
		c := Command{A: rng.Intn(64), B: rng.Intn(64)}
		switch w := rng.Intn(20); {
		case w < 2:
			c.Op = OpSrvRegister
		case w < 7:
			c.Op = OpSrvSubmit
		case w < 12:
			c.Op = OpSrvRound
			c.F = rng.Range(0.2, 3.0)
		case w < 14:
			c.Op = OpSrvInject
		case w < 16:
			c.Op = OpSrvRestore
		case w < 18:
			c.Op = OpSrvCrash
		default:
			c.Op = OpSrvDrain
		}
		cmds = append(cmds, c)
	}
	return cmds
}

// bootService builds the service-mode stack: a custodyd.Service over an
// in-memory journal, with the checkers attached by BootHook so every
// incarnation — including the replay phase of a crash recovery — rebuilds
// the model from the same trace stream the original incarnation produced.
func (h *harness) bootService() {
	h.cfg.BootHook = func(s *custodyd.Service) {
		h.attach(s.Driver(), s.Manager(), s.Hub())
		h.files = s.Files()
	}
	h.jnl = custodyd.NewMemJournal()
	svc, err := custodyd.NewService(h.cfg, h.jnl)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	h.svc = svc
}

// opError records a failed service op; nil is no error. Ops refused by
// validation (quota, no tenants) are expected no-ops, filtered by callers;
// anything else is a counterexample.
func (h *harness) opError(err error) {
	if err != nil {
		h.report("op-error", err.Error(), -1, -1)
	}
}

// applyService executes one service-mode command as a committed op.
// Inapplicable targets degrade to no-ops so every subsequence of a sequence
// stays valid.
func (h *harness) applyService(c Command) {
	switch c.Op {
	case OpSrvRegister:
		if _, err := h.svc.Register(fmt.Sprintf("srv-%d", h.svc.Tenants())); !errors.Is(err, custodyd.ErrTenantQuota) {
			h.opError(err)
		}
	case OpSrvSubmit:
		if h.svc.Tenants() == 0 {
			return
		}
		kinds := workload.Kinds()
		kind := string(kinds[c.B%len(kinds)])
		_, err := h.svc.Submit(c.A%h.svc.Tenants(), kind, c.B%len(h.files))
		h.opError(err)
	case OpSrvRound:
		h.opError(h.svc.Round(c.F, c.A%2 == 1))
	case OpSrvInject:
		if f, ok := h.faults.inject(h.drv, c); ok {
			h.opError(h.svc.InjectFault(f))
		}
	case OpSrvRestore:
		if f, ok := h.faults.restore(h.drv, c); ok {
			h.opError(h.svc.RestoreFault(f))
		}
	case OpSrvCrash:
		h.crash()
	case OpSrvDrain:
		h.opError(h.svc.Drain())
	}
}

// crash kills the incarnation and recovers a fresh one from the intent
// log. The recovered digest must equal the pre-crash digest — the
// crash-tolerance invariant — and the fresh model (rebuilt by attach during
// replay) must still agree with the live cluster, which the post-command
// check verifies.
func (h *harness) crash() {
	before := h.svc.Digest()
	jnl := custodyd.NewMemJournal(h.jnl.Ops()...)
	svc, err := custodyd.NewService(h.cfg, jnl)
	if err != nil {
		h.report("crash-recovery", fmt.Sprintf("replay failed: %v", err), -1, -1)
		return
	}
	if got := svc.Digest(); got != before {
		h.report("crash-recovery", fmt.Sprintf("recovered digest %s != pre-crash digest %s", got, before), -1, -1)
	}
	h.svc, h.jnl = svc, jnl
	h.crashes++
}
