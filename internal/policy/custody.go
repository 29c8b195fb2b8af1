package policy

import "repro/internal/core"

// CustodyPolicy is the paper's two-level allocation (Algorithms 1 and 2)
// exposed behind the Policy interface, and the Custody manager's default.
// It runs each round on a warm core.Session, so consecutive rounds reuse the
// previous round's locality indices, pool indexes and arenas.
type CustodyPolicy struct {
	sess *core.Session
}

// NewCustodyPolicy builds the default policy with a fresh warm session.
func NewCustodyPolicy() *CustodyPolicy { return &CustodyPolicy{sess: core.NewSession()} }

// Name implements Policy.
func (*CustodyPolicy) Name() string { return Custody }

// Allocate implements Policy by running Algorithm 1+2 on the warm session.
func (p *CustodyPolicy) Allocate(apps []core.AppDemand, idle []core.ExecInfo, opts core.Options) core.Plan {
	if p.sess == nil {
		p.sess = core.NewSession()
	}
	return p.sess.Allocate(apps, idle, opts)
}
