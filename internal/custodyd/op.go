package custodyd

import "repro/internal/chaos"

// OpKind names one intent-log operation.
type OpKind string

// The op alphabet. Every externally visible state change of a Service is
// exactly one of these; anything not expressible as an op cannot change
// replayed state, which is what keeps recovery byte-identical.
const (
	OpRegisterApp  OpKind = "register-app"
	OpSubmitJob    OpKind = "submit-job"
	OpRound        OpKind = "round"
	OpInjectFault  OpKind = "inject-fault"
	OpRestoreFault OpKind = "restore-fault"
	OpDrain        OpKind = "drain"
	// OpRevokeExec releases one executor back to the pool — the Server
	// commits it when an executor misses its heartbeat deadline. Liveness is
	// a wall-clock judgement, so the clock-side decision lives in the
	// Server; only the committed revocation reaches the Service, which keeps
	// replay independent of when heartbeats actually arrived.
	OpRevokeExec OpKind = "revoke-exec"
)

// Op is one logged intent. Seq is assigned at commit time and must be
// contiguous from 1; unused fields stay at their zero values and are
// omitted from the encoding.
type Op struct {
	Seq  uint64 `json:"seq"`
	Kind OpKind `json:"kind"`

	// register-app
	Name string `json:"name,omitempty"`

	// submit-job
	Tenant   int    `json:"tenant,omitempty"`
	Workload string `json:"workload,omitempty"`
	File     int    `json:"file,omitempty"`

	// round: the simulated-time slice covered and whether the round ran in
	// degraded mode (no explicit Reallocate pass). Recording the mode here
	// is what makes replay independent of the wall clock that triggered it.
	Step     float64 `json:"step,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`

	// inject-fault / restore-fault
	Fault *chaos.Fault `json:"fault,omitempty"`

	// revoke-exec
	Exec int `json:"exec,omitempty"`
}

// Journal is the append-only intent log a Service commits ops to. WAL is
// the file-backed implementation; MemJournal backs tests and the model
// checker, where crash/restart is simulated by handing the ops to a fresh
// Service.
type Journal interface {
	Append(Op) error
	// Replay hands fn every committed op in order, stopping at its first error.
	Replay(fn func(Op) error) error
}

// MemJournal is an in-memory Journal.
type MemJournal struct {
	ops []Op
}

// NewMemJournal returns a journal pre-loaded with ops (replayed by
// NewService) — the in-memory equivalent of reopening a WAL.
func NewMemJournal(ops ...Op) *MemJournal {
	return &MemJournal{ops: ops}
}

// Append implements Journal.
func (j *MemJournal) Append(op Op) error {
	j.ops = append(j.ops, op)
	return nil
}

// Replay implements Journal.
func (j *MemJournal) Replay(fn func(Op) error) error {
	for _, op := range j.ops {
		if err := fn(op); err != nil {
			return err
		}
	}
	return nil
}

// Ops returns a copy of the ops, for crash harnesses to hand a fresh Service.
func (j *MemJournal) Ops() []Op {
	return append([]Op(nil), j.ops...)
}
