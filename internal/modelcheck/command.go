// Package modelcheck is the model-based checking layer: a stateful
// property-testing harness that drives randomized, xrand-seeded command
// sequences against the real core.Session + manager.Custody + driver stack
// while maintaining a small independent model (slot ledger, per-app demand,
// replica map), checking invariants after every command. One harness serves
// two stacks, both built from one custodyd.Config: driver mode drives the
// bare driver (Run), service mode drives a custodyd.Service's committed op
// log with crash/recovery cycles in the alphabet (RunServer). The two
// differ only in how they build the stack and apply a command; the run
// loop, check battery, fault picker, digest and shrinker are shared. The
// battery splits into a policy-generic core, checked for every allocation
// policy the set-policy op can select (DESIGN.md §16):
//
//   - slot conservation and ownership agreement between the model's
//     trace-fed executor ledger and the live cluster;
//   - no double-grant: an executor is never allocated while the model still
//     believes another application owns it, and within one round its slots
//     go to a single application;
//   - the plan contract (policy.Validate): granted executors come from the
//     idle snapshot, budgets and slot counts are respected, Local
//     assignments land on advertised replica nodes, and no application
//     starves while demand, budget, and idle executors coexist;
//   - the driver's cross-layer Audit (task conservation, replica bounds,
//     fabric hygiene) holds after every command;
//   - replica-map hygiene: while no stale-metadata window is open, the
//     NameNode never advertises a node the model knows is dead or flaky;
//
// and Custody-specific checks attached only while the custody policy is
// active:
//
//   - fairness-key monotonicity: within one allocation round, the keys of
//     Algorithm 1's locality picks are lexicographically non-decreasing
//     (the minimum of a set whose elements only grow is non-decreasing),
//     and the fill phase's frozen sort order likewise;
//   - Algorithm 2 ordering: within one pick, all grants of a job are issued
//     before the next job is served (job IDs never revisit);
//   - the SelfCheck differential: every round's plan is byte-identical to
//     the frozen core.AllocateReference oracle.
//
// On violation the harness shrinks the command sequence with delta
// debugging to a minimal deterministic reproducer, serializable as a .repro
// file that records its mode and replayable on the same stack via Replay or
// `custodysim -mc-replay`. Seeded bugs prove the
// checker has teeth: under the custodymutate build tag, internal/mutant
// selects a bug in internal/core's fairness comparison or executor
// tie-break, or a cost-sign bug in the Quincy policy that only the
// policy-generic invariants can catch.
//
// The QuickCheck stateful-testing lineage and Jepsen-style history checking
// are the reference points; see DESIGN.md §12.
package modelcheck

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/xrand"
)

// Op is one command kind of the checker's alphabet.
type Op string

// The command alphabet. Every op is total: when its target is not
// applicable in the current state (no inactive app left, no revocable
// executor, no active fault to restore) it degrades to a recorded no-op, so
// any subsequence of a generated sequence is itself a valid sequence —
// the property delta debugging relies on.
const (
	// OpSubmitApp activates the next pre-registered application. The driver
	// forbids registration after Start, so the harness registers MaxApps
	// applications up front and activation makes them eligible for jobs.
	OpSubmitApp Op = "submit-app"
	// OpSubmitJob submits a small job (shape selected by B) to active app
	// A mod active-count.
	OpSubmitJob Op = "submit-job"
	// OpGrantRound forces one full Custody allocation round followed by a
	// dispatch pass.
	OpGrantRound Op = "grant-round"
	// OpRevokeExecutor releases owned idle executor A mod executors back to
	// the pool (the §V "a specific executor can be released" message).
	OpRevokeExecutor Op = "revoke-executor"
	// OpInjectFault injects fault family A mod nFaults on target B.
	OpInjectFault Op = "inject-fault"
	// OpRestoreFault reverts fault family A mod nFaults.
	OpRestoreFault Op = "restore-fault"
	// OpAdvanceClock runs the event engine F simulated seconds forward.
	OpAdvanceClock Op = "advance-clock"
	// OpCompleteTask steps the engine until one more task finishes (or the
	// queue drains).
	OpCompleteTask Op = "complete-task"
	// OpSetPolicy switches the manager's allocation policy to
	// policy.Names()[A mod len] for all subsequent rounds. Selecting custody
	// re-arms the Custody-specific invariants (SelfCheck differential,
	// fairness-key monotonicity, Algorithm 2 job ordering); any other policy
	// detaches them and leaves the policy-generic core (slot conservation,
	// double-grant, replica hygiene, audit, plan contract) in force
	// (DESIGN.md §16).
	OpSetPolicy Op = "set-policy"
)

// Command is one step of a checker sequence. A and B select targets, F is
// the operand of time-valued ops. Commands are plain data: their meaning is
// resolved against the harness state at apply time, so removing commands
// never invalidates later ones.
type Command struct {
	Op Op      `json:"op"`
	A  int     `json:"a,omitempty"`
	B  int     `json:"b,omitempty"`
	F  float64 `json:"f,omitempty"`
}

func (c Command) String() string {
	switch c.Op {
	case OpAdvanceClock:
		return fmt.Sprintf("%s %.2fs", c.Op, c.F)
	case OpSetPolicy:
		return fmt.Sprintf("%s %s", c.Op, policyTarget(c.A))
	case OpSubmitApp, OpGrantRound, OpCompleteTask, OpSrvCrash, OpSrvDrain, OpSrvRegister:
		return string(c.Op)
	case OpSrvRound:
		mode := "normal"
		if c.A%2 == 1 {
			mode = "degraded"
		}
		return fmt.Sprintf("%s %.2fs %s", c.Op, c.F, mode)
	default:
		return fmt.Sprintf("%s a=%d b=%d", c.Op, c.A, c.B)
	}
}

// Generate produces n commands from the seed. Generation is a pure function
// of (seed, n): it consumes the generator in a fixed order regardless of
// harness state, so the same seed always yields the same sequence and a
// shrunken subsequence replays identically from the serialized commands.
func Generate(seed uint64, n int) []Command {
	rng := xrand.New(seed).Fork("modelcheck-commands")
	cmds := make([]Command, 0, n)
	for i := 0; i < n; i++ {
		cmds = append(cmds, genCommand(rng))
	}
	return cmds
}

// genCommand draws one weighted command. Weights favor the submit/grant/
// complete cycle so sequences exercise contended allocation rounds, with
// enough faults and clock advances to explore the chaos surface.
func genCommand(rng *xrand.Rand) Command {
	c := Command{A: rng.Intn(64), B: rng.Intn(64)}
	switch w := rng.Intn(21); {
	case w < 2:
		c.Op = OpSubmitApp
	case w < 6:
		c.Op = OpSubmitJob
	case w < 9:
		c.Op = OpGrantRound
	case w < 11:
		c.Op = OpRevokeExecutor
	case w < 13:
		c.Op = OpInjectFault
	case w < 15:
		c.Op = OpRestoreFault
	case w < 17:
		c.Op = OpAdvanceClock
		c.F = rng.Range(0.1, 4.0)
	case w < 18:
		c.Op = OpSetPolicy
	default:
		c.Op = OpCompleteTask
	}
	return c
}

// Repro is a serialized minimal reproducer: the harness seed (which fixes
// HDFS placement and all driver randomness), the exact command list, and
// the stack it ran on. A file without "server" is a driver-mode reproducer.
type Repro struct {
	Seed     uint64    `json:"seed"`
	Commands []Command `json:"commands"`
	Server   bool      `json:"server,omitempty"`
}

// Encode renders the reproducer as indented JSON.
func (r Repro) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeRepro parses a serialized reproducer.
func DecodeRepro(data []byte) (Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return Repro{}, fmt.Errorf("modelcheck: bad repro: %w", err)
	}
	return r, nil
}

// WriteRepro writes the reproducer to path.
func WriteRepro(path string, r Repro) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a reproducer from path.
func ReadRepro(path string) (Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, err
	}
	return DecodeRepro(data)
}
