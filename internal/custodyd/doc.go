// Package custodyd turns the batch reproduction into a long-running,
// crash-tolerant allocation service. It layers three pieces over the warm
// manager.Custody session and the driver's round machinery:
//
//   - Service: a deterministic, single-threaded event-sourced core. Every
//     externally visible state change is an Op (register-app, submit-job,
//     round, inject-fault, restore-fault, drain) validated first, appended
//     to a Journal second, and applied to the driver stack third. Because
//     ops are the only way state changes and the stack is deterministic,
//     replaying the journal into a fresh Service reproduces the exact state
//     — Digest() is byte-identical — which is the whole recovery story.
//   - WAL / Checkpoint: the file-backed Journal (append-only intent log
//     with per-line checksums and torn-tail tolerance; the file is the only
//     copy, streamed at replay) and a periodic atomic snapshot of the
//     allocator-visible state. The checkpoint is a verifier and fast status
//     page, not the replay source: recovery replays the log once from
//     genesis and checks the checkpoint's digest when that replay reaches
//     the checkpoint's sequence number.
//   - Server: the concurrent edge. It owns the HTTP API (register-app /
//     submit-job / heartbeat / status plus a live OpenMetrics /metrics
//     page), admission control (a per-tenant bound on accepted but
//     unfinished jobs, quota checks, 429 shed responses with Retry-After),
//     the wall-clock degraded-mode ladder, and graceful shutdown (run the
//     engine dry, flush sinks, final checkpoint). It keeps no submission
//     queue of its own: the intent log is the queue. submit-job commits
//     its op before answering 202, so an acknowledged job survives kill -9.
//     All wall-clock inputs are injected (ServerConfig.Clock / Tick) so
//     internal/ stays free of ambient time and tests drive the ladder
//     deterministically.
//
// Degraded rounds skip the explicit Reallocate pass (fallback-only
// locality: executors keep flowing through the driver's own event-driven
// rounds, but the service stops forcing fresh data-aware plans) and cover a
// coarser slice of simulated time per round. Whether a round was degraded
// is recorded in its Op, so replay follows the log, not the clock, and
// recovery stays deterministic even though the trigger was wall time.
package custodyd
