// Package serve is the streaming multi-session inference engine: the
// runtime face of the CHRIS stack. Where internal/sim replays one user
// against a tick loop, serve multiplexes many independent PPG streams
// over one shared model zoo, coalescing ready windows across users into
// wide GEMM batches (the PR 5 cross-sample im2col machinery) while
// keeping every piece of per-user state — difficulty routing, offload
// protocol, burst-channel Markov state, reselection hysteresis —
// strictly session-local.
//
// # Pipeline
//
// Each session owns a bounded mailbox. A cycle (the coalescer) runs in
// four stages:
//
//	Submit ──▶ [mailbox]─┐
//	Submit ──▶ [mailbox]─┼─▶ collect+route ─▶ group by (model, len) ─▶
//	Submit ──▶ [mailbox]─┘    (per session)      wide GEMM batches
//	                     ─▶ batch inference ─▶ finalize (per session)
//
// Stage 1 routes each session's windows in submission order: deadline
// triage and shedding here, then the session's sim.Step — the same
// per-window pipeline the offline simulator runs — for the link check,
// the belief-gated dispatch, the offload protocol with fallback to the
// simple model, and reselection hysteresis. Stage 2 groups runnable
// windows across sessions by (model, sample length); stage 3 runs each
// group in batch chunks on worker clones; stage 4 folds results and
// counters back per session. The step splits at the inference boundary:
// it decides which model produces each window's estimate, and the
// coalesced stages 2–3 compute it.
//
// Every session runs a fault injector (faults.None when Config.Faults is
// nil), so its reselection waits out the hysteresis of Config.Protocol.
// A session is only created when the constraint selects a configuration
// in both link states, so no reselection can fail mid-stream.
//
// # Overload ladder
//
// Degradation is explicit and ordered; each rung is cheaper and uglier
// than the one above:
//
//  1. drop at admission — the session mailbox is full (SubmitDropped),
//     or the engine-wide MaxPending bound is hit (SubmitRejected);
//  2. expire at dequeue — the window's deadline passed while it queued
//     (OutcomeExpired, no inference spent);
//  3. shed — the mailbox was past high water at collect: the windows
//     degrade to the watch-side simple model (OutcomeShed);
//  4. degrade — the offload pipeline failed (loss, timeout, supervision
//     drop, phone down) and the window falls back to the simple model
//     (OutcomeFallback);
//  5. late discard — inference finished past the deadline; the result
//     is discarded after the fact (OutcomeLate).
//
// The engine never blocks a submitter and never queues unboundedly:
// under overload it answers with cheaper estimates, not with latency.
//
// # Supervision
//
// Panics are contained at three scopes. A stage-1 panic (dispatch,
// classifier) marks that window OutcomePanic and restarts only its
// session. A batched-inference panic falls back to serial per-window
// inference, where a per-window recover isolates the poisoned window;
// batched and serial paths are bitwise identical, so batch-mates are
// unaffected in value, not just in liveness. A wedged cycle — no
// finalize progress while work is pending — is detected by the wall-mode
// watchdog, which fails the engine loudly (Err, OnStall) rather than
// letting it present as silent latency.
//
// # Clock injection and determinism
//
// Every time-dependent decision flows through the injected Clock. With a
// VirtualClock the engine runs in lockstep: nothing happens outside
// Tick, the clock is frozen during a cycle, and per-session fault
// streams are forked from (scenario, seed, session ID). A session's
// results are then a pure function of its own submission schedule and
// seed — byte-replayable, independent of scheduling, of batch
// composition, and of every other session. The only exception is the
// engine-wide MaxPending bound, which reads global state and is meant as
// a wall-mode guard. With a WallClock the identical machinery becomes a
// live server (cmd/chrisserve): a pump goroutine drains mailboxes every
// FlushSeconds and a watchdog guards progress.
//
// # Durability and migration
//
// Snapshot serializes the complete per-session state — offload state
// machine, hysteresis streaks, reconnect holdoff, rng position, belief
// posterior, counters and undrained results — as one CRC-protected CHSS
// frame bound to ConfigHash; Checkpoint persists it with the atomic
// partial-file+rename discipline (wall mode checkpoints itself every
// CheckpointSeconds when CheckpointPath is set). Restore rebuilds every
// session inside a freshly opened engine and, under a VirtualClock,
// advances the clock to the checkpoint instant, so a crashed run resumed
// from its last quiesced checkpoint is byte-identical to one that never
// stopped (TestCheckpointResumeBitwise). Queued mailbox windows are
// deliberately not captured: a crash loses in-flight work, exactly as a
// real device does.
//
// Detach and Attach move one drained session between engines as a
// standalone frame; the migrated stream continues bitwise as if it never
// moved (TestMigrationBitwise). Damaged frames fail typed —
// ErrSnapshotCorrupt for broken bytes, ErrSnapshotStale for intact
// frames from another configuration or version — and AttachOrFresh
// degrades deterministically to a fresh session with a uniform belief
// prior, recording the failure in SessionStats. The FuzzSnapshot target
// pins the codec: any input is either rejected typed or restores to a
// state that re-encodes byte-identically.
package serve
