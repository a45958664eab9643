//! Metric name registry for `oasis-sim` (see `oasis-check`'s `metric-name`
//! rule: every metric name literal in the workspace lives in its crate's
//! `metrics.rs`, is `snake_case`, and carries the crate prefix).
//!
//! The scheduler's ambient stats are only *collected* behind the `obs`
//! feature, but the names are registered unconditionally so downstream
//! crates can reference the constants without feature gymnastics.

/// Total actor dispatches across a run (tag 0).
pub const SCHED_DISPATCHES: &str = "sim.sched_dispatches";
/// Superseded heap entries filtered on pop (tag 0).
pub const SCHED_STALE_SKIPS: &str = "sim.sched_stale_skips";
/// Dispatch count per actor (tag = actor id).
pub const SCHED_ACTOR_POLLS: &str = "sim.sched_actor_polls";
/// Histogram: sim time between a wake being armed and its dispatch (tag 0).
pub const SCHED_WAKE_TO_POLL_NS: &str = "sim.sched_wake_to_poll_ns";
/// Park episodes ended: an idle engine left the pod's run queue and came
/// back (tag 0).
pub const SCHED_IDLE_SKIPS: &str = "sim.sched_idle_skips";
/// Histogram: sim nanoseconds of elided polling rounds per park episode
/// (tag 0).
pub const SCHED_IDLE_SKIP_NS: &str = "sim.sched_idle_skip_ns";
/// Window barriers crossed by a sharded run (tag 0).
pub const SHARD_WINDOWS: &str = "sim.shard_windows";
/// Events processed per shard under the sharded runner (tag = shard index).
pub const SHARD_EVENTS: &str = "sim.shard_events";
/// Shard-window visits that processed zero events (tag 0).
pub const SHARD_BARRIER_STALLS: &str = "sim.shard_barrier_stalls";
/// Cross-shard messages exchanged at window barriers (tag 0).
pub const SHARD_MESSAGES: &str = "sim.shard_messages";
/// Histogram: realized lookahead-window lengths in sim nanoseconds (tag 0).
pub const SHARD_WINDOW_NS: &str = "sim.shard_window_ns";
