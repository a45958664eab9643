//! Metric name registry for `oasis-bench` (see `oasis-check`'s
//! `metric-name` rule: every metric name literal in the workspace lives in
//! its crate's `metrics.rs`, is `snake_case`, and carries the crate
//! prefix).
//!
//! These are harness-side metrics: tallies owned by experiment clients and
//! timed phases rather than by pod components, folded into the same
//! snapshot as the pod's own export so a figure prints every number from
//! one canonical source.

/// Packets sent by an experiment's client endpoint (tag = client id).
pub const CLIENT_SENT: &str = "bench.client_sent";
/// Packets received back by an experiment's client endpoint.
pub const CLIENT_RECEIVED: &str = "bench.client_received";
/// Packets lost as seen by an experiment's client endpoint.
pub const CLIENT_LOST: &str = "bench.client_lost";

/// Jobs completed by an accel-offload batch (tag = sharing-host count).
pub const ACCEL_BATCH_JOBS: &str = "bench.accel_batch_jobs";
/// Simulated makespan of an accel-offload batch in nanoseconds
/// (tag = sharing-host count).
pub const ACCEL_MAKESPAN_NS: &str = "bench.accel_makespan_ns";
