//! Deterministic discrete-event simulation (DES) core for the Oasis
//! reproduction.
//!
//! The original Oasis prototype (SOSP '25) runs on two physical hosts that
//! share a CXL 2.0 memory pool and a wall clock. This crate replaces the wall
//! clock with a simulated nanosecond clock and provides the building blocks
//! every other crate uses:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`rng::SimRng`] — a seedable, portable PRNG with the heavy-tailed
//!   distributions needed for bursty datacenter traffic,
//! * [`event::EventQueue`] — a stable (FIFO-on-tie) priority queue of timed
//!   events,
//! * [`sched::Scheduler`] — a cooperative actor scheduler generic over the
//!   simulated "world",
//! * [`shard::ShardedRunner`] — conservative time-window parallelism over N
//!   schedulers with deterministic cross-shard message merge,
//! * [`hist::Histogram`] — a log-linear latency histogram (HDR-style) for
//!   percentile reporting,
//! * [`series::BinnedSeries`] — fixed-width time bins for utilization
//!   measurements (the paper bins NIC bandwidth at 10 µs granularity).
//!
//! Everything is deterministic: given the same seed, every experiment binary
//! in `oasis-bench` reproduces bit-identical output.

pub mod detmap;
pub mod event;
pub mod fault;
pub mod hist;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod sched;
pub mod series;
pub mod shard;
pub mod time;

pub use detmap::{DetMap, DetSet};
pub use event::EventQueue;
pub use fault::{
    AccelFaultMode, FaultEvent, FaultInjector, FaultKind, FaultMix, FaultPlan, PacketFaultState,
};
pub use hist::Histogram;
pub use rng::SimRng;
pub use sched::{Scheduler, StepCtx, StepOutcome};
pub use series::BinnedSeries;
pub use shard::{Envelope, Outgoing, ShardError, ShardWorld, ShardedRunner, SHARD_THREADS_ENV};
pub use time::{SimDuration, SimTime};
