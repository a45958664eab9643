//! Simulated pooled compute-offload accelerators.
//!
//! Oasis's thesis is that *any* PCIe device class fits behind the same
//! frontend/backend message-channel split (§3.1); this crate is the third
//! device model proving it, next to NICs (`oasis-net`) and SSDs
//! (`oasis-storage`). An accelerator accepts 64 B job descriptors through a
//! bounded submission queue, DMAs the input straight out of CXL pool memory
//! (no CPU-cache involvement, §3.2.1), runs a fixed-function kernel
//! (checksum or byte-scale), DMAs the result back, and posts a completion.
//! Latency is a setup cost plus a bandwidth term, with internal channel
//! parallelism — the same shape as the SSD model, so pooling economics
//! carry over.
//!
//! Fault injection mirrors the SSD's: a timeout window silently swallows
//! jobs (exercising the engine's retry path) and a compute-error window
//! completes jobs with an error status and poisoned output.

// A crashed driver must degrade, not abort the whole simulated pod
// (DESIGN.md §14); `clippy.toml` lets tests unwrap, expect and panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod command;
pub mod device;

pub use command::{fnv1a, AccelCommand, AccelCompletion, AccelOp, AccelStatus};
pub use device::{AccelConfig, AccelDevice};
