//! Simulated NVMe-like SSDs.
//!
//! The Oasis storage engine (§3.4) forwards block I/O between frontend
//! drivers and the submission/completion queues of host-attached SSDs,
//! operated through their native driver (SPDK in the paper). This crate is
//! the simulated SSD: 64 B commands mirroring the NVMe command layout,
//! SQ/CQ semantics, DMA directly to/from CXL pool memory (bypassing CPU
//! caches), a latency/bandwidth model matching Table 1's datacenter-SSD
//! figures, and failure injection for the engine's error-propagation path.

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
pub mod ssd;

pub use command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
pub use ssd::{Ssd, SsdConfig};

/// Logical block size (bytes). Datacenter NVMe namespaces are formatted
/// 4 KiB.
pub const BLOCK_SIZE: u64 = 4096;
