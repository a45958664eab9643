//! Simulated CXL 2.0 memory pool with *functional* non-coherence.
//!
//! The Oasis paper builds on a multi-headed CXL memory device (MHD) shared by
//! several hosts. Crucially, CXL 2.0 pools are **not cache-coherent across
//! hosts**: a host that caches a line keeps reading its stale copy after
//! another host (or a device DMA) overwrites pool memory, and a host's dirty
//! cached write is invisible to everyone else until it is written back. The
//! entire design of Oasis's datapath (§3.2 of the paper) exists to manage
//! this, so this crate models non-coherence functionally, not just as a
//! latency number:
//!
//! * [`pool::CxlPool`] — flat pool memory plus per-host-port link meters that
//!   attribute traffic to a [`pool::TrafficClass`] (payload vs. message
//!   vs. control — Table 3 of the paper splits bandwidth this way).
//! * [`cache::HostCache`] — a per-host write-back cache of 64 B lines with
//!   LRU eviction and prefetch tracking. Reads hit stale snapshots; dirty
//!   lines are invisible to the pool until `clwb`/`clflushopt`/eviction.
//! * [`host::HostCtx`] — the CPU-visible memory-operation API
//!   (`read`/`write`/`clflushopt`/`clwb`/`mfence`/`prefetch`), every
//!   operation advancing the host's cycle-accounted local clock per
//!   [`cost::CostModel`].
//! * Device DMA ([`pool::CxlPool::dma_read`]/[`pool::CxlPool::dma_write`])
//!   bypasses all CPU caches, exactly as the paper assumes once DDIO is
//!   disabled (§3.2.1).
//!
//! Latency constants are calibrated to the paper's published ratios: CXL
//! load-to-use ≈ 2.3× local DDR, one-way message latency ≈ 0.6 µs.

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

pub mod cache;
pub mod cost;
pub mod dma;
pub mod host;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod region;
pub mod sanitizer;
pub mod topology;

pub use cache::HostCache;
pub use cost::CostModel;
pub use dma::{DmaMemory, MemRef};
pub use host::HostCtx;
pub use pool::{CxlPool, LinkMeter, PortId, TrafficClass};
pub use region::{Region, RegionAllocator};
pub use sanitizer::{Report, ReportKind, Sanitizer, Severity};
pub use topology::{CrossPodLink, FleetTopology, PodTopology};

/// Cache-line size in bytes; everything in the pool is managed at this
/// granularity.
pub const LINE: u64 = 64;

/// Round an address down to its line base.
#[inline]
pub fn line_base(addr: u64) -> u64 {
    addr & !(LINE - 1)
}

/// Iterate over the base addresses of all lines touched by `[addr, addr+len)`
/// (a zero-length access still touches its containing line).
#[inline]
pub fn lines_covering(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = line_base(addr);
    let last = if len == 0 {
        first
    } else {
        line_base(addr + len - 1)
    };
    (first..last + LINE).step_by(LINE as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_masks_low_bits() {
        assert_eq!(line_base(0), 0);
        assert_eq!(line_base(63), 0);
        assert_eq!(line_base(64), 64);
        assert_eq!(line_base(130), 128);
    }

    #[test]
    fn lines_covering_spans() {
        let v: Vec<u64> = lines_covering(10, 4).collect();
        assert_eq!(v, vec![0]);
        let v: Vec<u64> = lines_covering(60, 8).collect();
        assert_eq!(v, vec![0, 64]);
        let v: Vec<u64> = lines_covering(64, 128).collect();
        assert_eq!(v, vec![64, 128]);
        let v: Vec<u64> = lines_covering(0, 0).collect();
        assert_eq!(v, vec![0]);
    }
}
