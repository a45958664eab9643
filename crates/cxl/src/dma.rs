//! Device-side memory access.
//!
//! PCIe devices (NICs, SSDs) reach memory through DMA, which — with DDIO
//! disabled as the paper assumes (§3.2.1) — bypasses every CPU cache. A
//! device's buffer may live either in the shared CXL pool (the Oasis
//! datapath) or in its host's local DRAM (the baseline configuration), so
//! DMA is abstracted over [`MemRef`]; the pod world implements [`DmaMemory`]
//! by dispatching to [`crate::CxlPool`] or the owning host's DRAM.

use oasis_sim::time::SimTime;

/// Where an I/O buffer lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemRef {
    /// Shared CXL pool memory at this address.
    Pool(u64),
    /// The device's host's local DRAM at this address.
    HostLocal(u64),
}

/// How a device reaches memory. Both paths bypass CPU caches.
pub trait DmaMemory {
    /// DMA read `out.len()` bytes from `mem`.
    fn dma_read(&mut self, now: SimTime, mem: MemRef, out: &mut [u8]);
    /// DMA write `data` to `mem`.
    fn dma_write(&mut self, now: SimTime, mem: MemRef, data: &[u8]);
    /// Access latency for a DMA transaction against `mem`.
    fn dma_latency_ns(&self, mem: MemRef) -> u64;
}

/// A flat byte array reached by DMA at a fixed 850 ns per transaction: the
/// test double the device models' unit tests (NIC, SSD, accelerator) run
/// against. A [`MemRef`] of either kind indexes `mem` directly; an access
/// past its end panics.
pub struct FlatMem {
    /// The memory.
    pub mem: Vec<u8>,
}

impl FlatMem {
    fn range(mem: MemRef, len: usize) -> std::ops::Range<usize> {
        let (MemRef::Pool(a) | MemRef::HostLocal(a)) = mem;
        a as usize..a as usize + len
    }
}

impl DmaMemory for FlatMem {
    fn dma_read(&mut self, _now: SimTime, mem: MemRef, out: &mut [u8]) {
        out.copy_from_slice(&self.mem[Self::range(mem, out.len())]);
    }
    fn dma_write(&mut self, _now: SimTime, mem: MemRef, data: &[u8]) {
        self.mem[Self::range(mem, data.len())].copy_from_slice(data);
    }
    fn dma_latency_ns(&self, _mem: MemRef) -> u64 {
        850
    }
}
