//! Property-based tests of the non-coherent memory model's invariants.
//!
//! These are the contracts every driver in the workspace relies on:
//!
//! 1. **Read-your-own-writes**: a host always reads back what it last wrote
//!    (through its own cache), regardless of flush history.
//! 2. **Write-back completeness**: after `clwb`+`mfence` (or `clflushopt`+
//!    `mfence`), pool memory holds exactly the written bytes — eviction
//!    order, cache capacity, and interleaving never lose a byte.
//! 3. **Invalidate-then-read freshness**: after `clflushopt`, the next read
//!    observes current pool contents.
//! 4. **DMA isolation**: device DMA never observes un-written-back CPU
//!    state.

#![expect(
    clippy::disallowed_methods,
    reason = "the model is checked against raw pool bytes"
)]

use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator};
use oasis_sim::time::SimTime;
use proptest::prelude::*;

const AREA: u64 = 8192;

fn setup(cache_lines: usize) -> (CxlPool, HostCtx) {
    let mut pool = CxlPool::new(1 << 16, 2);
    let mut ra = RegionAllocator::new(&pool);
    ra.alloc(&mut pool, "area", AREA, TrafficClass::Payload);
    let host = HostCtx::with_cache(PortId(0), 0, cache_lines, oasis_cxl::CostModel::default());
    (pool, host)
}

/// A random memory operation.
#[derive(Clone, Debug)]
enum Op {
    Write { addr: u64, val: u8, len: u8 },
    Read { addr: u64, len: u8 },
    Clwb { addr: u64 },
    Flush { addr: u64 },
    Fence,
    Prefetch { addr: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..AREA - 64, any::<u8>(), 1u8..64).prop_map(|(addr, val, len)| Op::Write {
            addr,
            val,
            len
        }),
        (0..AREA - 64, 1u8..64).prop_map(|(addr, len)| Op::Read { addr, len }),
        (0..AREA).prop_map(|addr| Op::Clwb { addr }),
        (0..AREA).prop_map(|addr| Op::Flush { addr }),
        Just(Op::Fence),
        (0..AREA).prop_map(|addr| Op::Prefetch { addr }),
    ]
}

proptest! {
    /// Read-your-own-writes: a shadow byte array tracks what the host
    /// wrote; every read must return the shadow contents, no matter how
    /// flushes, fences, prefetches, and evictions interleave (including
    /// with a tiny 4-line cache that evicts constantly).
    #[test]
    fn read_your_own_writes(
        cache_lines in prop_oneof![Just(4usize), Just(64), Just(4096)],
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let (mut pool, mut host) = setup(cache_lines);
        let mut shadow = vec![0u8; AREA as usize];
        for op in ops {
            match op {
                Op::Write { addr, val, len } => {
                    let data = vec![val; len as usize];
                    host.write(&mut pool, addr, &data);
                    shadow[addr as usize..addr as usize + len as usize]
                        .copy_from_slice(&data);
                }
                Op::Read { addr, len } => {
                    let mut out = vec![0u8; len as usize];
                    host.read(&mut pool, addr, &mut out);
                    prop_assert_eq!(
                        &out[..],
                        &shadow[addr as usize..addr as usize + len as usize],
                        "read at {} diverged from shadow", addr
                    );
                }
                Op::Clwb { addr } => host.clwb(&mut pool, addr),
                Op::Flush { addr } => host.clflushopt(&mut pool, addr),
                Op::Fence => host.mfence(&mut pool),
                Op::Prefetch { addr } => host.prefetch(&mut pool, addr),
            }
        }
    }

    /// Write-back completeness: after flushing every touched line and
    /// fencing, pool memory equals the shadow exactly (single writer).
    #[test]
    fn flush_fence_publishes_everything(
        cache_lines in prop_oneof![Just(4usize), Just(4096)],
        writes in proptest::collection::vec(
            (0..AREA - 64, any::<u8>(), 1u8..64),
            1..100
        ),
    ) {
        let (mut pool, mut host) = setup(cache_lines);
        let mut shadow = vec![0u8; AREA as usize];
        for &(addr, val, len) in &writes {
            let data = vec![val; len as usize];
            host.write(&mut pool, addr, &data);
            shadow[addr as usize..addr as usize + len as usize].copy_from_slice(&data);
        }
        for la in (0..AREA).step_by(64) {
            host.clwb(&mut pool, la);
        }
        host.mfence(&mut pool);
        pool.apply_pending(host.clock);
        let mut out = vec![0u8; AREA as usize];
        pool.peek(0, &mut out);
        prop_assert_eq!(out, shadow);
    }

    /// DMA isolation + freshness: a device writes fresh data; a host that
    /// had the line cached reads stale until it invalidates, after which it
    /// must read exactly the DMA'd bytes.
    #[test]
    fn dma_then_invalidate_reads_fresh(
        line in 0u64..(AREA / 64),
        old in any::<u8>(),
        new in any::<u8>(),
    ) {
        prop_assume!(old != new);
        let (mut pool, mut host) = setup(4096);
        let addr = line * 64;
        // Host caches the old value (written back so DMA-read sees it too).
        host.write(&mut pool, addr, &[old; 64]);
        host.clwb(&mut pool, addr);
        host.mfence(&mut pool);
        pool.apply_pending(host.clock);
        // Device overwrites via DMA.
        pool.dma_write(SimTime::MAX, PortId(1), addr, &[new; 64]);
        // Cached read is stale...
        let mut out = [0u8; 1];
        host.read(&mut pool, addr, &mut out);
        prop_assert_eq!(out[0], old, "cached read must be stale");
        // ...until invalidated.
        host.clflushopt(&mut pool, addr);
        host.mfence(&mut pool);
        host.read(&mut pool, addr, &mut out);
        prop_assert_eq!(out[0], new, "post-invalidate read must be fresh");
    }

    /// `read_stream` returns the same bytes as `read` for any span.
    #[test]
    fn stream_read_equals_scalar_read(
        addr in 0u64..(AREA - 2048),
        len in 1usize..2048,
        fill in any::<u8>(),
    ) {
        let (mut pool, mut host) = setup(4096);
        pool.poke(addr, &vec![fill; len]);
        let mut a = vec![0u8; len];
        host.read_stream(&mut pool, addr, &mut a);
        // Fresh host for the scalar read (cold cache).
        let (_, mut host2) = setup(4096);
        let mut b = vec![0u8; len];
        host2.read(&mut pool, addr, &mut b);
        prop_assert_eq!(a, b);
    }
}
