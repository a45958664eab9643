//! The common Oasis datapath (§3.2): buffer areas and channel plumbing in
//! shared CXL memory.
//!
//! I/O buffers live in the pool so any host (and any device, via DMA) can
//! reach them without copies; message channels signal requests and
//! completions. Buffer areas are carved from class-tagged regions so the
//! CXL link meters can split payload from message traffic (Table 3).

use oasis_channel::{ChannelLayout, Policy, Receiver, Sender, DEFAULT_SLOTS, MSG16};
use oasis_cxl::dma::{DmaMemory, MemRef};
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, Region, RegionAllocator};
use oasis_sim::time::{SimDuration, SimTime};

use crate::park::IdleRound;

/// A pool-backed packet-buffer allocator (free-list over fixed-size slots).
///
/// Used for per-instance TX areas (owned by the frontend driver) and
/// per-NIC RX areas (owned by the backend driver).
pub struct BufferArea {
    region: Region,
    buf_size: u64,
    free: Vec<u64>,
}

impl BufferArea {
    /// Create an area over `region` with fixed `buf_size` slots.
    pub fn new(region: Region, buf_size: u64) -> Self {
        let count = region.size / buf_size;
        assert!(count > 0, "buffer area too small");
        // Stack of free buffer addresses; popped from the end so reuse is
        // LIFO (cache-friendlier for the copying frontend).
        let free = (0..count)
            .map(|i| region.base + i * buf_size)
            .rev()
            .collect();
        BufferArea {
            region,
            buf_size,
            free,
        }
    }

    /// Allocate one buffer; `None` when exhausted (backpressure).
    pub fn alloc(&mut self) -> Option<u64> {
        self.free.pop()
    }

    /// Return a buffer to the free list.
    pub fn free(&mut self, addr: u64) {
        debug_assert!(self.region.contains(addr), "foreign buffer {addr:#x}");
        debug_assert_eq!((addr - self.region.base) % self.buf_size, 0);
        debug_assert!(!self.free.contains(&addr), "double free of {addr:#x}");
        self.free.push(addr);
    }

    /// Buffers currently free.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Total buffers in the area.
    pub fn capacity(&self) -> u64 {
        self.region.size / self.buf_size
    }

    /// Buffer slot size.
    pub fn buf_size(&self) -> u64 {
        self.buf_size
    }

    /// The backing region.
    pub fn region(&self) -> &Region {
        &self.region
    }
}

impl crate::snapshot::Snapshottable for BufferArea {
    /// The free list is logical state — its LIFO order decides which buffer
    /// the next `alloc` hands out, so it is serialized exactly, not as a
    /// set. The region and slot size are topology (rebuilt by the pod
    /// builder) and are only validated against on restore.
    fn snapshot_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.free.len() as u64);
        for &addr in &self.free {
            w.put_u64(addr);
        }
    }

    fn restore_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = r.u64("buffer free-list length")?;
        if n > self.capacity() {
            return Err(SnapshotError::Corrupt("buffer free-list length"));
        }
        let mut free = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let addr = r.u64("buffer free-list entry")?;
            if !self.region.contains(addr)
                || !(addr - self.region.base).is_multiple_of(self.buf_size)
            {
                return Err(SnapshotError::Corrupt("buffer free-list entry"));
            }
            free.push(addr);
        }
        self.free = free;
        Ok(())
    }
}

/// The DMA view every Oasis backend hands its device for one step: all
/// Oasis I/O buffers live in the pool, reached through the backend host's
/// CXL port.
pub struct PoolDma<'a> {
    pool: &'a mut CxlPool,
    port: PortId,
    dma_cxl_ns: u64,
}

impl<'a> PoolDma<'a> {
    /// DMA through the port and cost model of the backend's polling `core`.
    pub fn new(pool: &'a mut CxlPool, core: &HostCtx) -> Self {
        PoolDma {
            pool,
            port: core.port,
            dma_cxl_ns: core.costs.dma_cxl_ns,
        }
    }
}

impl DmaMemory for PoolDma<'_> {
    fn dma_read(&mut self, now: SimTime, mem: MemRef, out: &mut [u8]) {
        match mem {
            MemRef::Pool(a) => self.pool.dma_read(now, self.port, a, out),
            MemRef::HostLocal(_) => {
                // Oasis-mode buffers live in the pool by construction; a
                // local ref here is a wiring bug, surfaced in debug builds
                // and answered with zeroes in release.
                debug_assert!(false, "oasis buffers live in the pool");
                out.fill(0);
            }
        }
    }
    fn dma_write(&mut self, now: SimTime, mem: MemRef, data: &[u8]) {
        match mem {
            MemRef::Pool(a) => self.pool.dma_write(now, self.port, a, data),
            MemRef::HostLocal(_) => {
                // See dma_read: a local ref cannot occur; drop the write
                // rather than crash the pod.
                debug_assert!(false, "oasis buffers live in the pool");
            }
        }
    }
    fn dma_latency_ns(&self, _mem: MemRef) -> u64 {
        self.dma_cxl_ns
    }
}

/// A unidirectional channel endpoint pair (sender on one core, receiver on
/// another) allocated in pool memory.
pub struct ChannelPair {
    /// Sending half (lives with the producing driver).
    pub sender: Sender,
    /// Receiving half (lives with the consuming driver).
    pub receiver: Receiver,
}

/// Allocate one direction of an engine link: a message channel with
/// `msg_bytes`-sized slots in pool memory, using the shipping receiver
/// policy (④ invalidate-prefetched). This is the single place channel
/// layout math lives — every engine's channels (16 B net descriptors, 64 B
/// NVMe/accel descriptors) are carved here.
pub fn alloc_msg_channel(
    pool: &mut CxlPool,
    ra: &mut RegionAllocator,
    name: &str,
    slots: u64,
    msg_bytes: u64,
) -> ChannelPair {
    let region = ra.alloc(
        pool,
        name,
        ChannelLayout::bytes_needed(slots, msg_bytes),
        TrafficClass::Message,
    );
    let layout = ChannelLayout::in_region(&region, slots, msg_bytes);
    ChannelPair {
        sender: Sender::new(layout.clone()),
        receiver: Receiver::new(layout, Policy::InvalidatePrefetched),
    }
}

/// Allocate one direction of a typed descriptor channel: slot size comes
/// from the descriptor type's wire size, so frontends and backends agree on
/// the layout by construction.
pub fn alloc_descriptor_channel<D: crate::engine::WireDescriptor>(
    pool: &mut CxlPool,
    ra: &mut RegionAllocator,
    name: &str,
    slots: u64,
) -> ChannelPair {
    alloc_msg_channel(pool, ra, name, slots, D::WIRE_SIZE as u64)
}

/// One driver's end of a descriptor link: the channel pair to the driver on
/// the other side (a frontend's link to a device's backend, or a backend's
/// link to a frontend host).
pub(crate) struct Link {
    /// Device index (frontend side) or frontend host (backend side).
    pub peer: usize,
    pub to: Sender,
    pub from: Receiver,
}

impl Link {
    /// Index of the link to `peer` in a driver's link table.
    pub fn find(links: &[Link], peer: usize) -> Option<usize> {
        links.iter().position(|l| l.peer == peer)
    }

    /// The receivers a round over `links` polls, in polling order, and the
    /// senders it flushes ([`empty_round`]'s argument).
    pub fn channels(
        links: &[Link],
    ) -> (
        impl Iterator<Item = &Receiver> + Clone,
        impl Iterator<Item = &Sender>,
    ) {
        (links.iter().map(|l| &l.from), links.iter().map(|l| &l.to))
    }

    /// Send one descriptor and write its line back. `false` when the ring
    /// is full or refuses the message; nothing was enqueued.
    pub fn send<D: crate::engine::WireDescriptor>(
        &mut self,
        core: &mut HostCtx,
        pool: &mut CxlPool,
        d: &D,
    ) -> bool {
        let mut wire = [0u8; 64];
        d.encode_into(&mut wire);
        let sent = self
            .to
            .try_send(core, pool, &wire[..D::WIRE_SIZE])
            .unwrap_or(false);
        if sent {
            self.to.flush(core, pool);
        }
        sent
    }

    /// Poll for one descriptor: `None` when the ring is empty,
    /// `Some(None)` for a message that is not a `D`.
    pub fn recv<D: crate::engine::WireDescriptor>(
        &mut self,
        core: &mut HostCtx,
        pool: &mut CxlPool,
    ) -> Option<Option<D>> {
        let mut wire = [0u8; 64];
        let got = self.from.try_recv(core, pool, &mut wire[..D::WIRE_SIZE]);
        got.then(|| D::decode_from(&wire))
    }
}

/// The channel half of every [`crate::engine::DeviceEngine::idle_round`]:
/// the round a driver loop of `loop_ns` would run at `core`'s clock, polling
/// the receivers `rx` once each in that order and flushing the senders `tx`,
/// is a steady-state empty round if every poll is one
/// ([`Receiver::idle_poll_line`]), the core repeats itself
/// ([`HostCtx::empty_polls_repeat`]), no sender holds an unflushed line,
/// and the round ends before `due`, the earliest of the engine's own timers
/// ([`SimTime::MAX`]: it has none). Rounds check their timers at clocks up
/// to their end, so the proof stays valid until one tick before `due`.
pub(crate) fn empty_round<'a>(
    core: &HostCtx,
    pool: &CxlPool,
    loop_ns: u64,
    (rx, mut tx): (
        impl Iterator<Item = &'a Receiver> + Clone,
        impl Iterator<Item = &'a Sender>,
    ),
    due: SimTime,
) -> Option<IdleRound> {
    let c = &core.costs;
    let fetch_ns = c.poll_overhead_ns + c.cxl_load_ns;
    let poll_ns = fetch_ns + c.clflushopt_ns + c.mfence_ns;
    let polls = rx.clone().count() as u64;
    let period_ns = loop_ns + polls * poll_ns;
    let valid_until = SimTime::from_nanos(due.as_nanos().checked_sub(1)?);
    // The timers first: they are what usually says no.
    if period_ns == 0 || core.clock + SimDuration::from_nanos(period_ns) > valid_until {
        return None;
    }
    if tx.any(|s| s.has_unflushed()) {
        return None;
    }
    let first_fence = core.clock + SimDuration::from_nanos(loop_ns + fetch_ns + c.clflushopt_ns);
    if polls > 0 && !core.empty_polls_repeat(first_fence) {
        return None;
    }
    for r in rx {
        r.idle_poll_line(core, pool)?;
    }
    // Fetches sit `fetch_ns` into each poll; the last poll ends the round.
    let last_fetch_offset_ns = if polls > 0 {
        period_ns - poll_ns + fetch_ns
    } else {
        0
    };
    Some(IdleRound {
        period_ns,
        polls,
        last_fetch_offset_ns,
        valid_until,
    })
}

/// Allocate one direction of a driver↔driver link: a 16 B message channel.
pub fn alloc_net_channel(
    pool: &mut CxlPool,
    ra: &mut RegionAllocator,
    name: &str,
    slots: u64,
) -> ChannelPair {
    alloc_msg_channel(pool, ra, name, slots, MSG16 as u64)
}

/// Allocate a default-sized channel.
pub fn alloc_default_net_channel(
    pool: &mut CxlPool,
    ra: &mut RegionAllocator,
    name: &str,
) -> ChannelPair {
    alloc_net_channel(pool, ra, name, DEFAULT_SLOTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(buf_size: u64, total: u64) -> (CxlPool, BufferArea) {
        let mut pool = CxlPool::new(1 << 21, 2);
        let mut ra = RegionAllocator::new(&pool);
        let region = ra.alloc(&mut pool, "tx", total, TrafficClass::Payload);
        (pool, BufferArea::new(region, buf_size))
    }

    #[test]
    fn alloc_free_roundtrip() {
        let (_pool, mut a) = area(2048, 8192);
        assert_eq!(a.capacity(), 4);
        let b1 = a.alloc().unwrap();
        let b2 = a.alloc().unwrap();
        assert_ne!(b1, b2);
        assert_eq!(a.free_count(), 2);
        a.free(b1);
        assert_eq!(a.free_count(), 3);
        // LIFO reuse.
        assert_eq!(a.alloc().unwrap(), b1);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (_pool, mut a) = area(2048, 4096);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_none());
    }

    #[test]
    fn buffers_are_aligned_and_disjoint() {
        let (_pool, mut a) = area(2048, 8192);
        let mut addrs = Vec::new();
        while let Some(b) = a.alloc() {
            addrs.push(b);
        }
        addrs.sort_unstable();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= 2048);
        }
        for b in addrs {
            assert_eq!(b % 64, 0, "line-aligned buffers");
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_caught_in_debug() {
        let (_pool, mut a) = area(2048, 4096);
        let b = a.alloc().unwrap();
        a.free(b);
        a.free(b);
    }

    #[test]
    fn buffer_area_snapshot_roundtrips() {
        use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};
        let (_pool, mut a) = area(2048, 8192);
        let b1 = a.alloc().unwrap();
        let _b2 = a.alloc().unwrap();
        a.free(b1);
        let mut w = SnapshotWriter::new();
        a.snapshot_state(&mut w);
        let bytes = w.finish();
        // Restore into a freshly built area of the same shape.
        let (_pool2, mut fresh) = area(2048, 8192);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        fresh.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        // Byte-stable: restore → snapshot reproduces identical bytes.
        let mut w2 = SnapshotWriter::new();
        fresh.snapshot_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
        // And the LIFO order survives: next alloc hands back b1.
        assert_eq!(fresh.alloc(), Some(b1));
        // A free-list entry outside the region is a typed corruption.
        let mut w3 = SnapshotWriter::new();
        w3.put_u64(1);
        w3.put_u64(u64::MAX / 2);
        let bad = w3.finish();
        let (_pool3, mut victim) = area(2048, 8192);
        let mut r3 = SnapshotReader::open(&bad).unwrap();
        assert_eq!(
            victim.restore_state(&mut r3),
            Err(SnapshotError::Corrupt("buffer free-list entry"))
        );
    }

    #[test]
    fn channel_pair_end_to_end() {
        let mut pool = CxlPool::new(1 << 21, 2);
        let mut ra = RegionAllocator::new(&pool);
        let mut pair = alloc_default_net_channel(&mut pool, &mut ra, "fe0->be0");
        let mut tx = HostCtx::new(PortId(0), 0);
        let mut rx = HostCtx::new(PortId(1), 0);
        let msg = crate::msg::NetMsg {
            ptr: 0xdead,
            size: 64,
            op: crate::msg::NetOp::Tx,
            ip: oasis_net::addr::Ipv4Addr::instance(1),
        };
        assert!(pair
            .sender
            .try_send(&mut tx, &mut pool, &msg.encode())
            .unwrap());
        pair.sender.flush(&mut tx, &mut pool);
        rx.advance(10_000);
        let mut out = [0u8; 16];
        // May need a second poll after invalidating the stale line.
        let got = (0..3).any(|_| pair.receiver.try_recv(&mut rx, &mut pool, &mut out));
        assert!(got);
        assert_eq!(crate::msg::NetMsg::decode(&out), Some(msg));
        // Region is metered as message traffic.
        assert_eq!(
            pool.classify(pair.sender.layout().base),
            TrafficClass::Message
        );
    }
}
