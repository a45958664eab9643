//! Channel sender.
//!
//! The sender writes messages into ring slots through its CPU cache and
//! issues `CLWB` whenever it fills a cache line (or explicitly via
//! [`Sender::flush`] when the sending rate is low), making the line visible
//! in pool memory. Flow control uses the receiver-published consumed
//! counter; per §4 of the paper, the sender *caches* the counter value and
//! re-reads it (with `CLFLUSHOPT` + `MFENCE`, since the pool is not
//! coherent) only when all slots indicated by the cached value are
//! exhausted.

use oasis_cxl::{line_base, CxlPool, HostCtx};

use crate::error::ChannelError;
use crate::layout::ChannelLayout;
use crate::{epoch_bit, EPOCH_MASK};

/// Sending half of a channel. Exactly one sender per channel.
pub struct Sender {
    layout: ChannelLayout,
    /// Next absolute sequence number to write.
    head: u64,
    /// Last value of the consumed counter read from the pool.
    cached_consumed: u64,
    /// Line (base address) holding messages not yet written back. At most
    /// one line can be dirty because messages are written sequentially;
    /// tracking the address (not a count) keeps the write-back correct even
    /// when `flush` happens mid-line.
    dirty_line: Option<u64>,
    /// Total counter refreshes (stats).
    pub counter_refreshes: u64,
}

impl Sender {
    /// Create a sender over a laid-out channel. The channel memory must be
    /// zero-initialized (freshly allocated pool regions are).
    pub fn new(layout: ChannelLayout) -> Self {
        Sender {
            layout,
            head: 0,
            cached_consumed: 0,
            dirty_line: None,
            counter_refreshes: 0,
        }
    }

    /// The channel layout.
    pub fn layout(&self) -> &ChannelLayout {
        &self.layout
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.head
    }

    /// Slots free according to the cached consumed counter (may
    /// underestimate until the next refresh).
    pub fn cached_free_slots(&self) -> u64 {
        self.layout.slots - (self.head - self.cached_consumed)
    }

    fn refresh_consumed(
        &mut self,
        host: &mut HostCtx,
        pool: &mut CxlPool,
    ) -> Result<(), ChannelError> {
        // The receiver updates this counter through its own cache; we must
        // invalidate our copy and fence before re-reading (§4).
        host.clflushopt(pool, self.layout.counter_addr);
        host.mfence(pool);
        let read = host.read_u64(pool, self.layout.counter_addr);
        self.counter_refreshes += 1;
        if read > self.head {
            // Torn write-back or corruption: a receiver cannot have
            // consumed messages that were never sent. Keep the old cached
            // value (conservative — at worst the ring looks full).
            return Err(ChannelError::CounterCorrupt {
                read,
                sent: self.head,
            });
        }
        self.cached_consumed = read;
        Ok(())
    }

    /// Try to enqueue one message. `msg` must be exactly `msg_size` bytes
    /// with the epoch bit (MSB of the last byte) clear; the sender owns that
    /// bit. Returns `Ok(false)` if the ring is full even after refreshing
    /// the consumed counter, and `Err` for malformed messages or a
    /// corrupted consumed counter (both recoverable: nothing was enqueued).
    pub fn try_send(
        &mut self,
        host: &mut HostCtx,
        pool: &mut CxlPool,
        msg: &[u8],
    ) -> Result<bool, ChannelError> {
        if msg.len() as u64 != self.layout.msg_size {
            return Err(ChannelError::BadMessageSize {
                got: msg.len(),
                expected: self.layout.msg_size as usize,
            });
        }
        if msg[msg.len() - 1] & EPOCH_MASK != 0 {
            return Err(ChannelError::EpochBitSet);
        }
        host.advance(host.costs.send_overhead_ns);
        if self.head - self.cached_consumed >= self.layout.slots {
            self.refresh_consumed(host, pool)?;
            if self.head - self.cached_consumed >= self.layout.slots {
                return Ok(false);
            }
        }
        let addr = self.layout.slot_addr(self.head);
        let line = line_base(addr);
        // Crossing into a new line: write back any straggler from the
        // previous one first so slots are published in order.
        if let Some(d) = self.dirty_line {
            if d != line {
                host.clwb(pool, d);
                host.publish(pool, d, 1);
                self.dirty_line = None;
            }
        }
        let epoch = epoch_bit(self.layout.lap(self.head));
        let mut stamped = [0u8; 64];
        let n = msg.len();
        stamped[..n].copy_from_slice(msg);
        stamped[n - 1] |= epoch;
        host.write(pool, addr, &stamped[..n]);
        let last_in_line =
            (self.head % self.layout.msgs_per_line()) == self.layout.msgs_per_line() - 1;
        self.head += 1;

        // CLWB once the line is full (4 msgs for 16 B, every msg for 64 B).
        if last_in_line {
            host.clwb(pool, addr);
            host.publish(pool, line, 1);
            self.dirty_line = None;
        } else {
            self.dirty_line = Some(line);
        }
        Ok(true)
    }

    /// Write back a partially filled line (called when the sending rate is
    /// low so messages don't linger invisibly in the sender's cache).
    pub fn flush(&mut self, host: &mut HostCtx, pool: &mut CxlPool) {
        if let Some(d) = self.dirty_line.take() {
            host.clwb(pool, d);
            host.publish(pool, d, 1);
        }
    }

    /// True if messages are written but not yet visible in the pool.
    pub fn has_unflushed(&self) -> bool {
        self.dirty_line.is_some()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests inspect and corrupt ring bytes directly"
)]
mod tests {
    use super::*;
    use oasis_cxl::pool::{PortId, TrafficClass};
    use oasis_cxl::RegionAllocator;

    fn setup(slots: u64, msg: u64) -> (CxlPool, HostCtx, Sender) {
        let mut pool = CxlPool::new(1 << 20, 2);
        let mut ra = RegionAllocator::new(&pool);
        let r = ra.alloc(
            &mut pool,
            "chan",
            ChannelLayout::bytes_needed(slots, msg),
            TrafficClass::Message,
        );
        let layout = ChannelLayout::in_region(&r, slots, msg);
        let host = HostCtx::new(PortId(0), 0);
        (pool, host, Sender::new(layout))
    }

    #[test]
    fn send_stamps_epoch_and_flushes_full_lines() {
        let (mut pool, mut host, mut s) = setup(8, 16);
        let msg = [7u8; 16];
        for _ in 0..4 {
            assert!(s.try_send(&mut host, &mut pool, &msg).unwrap());
        }
        assert!(!s.has_unflushed(), "full line must be written back");
        pool.flush_pending();
        let mut slot = [0u8; 16];
        pool.peek(s.layout().slot_addr(0), &mut slot);
        assert_eq!(slot[15] & EPOCH_MASK, EPOCH_MASK, "lap-0 epoch set");
        assert_eq!(&slot[..15], &[7u8; 15][..]);
    }

    #[test]
    fn partial_line_needs_explicit_flush() {
        let (mut pool, mut host, mut s) = setup(8, 16);
        s.try_send(&mut host, &mut pool, &[1u8; 16]).unwrap();
        assert!(s.has_unflushed());
        pool.flush_pending();
        let mut slot = [0u8; 16];
        pool.peek(s.layout().slot_addr(0), &mut slot);
        assert_eq!(slot, [0u8; 16], "invisible before flush");
        s.flush(&mut host, &mut pool);
        pool.flush_pending();
        pool.peek(s.layout().slot_addr(0), &mut slot);
        assert_eq!(slot[0], 1);
    }

    #[test]
    fn ring_full_blocks_until_consumed_counter_moves() {
        let (mut pool, mut host, mut s) = setup(4, 16);
        for _ in 0..4 {
            assert!(s.try_send(&mut host, &mut pool, &[2u8; 16]).unwrap());
        }
        assert!(!s.try_send(&mut host, &mut pool, &[2u8; 16]).unwrap());
        assert_eq!(s.counter_refreshes, 1);
        // Simulate the receiver consuming 2 messages.
        pool.poke(s.layout().counter_addr, &2u64.to_le_bytes());
        assert!(s.try_send(&mut host, &mut pool, &[3u8; 16]).unwrap());
        assert_eq!(s.counter_refreshes, 2);
        assert_eq!(s.sent(), 5);
    }

    #[test]
    fn epoch_toggles_on_wrap() {
        let (mut pool, mut host, mut s) = setup(4, 16);
        for _ in 0..4 {
            s.try_send(&mut host, &mut pool, &[0u8; 16]).unwrap();
        }
        pool.poke(s.layout().counter_addr, &4u64.to_le_bytes());
        for _ in 0..4 {
            assert!(s.try_send(&mut host, &mut pool, &[0u8; 16]).unwrap());
        }
        pool.flush_pending();
        let mut slot = [0u8; 16];
        pool.peek(s.layout().slot_addr(4), &mut slot);
        assert_eq!(slot[15] & EPOCH_MASK, 0, "lap-1 epoch clear");
    }

    #[test]
    fn rejects_messages_with_epoch_bit_set() {
        let (mut pool, mut host, mut s) = setup(4, 16);
        let mut msg = [0u8; 16];
        msg[15] = 0x80;
        assert_eq!(
            s.try_send(&mut host, &mut pool, &msg),
            Err(ChannelError::EpochBitSet)
        );
        assert_eq!(s.sent(), 0, "nothing was enqueued");
    }

    #[test]
    fn rejects_wrong_message_size() {
        let (mut pool, mut host, mut s) = setup(4, 16);
        assert_eq!(
            s.try_send(&mut host, &mut pool, &[0u8; 8]),
            Err(ChannelError::BadMessageSize {
                got: 8,
                expected: 16
            })
        );
    }

    #[test]
    fn corrupted_counter_surfaces_as_error() {
        let (mut pool, mut host, mut s) = setup(4, 16);
        for _ in 0..4 {
            s.try_send(&mut host, &mut pool, &[1u8; 16]).unwrap();
        }
        // Corrupt the consumed counter beyond the send head (a torn
        // write-back would look like this).
        pool.poke(s.layout().counter_addr, &999u64.to_le_bytes());
        assert_eq!(
            s.try_send(&mut host, &mut pool, &[1u8; 16]),
            Err(ChannelError::CounterCorrupt { read: 999, sent: 4 })
        );
        // The cached value was not poisoned: repairing the counter heals
        // the channel.
        pool.poke(s.layout().counter_addr, &2u64.to_le_bytes());
        assert!(s.try_send(&mut host, &mut pool, &[1u8; 16]).unwrap());
    }

    #[test]
    fn mid_line_flush_then_burst_publishes_every_slot() {
        // Regression: a flush in the middle of a line used to desync the
        // dirty tracking, so a later burst crossing a line boundary left
        // the first line's tail slots dirty in the sender's cache forever,
        // deadlocking the receiver.
        let (mut pool, mut host, mut s) = setup(16, 16);
        // Two messages, flush mid-line.
        s.try_send(&mut host, &mut pool, &[1u8; 16]).unwrap();
        s.try_send(&mut host, &mut pool, &[2u8; 16]).unwrap();
        s.flush(&mut host, &mut pool);
        // Burst of four crossing into line 1 (slots 2,3,4,5).
        for v in 3u8..7 {
            s.try_send(&mut host, &mut pool, &[v; 16]).unwrap();
        }
        s.flush(&mut host, &mut pool);
        pool.flush_pending();
        // Every sent slot must be visible in pool memory with its epoch.
        for slot in 0..6u64 {
            let mut b = [0u8; 16];
            pool.peek(s.layout().slot_addr(slot), &mut b);
            assert_eq!(
                b[15] & EPOCH_MASK,
                EPOCH_MASK,
                "slot {slot} never written back"
            );
            assert_eq!(b[0], slot as u8 + 1, "slot {slot} payload");
        }
    }

    #[test]
    fn msg64_flushes_every_message() {
        let (mut pool, mut host, mut s) = setup(8, 64);
        s.try_send(&mut host, &mut pool, &[9u8; 64]).unwrap();
        assert!(!s.has_unflushed());
    }
}
