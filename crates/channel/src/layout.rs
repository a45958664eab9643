//! Memory layout of one message channel.
//!
//! ```text
//! region.base                                     counter (own line)
//! | slot 0 | slot 1 | ... | slot N-1 | pad-to-line | consumed: u64 |
//! ```
//!
//! The consumed counter gets its own cache line so sender polling of the
//! counter and receiver updates to it never false-share with message slots.

use oasis_cxl::region::Region;
use oasis_cxl::LINE;

/// Addressing for a channel placed inside a pool region.
#[derive(Clone, Debug)]
pub struct ChannelLayout {
    /// First byte of slot 0.
    pub base: u64,
    /// Number of message slots.
    pub slots: u64,
    /// Bytes per message (16 or 64).
    pub msg_size: u64,
    /// Address of the 8 B consumed counter.
    pub counter_addr: u64,
    /// log2 of the messages per line (a power of two: the message size
    /// divides the line).
    line_shift: u32,
}

impl ChannelLayout {
    /// Bytes of pool memory a channel with these parameters needs.
    pub fn bytes_needed(slots: u64, msg_size: u64) -> u64 {
        let slot_bytes = slots * msg_size;
        let padded = (slot_bytes + LINE - 1) & !(LINE - 1);
        padded + LINE // one full line for the counter
    }

    /// Lay a channel out at the start of `region`. Panics if the region is
    /// too small, the message size does not divide the line size or the
    /// slots do not fill whole lines.
    pub fn in_region(region: &Region, slots: u64, msg_size: u64) -> Self {
        assert!(
            LINE.is_multiple_of(msg_size),
            "message size {msg_size} must divide the {LINE} B line"
        );
        assert!(slots > 0, "channel needs at least one slot");
        let per_line = LINE / msg_size;
        assert!(
            slots.is_multiple_of(per_line),
            "slot count {slots} must be a multiple of the {per_line} messages a {LINE} B line holds"
        );
        let needed = Self::bytes_needed(slots, msg_size);
        assert!(
            region.size >= needed,
            "region {} too small: {} < {needed}",
            region.name,
            region.size
        );
        let slot_bytes = slots * msg_size;
        let padded = (slot_bytes + LINE - 1) & !(LINE - 1);
        ChannelLayout {
            base: region.base,
            slots,
            msg_size,
            counter_addr: region.base + padded,
            line_shift: per_line.trailing_zeros(),
        }
    }

    /// Address of a slot by absolute sequence number (wraps around the
    /// ring).
    #[inline]
    pub fn slot_addr(&self, seq: u64) -> u64 {
        self.base + (seq % self.slots) * self.msg_size
    }

    /// Which lap around the ring a sequence number is on.
    #[inline]
    pub fn lap(&self, seq: u64) -> u64 {
        seq / self.slots
    }

    /// Messages per cache line (4 for 16 B, 1 for 64 B).
    #[inline]
    pub fn msgs_per_line(&self) -> u64 {
        1 << self.line_shift
    }

    /// log2 of [`Self::msgs_per_line`]: a slot index shifted right by it is
    /// the index of its line in the ring.
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Lines of message slots in the ring.
    #[inline]
    pub fn lines(&self) -> u64 {
        self.slots >> self.line_shift
    }

    /// Base address of the cache line holding a slot.
    #[inline]
    pub fn line_of(&self, seq: u64) -> u64 {
        oasis_cxl::line_base(self.slot_addr(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_cxl::pool::TrafficClass;
    use oasis_cxl::{CxlPool, RegionAllocator};

    fn region(bytes: u64) -> (CxlPool, Region) {
        let mut pool = CxlPool::new(1 << 20, 1);
        let mut ra = RegionAllocator::new(&pool);
        let r = ra.alloc(&mut pool, "chan", bytes, TrafficClass::Message);
        (pool, r)
    }

    #[test]
    fn bytes_needed_includes_counter_line() {
        assert_eq!(ChannelLayout::bytes_needed(4, 16), 64 + 64);
        assert_eq!(ChannelLayout::bytes_needed(8192, 16), 8192 * 16 + 64);
        assert_eq!(ChannelLayout::bytes_needed(3, 16), 64 + 64); // 48 pads to 64
    }

    #[test]
    fn slot_addresses_wrap() {
        let (_pool, r) = region(ChannelLayout::bytes_needed(8, 16));
        let l = ChannelLayout::in_region(&r, 8, 16);
        assert_eq!(l.slot_addr(0), r.base);
        assert_eq!(l.slot_addr(7), r.base + 7 * 16);
        assert_eq!(l.slot_addr(8), r.base); // wrapped
        assert_eq!(l.lap(7), 0);
        assert_eq!(l.lap(8), 1);
    }

    #[test]
    fn counter_has_its_own_line() {
        let (_pool, r) = region(ChannelLayout::bytes_needed(8, 16));
        let l = ChannelLayout::in_region(&r, 8, 16);
        assert_eq!(l.counter_addr % LINE, 0);
        assert!(l.counter_addr >= l.slot_addr(7) + 16);
    }

    #[test]
    fn msgs_per_line_by_size() {
        let (_p1, r1) = region(ChannelLayout::bytes_needed(8, 16));
        assert_eq!(ChannelLayout::in_region(&r1, 8, 16).msgs_per_line(), 4);
        let (_p2, r2) = region(ChannelLayout::bytes_needed(8, 64));
        assert_eq!(ChannelLayout::in_region(&r2, 8, 64).msgs_per_line(), 1);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_region_panics() {
        let (_pool, r) = region(64);
        ChannelLayout::in_region(&r, 8192, 16);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_msg_size_panics() {
        let (_pool, r) = region(1024);
        ChannelLayout::in_region(&r, 8, 24);
    }

    /// A ring whose last line is part-filled: three 16 B slots used to
    /// reach `%` by a zero line count on the first receive under ② and ④,
    /// and six put the window's line 1 at line 0.
    #[test]
    fn slots_that_do_not_fill_whole_lines_are_rejected() {
        for slots in [3u64, 6, 7, 9] {
            let (_pool, r) = region(ChannelLayout::bytes_needed(slots, 16));
            let built = std::panic::catch_unwind(|| ChannelLayout::in_region(&r, slots, 16));
            let msg = built.err().and_then(|e| e.downcast::<String>().ok());
            assert!(
                msg.is_some_and(|m| m.contains("must be a multiple")),
                "{slots} slots of 16 B"
            );
        }
        // Whole lines are fine, for every message size.
        for (slots, msg) in [(4u64, 16u64), (8, 16), (3, 64), (6, 32), (1, 64)] {
            let (_pool, r) = region(ChannelLayout::bytes_needed(slots, msg));
            let l = ChannelLayout::in_region(&r, slots, msg);
            assert_eq!(l.lines() * l.msgs_per_line(), slots);
            assert_eq!(l.msgs_per_line(), LINE / msg);
        }
    }
}
