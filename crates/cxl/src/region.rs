//! Carving the pool into named regions.
//!
//! The real system exposes CXL memory as DAX devices and hands out regions
//! for TX buffer areas (4 GB per frontend), RX buffer areas (4 GB per NIC),
//! message channels, and allocator state (§3.3, §3.5). This allocator is the
//! simulated stand-in: bump allocation of line-aligned, class-tagged ranges.
//! The pod layout is set up once at boot, exactly like the paper's
//! prototype; the one dynamic piece is per-instance buffer areas, which are
//! [freed](RegionAllocator::free) when a host failure reclaims its
//! instances and reused (class-matched) by later launches. Outstanding
//! bytes are tracked so recovery tests can assert nothing leaks.

use crate::pool::{CxlPool, TrafficClass};
use crate::LINE;

/// A named, class-tagged range of pool memory.
#[derive(Clone, Debug)]
pub struct Region {
    /// Human-readable name ("host0.tx_area", "nic1.rx_area", ...).
    pub name: String,
    /// First byte.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Traffic class registered for metering.
    pub class: TrafficClass,
}

impl Region {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Does the region contain `addr`?
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.end()).contains(&addr)
    }
}

/// Bump allocator over the pool address space, with a free list for the
/// regions that do come back (reclaimed instances).
pub struct RegionAllocator {
    next: u64,
    limit: u64,
    /// Freed ranges available for class-matched reuse: `(base, size,
    /// class)`, kept sorted by base.
    free_list: Vec<(u64, u64, TrafficClass)>,
    /// Bytes currently allocated and not freed.
    outstanding: u64,
}

impl RegionAllocator {
    /// Allocator covering the whole pool.
    pub fn new(pool: &CxlPool) -> Self {
        RegionAllocator {
            next: 0,
            limit: pool.size(),
            free_list: Vec::new(),
            outstanding: 0,
        }
    }

    /// Bytes currently allocated (the chaos harness asserts this returns
    /// to its pre-fault level after recovery — no leaked regions).
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Allocate a line-aligned region and register its traffic class with
    /// the pool. Panics if the pool is exhausted — pod layout is static and
    /// sized up front, so running out is a configuration bug.
    pub fn alloc(
        &mut self,
        pool: &mut CxlPool,
        name: impl Into<String>,
        size: u64,
        class: TrafficClass,
    ) -> Region {
        let size_aligned = (size + LINE - 1) & !(LINE - 1);
        let name = name.into();
        // Class-matched reuse first (the range keeps its registered class,
        // so no re-registration is needed — or allowed).
        if let Some(i) = self
            .free_list
            .iter()
            .position(|&(_, s, c)| c == class && s >= size_aligned)
        {
            let (base, s, c) = self.free_list[i];
            if s == size_aligned {
                self.free_list.remove(i);
            } else {
                self.free_list[i] = (base + size_aligned, s - size_aligned, c);
            }
            self.outstanding += size_aligned;
            pool.note_region(base, base + size_aligned, &name);
            return Region {
                name,
                base,
                size: size_aligned,
                class,
            };
        }
        let base = (self.next + LINE - 1) & !(LINE - 1);
        assert!(
            base + size_aligned <= self.limit,
            "CXL pool exhausted allocating {name} ({size} bytes; {} remaining)",
            self.limit - base
        );
        self.next = base + size_aligned;
        self.outstanding += size_aligned;
        pool.register_class(base, base + size_aligned, class);
        pool.note_region(base, base + size_aligned, &name);
        Region {
            name,
            base,
            size: size_aligned,
            class,
        }
    }

    /// Return a region's range to the allocator for later class-matched
    /// reuse (instance reclaim after a host failure, §3.5). Adjacent free
    /// ranges of the same class are coalesced.
    pub fn free(&mut self, region: &Region) {
        assert!(
            region.end() <= self.next,
            "free of a region never handed out"
        );
        assert!(region.size.is_multiple_of(LINE), "regions are line-sized");
        #[expect(
            clippy::expect_used,
            reason = "allocator-misuse contract like the asserts above: freeing more than was \
                      allocated is a setup bug in the calling driver, caught at development time"
        )]
        let outstanding = self
            .outstanding
            .checked_sub(region.size)
            .expect("more bytes freed than allocated");
        self.outstanding = outstanding;
        let idx = self.free_list.partition_point(|&(b, _, _)| b < region.base);
        debug_assert!(
            idx == self.free_list.len() || self.free_list[idx].0 >= region.end(),
            "double free of {}",
            region.name
        );
        self.free_list
            .insert(idx, (region.base, region.size, region.class));
        // Coalesce with the neighbour on either side.
        if idx + 1 < self.free_list.len() {
            let (b, s, c) = self.free_list[idx];
            let (nb, ns, nc) = self.free_list[idx + 1];
            if b + s == nb && c == nc {
                self.free_list[idx] = (b, s + ns, c);
                self.free_list.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (pb, ps, pc) = self.free_list[idx - 1];
            let (b, s, c) = self.free_list[idx];
            if pb + ps == b && pc == c {
                self.free_list[idx - 1] = (pb, ps + s, pc);
                self.free_list.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut pool = CxlPool::new(4096, 1);
        let mut ra = RegionAllocator::new(&pool);
        let a = ra.alloc(&mut pool, "a", 100, TrafficClass::Payload);
        let b = ra.alloc(&mut pool, "b", 64, TrafficClass::Message);
        assert_eq!(a.base % LINE, 0);
        assert_eq!(b.base % LINE, 0);
        assert!(a.end() <= b.base);
        assert_eq!(a.size, 128, "rounded up to lines");
    }

    #[test]
    fn classes_registered_with_pool() {
        let mut pool = CxlPool::new(4096, 1);
        let mut ra = RegionAllocator::new(&pool);
        let a = ra.alloc(&mut pool, "payload", 256, TrafficClass::Payload);
        let b = ra.alloc(&mut pool, "msgs", 256, TrafficClass::Message);
        assert_eq!(pool.classify(a.base), TrafficClass::Payload);
        assert_eq!(pool.classify(b.base + 100), TrafficClass::Message);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut pool = CxlPool::new(128, 1);
        let mut ra = RegionAllocator::new(&pool);
        ra.alloc(&mut pool, "too-big", 256, TrafficClass::Payload);
    }

    #[test]
    fn free_then_realloc_reuses_range() {
        let mut pool = CxlPool::new(4096, 1);
        let mut ra = RegionAllocator::new(&pool);
        let a = ra.alloc(&mut pool, "inst0.tx", 256, TrafficClass::Payload);
        let b = ra.alloc(&mut pool, "inst1.tx", 256, TrafficClass::Payload);
        assert_eq!(ra.outstanding(), 512);
        ra.free(&a);
        assert_eq!(ra.outstanding(), 256);
        // Same class and size: the freed range is reused verbatim.
        let c = ra.alloc(&mut pool, "inst2.tx", 256, TrafficClass::Payload);
        assert_eq!(c.base, a.base);
        assert_eq!(pool.classify(c.base), TrafficClass::Payload);
        // A different class must not reuse it.
        ra.free(&c);
        let d = ra.alloc(&mut pool, "ctrl", 256, TrafficClass::Control);
        assert!(d.base >= b.end(), "class-mismatched range not reused");
    }

    #[test]
    fn reused_range_keeps_its_class_inside_a_merged_span() {
        // Back-to-back regions of one class are one class span in the pool;
        // a range freed out of it and handed out again is not registered
        // twice and still classifies, as do its neighbours.
        let mut pool = CxlPool::new(4096, 1);
        let mut ra = RegionAllocator::new(&pool);
        let a = ra.alloc(&mut pool, "inst0.tx", 256, TrafficClass::Payload);
        let b = ra.alloc(&mut pool, "inst1.tx", 256, TrafficClass::Payload);
        let ring = ra.alloc(&mut pool, "ring", 128, TrafficClass::Message);
        ra.free(&a);
        let c = ra.alloc(&mut pool, "inst2.tx", 256, TrafficClass::Payload);
        assert_eq!(c.base, a.base);
        for addr in 0..pool.size() {
            let want = if addr < b.end() {
                TrafficClass::Payload
            } else if addr < ring.end() {
                TrafficClass::Message
            } else {
                TrafficClass::Unclassified
            };
            assert_eq!(pool.classify(addr), want, "addr {addr}");
        }
        assert_eq!(pool.class_span_end(c.base), b.end());
        assert_eq!(pool.class_span_end(ring.base), ring.end());
        assert_eq!(pool.class_span_end(ring.end()), pool.size());
    }

    #[test]
    fn free_coalesces_adjacent_ranges() {
        let mut pool = CxlPool::new(4096, 1);
        let mut ra = RegionAllocator::new(&pool);
        let a = ra.alloc(&mut pool, "a", 128, TrafficClass::Payload);
        let b = ra.alloc(&mut pool, "b", 128, TrafficClass::Payload);
        ra.free(&a);
        ra.free(&b);
        assert_eq!(ra.outstanding(), 0);
        // The coalesced 256-byte range satisfies a larger request.
        let big = ra.alloc(&mut pool, "big", 256, TrafficClass::Payload);
        assert_eq!(big.base, a.base);
    }
}
