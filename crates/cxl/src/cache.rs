//! Per-host write-back CPU cache model.
//!
//! Only the lines that matter for non-coherence are modelled: presence,
//! dirtiness, the data snapshot taken at fill time, and the time at which an
//! asynchronous prefetch fill completes. A host reading a present line gets
//! the (possibly stale) snapshot — there is no snooping across hosts, and
//! device DMA never looks in here. That is precisely the CXL 2.0 behaviour
//! Oasis is designed around.
//!
//! Eviction is exact LRU in O(1): an intrusive doubly-linked list threaded
//! through a slab of line slots, with a [`LineTable`] from line number to
//! slab index. The list runs LRU (head) → MRU (tail); every hit or
//! (re)insert unlinks the slot and relinks it at the tail, and eviction pops
//! the head. This replaces the original `BTreeSet<(tick, addr)>` index —
//! kept below as a `#[cfg(test)]` reference model — with bit-identical
//! eviction order: both structures order lines purely by last-access recency
//! (the BTree's tick was strictly monotonic, so address tiebreaks never
//! fired).
//!
//! The index is addressed, not hashed: a polling core walks the adjacent
//! lines of a ring, a prefetch window or a payload buffer, and adjacent
//! pool lines have adjacent index entries — the 16 lines of a receiver's
//! prefetch window share one 64 B line of the *real* CPU's cache, where a
//! hash would scatter them over 16.

use oasis_sim::time::SimTime;

use crate::LINE;

/// One cached 64 B line.
#[derive(Clone, Copy, Debug)]
pub struct CacheLine {
    /// Snapshot of the line contents as of fill time plus any local stores.
    pub data: [u8; LINE as usize],
    /// True if the host has stored to this line since fill/write-back.
    pub dirty: bool,
    /// When an asynchronous (prefetch) fill completes; reads before this
    /// stall until it.
    pub ready_at: SimTime,
}

/// Intrusive LRU links for one slab slot. Kept in their own array so a
/// relink (three link updates on every non-MRU hit) stays inside a small
/// hot region instead of striding across 96 B slots.
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// Sentinel slab index for "no slot" (and leaf index for "no leaf").
const NIL: u32 = u32::MAX;

/// Pool lines per [`LineTable`] leaf: one 4 KiB page.
const LEAF_LINES: usize = 64;

/// The slab slots of the 64 lines of one page (`NIL` where a line is not
/// cached). Aligned so that 16 adjacent, 16-aligned pool lines have their
/// entries in exactly one line of the real CPU's cache.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Leaf([u32; LEAF_LINES]);

/// Line number → slab slot, as a two-level page table: `dir[page]` names the
/// leaf holding the 64 slot entries of that 4 KiB page of the pool. A lookup
/// is two dependent loads and no arithmetic beyond shifts.
///
/// A leaf is allocated when the first line of its page is cached and goes
/// back on the free list when the last one leaves, so there are never more
/// leaves than cached lines; `dir` is 4 B per page up to the highest page
/// ever cached (64 KiB for a 64 MiB pool).
struct LineTable {
    /// Page number → index into `leaves`, or `NIL`.
    dir: Vec<u32>,
    leaves: Vec<Leaf>,
    /// Slots in use in each leaf.
    live: Vec<u32>,
    /// Leaves with no slot in use (every entry `NIL`).
    free: Vec<u32>,
    len: usize,
}

impl LineTable {
    fn new() -> Self {
        LineTable {
            dir: Vec::new(),
            leaves: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// `(page, index within the page)` of a line base address.
    #[inline]
    fn split(line_addr: u64) -> (usize, usize) {
        debug_assert!(line_addr.is_multiple_of(LINE));
        let line = (line_addr / LINE) as usize;
        (line / LEAF_LINES, line % LEAF_LINES)
    }

    #[inline]
    fn get(&self, line_addr: u64) -> Option<u32> {
        let (page, i) = Self::split(line_addr);
        let leaf = *self.dir.get(page)?;
        let slot = self.leaves.get(leaf as usize)?.0[i];
        (slot != NIL).then_some(slot)
    }

    /// Map an absent line to `slot`.
    fn insert(&mut self, line_addr: u64, slot: u32) {
        let (page, i) = Self::split(line_addr);
        if page >= self.dir.len() {
            self.dir.resize(page + 1, NIL);
        }
        let mut leaf = self.dir[page];
        if leaf == NIL {
            leaf = self.free.pop().unwrap_or_else(|| {
                self.leaves.push(Leaf([NIL; LEAF_LINES]));
                self.live.push(0);
                (self.leaves.len() - 1) as u32
            });
            self.dir[page] = leaf;
        }
        debug_assert_eq!(self.leaves[leaf as usize].0[i], NIL);
        self.leaves[leaf as usize].0[i] = slot;
        self.live[leaf as usize] += 1;
        self.len += 1;
    }

    fn remove(&mut self, line_addr: u64) -> Option<u32> {
        let (page, i) = Self::split(line_addr);
        let leaf = *self.dir.get(page)?;
        let entry = &mut self.leaves.get_mut(leaf as usize)?.0[i];
        let slot = std::mem::replace(entry, NIL);
        if slot == NIL {
            return None;
        }
        self.len -= 1;
        self.live[leaf as usize] -= 1;
        if self.live[leaf as usize] == 0 {
            self.dir[page] = NIL;
            self.free.push(leaf);
        }
        Some(slot)
    }

    /// Forget every line, keeping the allocations.
    fn clear(&mut self) {
        self.dir.clear();
        self.leaves.clear();
        self.live.clear();
        self.free.clear();
        self.len = 0;
    }
}

/// A host's cache of pool lines, keyed by line base address.
///
/// Slot storage is struct-of-arrays: `addrs`/`lines`/`links` are parallel
/// vectors indexed by slab slot.
pub struct HostCache {
    addrs: Vec<u64>,
    lines: Vec<CacheLine>,
    links: Vec<Link>,
    /// Line base address → slab index.
    index: LineTable,
    /// LRU end of the recency list (eviction victim).
    head: u32,
    /// MRU end of the recency list.
    tail: u32,
    /// Head of the free-slot chain (linked through `Link::next`).
    free: u32,
    capacity: usize,
}

/// A victim line evicted to make room; dirty victims must be written back by
/// the caller.
pub struct Evicted {
    /// Line base address.
    pub addr: u64,
    /// The line, with `dirty` indicating whether a write-back is required.
    pub line: CacheLine,
}

impl HostCache {
    /// Cache with room for `capacity` lines. The default used by hosts is
    /// 4096 lines (256 KiB), enough for a polling core's working set
    /// including a full 8192-slot 16 B message ring.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        HostCache {
            addrs: Vec::new(),
            lines: Vec::new(),
            links: Vec::new(),
            index: LineTable::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            capacity,
        }
    }

    /// Number of lines currently cached.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// True if no lines are cached.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Line capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is the line present?
    pub fn contains(&self, line_addr: u64) -> bool {
        self.index.get(line_addr).is_some()
    }

    /// Detach slot `i` from the recency list (it stays in the slab).
    fn unlink(&mut self, i: u32) {
        let Link { prev, next } = self.links[i as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
    }

    /// Attach slot `i` at the MRU tail.
    fn link_mru(&mut self, i: u32) {
        let old_tail = self.tail;
        self.links[i as usize] = Link {
            prev: old_tail,
            next: NIL,
        };
        if old_tail == NIL {
            self.head = i;
        } else {
            self.links[old_tail as usize].next = i;
        }
        self.tail = i;
    }

    /// Access a present line, refreshing its LRU position. Returns `None` on
    /// miss.
    pub fn touch(&mut self, line_addr: u64) -> Option<&mut CacheLine> {
        let i = self.index.get(line_addr)?;
        if self.tail != i {
            self.unlink(i);
            self.link_mru(i);
        }
        Some(&mut self.lines[i as usize])
    }

    /// Look at a line without refreshing LRU (used by assertions/tests).
    pub fn get(&self, line_addr: u64) -> Option<&CacheLine> {
        let i = self.index.get(line_addr)?;
        Some(&self.lines[i as usize])
    }

    /// Insert (or replace) a line, evicting the LRU victim if at capacity.
    pub fn insert(
        &mut self,
        line_addr: u64,
        data: [u8; LINE as usize],
        dirty: bool,
        ready_at: SimTime,
    ) -> Option<Evicted> {
        // Replacing an existing line never evicts.
        if let Some(i) = self.index.get(line_addr) {
            let line = &mut self.lines[i as usize];
            line.data = data;
            line.dirty = dirty;
            line.ready_at = ready_at;
            if self.tail != i {
                self.unlink(i);
                self.link_mru(i);
            }
            return None;
        }
        let line = CacheLine {
            data,
            dirty,
            ready_at,
        };
        let mut victim = None;
        let slot = if self.index.len >= self.capacity {
            // Reuse the LRU victim's slot for the incoming line.
            let i = self.head;
            self.unlink(i);
            let old_addr = self.addrs[i as usize];
            self.index.remove(old_addr);
            victim = Some(Evicted {
                addr: old_addr,
                line: self.lines[i as usize],
            });
            self.addrs[i as usize] = line_addr;
            self.lines[i as usize] = line;
            i
        } else if self.free != NIL {
            let i = self.free;
            self.free = self.links[i as usize].next;
            self.addrs[i as usize] = line_addr;
            self.lines[i as usize] = line;
            i
        } else {
            self.addrs.push(line_addr);
            self.lines.push(line);
            self.links.push(Link {
                prev: NIL,
                next: NIL,
            });
            (self.addrs.len() - 1) as u32
        };
        self.index.insert(line_addr, slot);
        self.link_mru(slot);
        victim
    }

    /// Remove a line (CLFLUSHOPT). Returns it so the caller can write back a
    /// dirty victim.
    pub fn remove(&mut self, line_addr: u64) -> Option<CacheLine> {
        let i = self.index.remove(line_addr)?;
        self.unlink(i);
        self.links[i as usize].next = self.free;
        self.free = i;
        // `CacheLine` is `Copy`: the stale bytes stay in the free slot (it
        // is fully overwritten before reuse), so no blanking write here.
        Some(self.lines[i as usize])
    }

    /// Every cached line in LRU→MRU order, refreshing nothing (used by
    /// assertions/tests).
    pub fn lru_lines(&self) -> impl Iterator<Item = (u64, &CacheLine)> + '_ {
        let mut i = self.head;
        std::iter::from_fn(move || {
            let at = (i != NIL).then_some(i as usize)?;
            i = self.links[at].next;
            Some((self.addrs[at], &self.lines[at]))
        })
    }

    /// Drop everything (e.g. host reset in failure tests). Dirty lines are
    /// returned in LRU→MRU order — the recency list itself, which is already
    /// deterministic — without any intermediate allocation or sort.
    pub fn drain(&mut self) -> Vec<(u64, CacheLine)> {
        let mut out = Vec::with_capacity(self.index.len);
        out.extend(self.lru_lines().map(|(addr, line)| (addr, *line)));
        self.addrs.clear();
        self.lines.clear();
        self.links.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
        out
    }
}

/// The original `BTreeSet<(tick, addr)>` implementation, kept verbatim as
/// the executable specification the intrusive-list cache is cross-checked
/// against (see the `lru_cross_check` proptest below).
#[cfg(test)]
pub mod reference {
    use std::collections::BTreeSet;

    use oasis_sim::detmap::DetMap;
    use oasis_sim::time::SimTime;

    use super::{CacheLine, Evicted};
    use crate::LINE;

    struct RefLine {
        line: CacheLine,
        lru_tick: u64,
    }

    /// Reference LRU cache: exact LRU via a sorted `(tick, addr)` index.
    pub struct RefCache {
        lines: DetMap<u64, RefLine>,
        lru: BTreeSet<(u64, u64)>,
        capacity: usize,
        tick: u64,
    }

    impl RefCache {
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0);
            RefCache {
                lines: DetMap::default(),
                lru: BTreeSet::new(),
                capacity,
                tick: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.lines.len()
        }

        pub fn is_empty(&self) -> bool {
            self.lines.is_empty()
        }

        pub fn contains(&self, line_addr: u64) -> bool {
            self.lines.contains_key(&line_addr)
        }

        fn bump(tick: &mut u64, lru: &mut BTreeSet<(u64, u64)>, addr: u64, line: &mut RefLine) {
            lru.remove(&(line.lru_tick, addr));
            *tick += 1;
            line.lru_tick = *tick;
            lru.insert((*tick, addr));
        }

        pub fn touch(&mut self, line_addr: u64) -> Option<&mut CacheLine> {
            let line = self.lines.get_mut(&line_addr)?;
            Self::bump(&mut self.tick, &mut self.lru, line_addr, line);
            Some(&mut line.line)
        }

        pub fn get(&self, line_addr: u64) -> Option<&CacheLine> {
            self.lines.get(&line_addr).map(|l| &l.line)
        }

        pub fn insert(
            &mut self,
            line_addr: u64,
            data: [u8; LINE as usize],
            dirty: bool,
            ready_at: SimTime,
        ) -> Option<Evicted> {
            if let Some(existing) = self.lines.get_mut(&line_addr) {
                existing.line.data = data;
                existing.line.dirty = dirty;
                existing.line.ready_at = ready_at;
                Self::bump(&mut self.tick, &mut self.lru, line_addr, existing);
                return None;
            }
            let victim = if self.lines.len() >= self.capacity {
                let &(vt, vaddr) = self.lru.iter().next().expect("lru nonempty at capacity");
                self.lru.remove(&(vt, vaddr));
                let line = self.lines.remove(&vaddr).expect("lru entry has line");
                Some(Evicted {
                    addr: vaddr,
                    line: line.line,
                })
            } else {
                None
            };
            self.tick += 1;
            self.lines.insert(
                line_addr,
                RefLine {
                    line: CacheLine {
                        data,
                        dirty,
                        ready_at,
                    },
                    lru_tick: self.tick,
                },
            );
            self.lru.insert((self.tick, line_addr));
            victim
        }

        pub fn remove(&mut self, line_addr: u64) -> Option<CacheLine> {
            let line = self.lines.remove(&line_addr)?;
            self.lru.remove(&(line.lru_tick, line_addr));
            Some(line.line)
        }

        /// Drain in LRU→MRU order (the `(tick, addr)` index order), matching
        /// the production cache's recency-list drain.
        pub fn drain(&mut self) -> Vec<(u64, CacheLine)> {
            let order: Vec<u64> = self.lru.iter().map(|&(_, addr)| addr).collect();
            self.lru.clear();
            let mut out = Vec::with_capacity(order.len());
            for addr in order {
                let line = self.lines.remove(&addr).expect("lru entry has line");
                out.push((addr, line.line));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line_of(byte: u8) -> [u8; LINE as usize] {
        [byte; LINE as usize]
    }

    #[test]
    fn insert_and_touch() {
        let mut c = HostCache::new(4);
        assert!(c.insert(0, line_of(1), false, SimTime::ZERO).is_none());
        assert!(c.contains(0));
        assert_eq!(c.touch(0).unwrap().data[0], 1);
        assert!(c.touch(64).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = HostCache::new(2);
        c.insert(0, line_of(1), false, SimTime::ZERO);
        c.insert(64, line_of(2), false, SimTime::ZERO);
        // Touch 0 so 64 becomes LRU.
        c.touch(0);
        let victim = c.insert(128, line_of(3), false, SimTime::ZERO).unwrap();
        assert_eq!(victim.addr, 64);
        assert!(c.contains(0) && c.contains(128));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = HostCache::new(1);
        c.insert(0, line_of(9), true, SimTime::ZERO);
        let victim = c.insert(64, line_of(1), false, SimTime::ZERO).unwrap();
        assert!(victim.line.dirty);
        assert_eq!(victim.line.data[0], 9);
    }

    #[test]
    fn replace_does_not_evict() {
        let mut c = HostCache::new(1);
        c.insert(0, line_of(1), false, SimTime::ZERO);
        assert!(c.insert(0, line_of(2), true, SimTime::ZERO).is_none());
        assert_eq!(c.get(0).unwrap().data[0], 2);
        assert!(c.get(0).unwrap().dirty);
    }

    #[test]
    fn remove_returns_line() {
        let mut c = HostCache::new(2);
        c.insert(0, line_of(5), true, SimTime::ZERO);
        let line = c.remove(0).unwrap();
        assert!(line.dirty);
        assert!(!c.contains(0));
        assert!(c.remove(0).is_none());
        // LRU index stays consistent after removal.
        c.insert(64, line_of(1), false, SimTime::ZERO);
        c.insert(128, line_of(2), false, SimTime::ZERO);
        let v = c.insert(192, line_of(3), false, SimTime::ZERO).unwrap();
        assert_eq!(v.addr, 64);
    }

    #[test]
    fn drain_returns_lru_order() {
        let mut c = HostCache::new(8);
        c.insert(128, line_of(3), false, SimTime::ZERO);
        c.insert(0, line_of(1), true, SimTime::ZERO);
        c.insert(64, line_of(2), false, SimTime::ZERO);
        // Touch 128 so it moves to MRU; drain order is recency, not address.
        c.touch(128);
        let drained = c.drain();
        assert_eq!(
            drained.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
            vec![0, 64, 128]
        );
        assert!(c.is_empty());
        // The slab is reusable after a drain.
        assert!(c.insert(256, line_of(7), false, SimTime::ZERO).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn free_slots_are_reused() {
        let mut c = HostCache::new(4);
        for i in 0..4u64 {
            c.insert(i * 64, line_of(i as u8), false, SimTime::ZERO);
        }
        c.remove(64);
        c.remove(192);
        c.insert(1024, line_of(9), false, SimTime::ZERO);
        c.insert(2048, line_of(10), false, SimTime::ZERO);
        // Slab never grew past capacity despite churn.
        assert!(c.addrs.len() <= 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(1024).unwrap().data[0], 9);
        assert_eq!(c.get(2048).unwrap().data[0], 10);
    }

    #[test]
    fn table_footprint_is_bounded_by_capacity_not_by_addresses_seen() {
        // A poller that walks a whole 64 MiB pool, a window of `CAP` lines
        // at a time: 10^6 inserts, each paired with the removal of the line
        // that fell out of the window.
        const CAP: u64 = 16;
        const LINES: u64 = 1 << 20;
        let mut t = LineTable::new();
        for n in 0..LINES {
            t.insert(n * LINE, (n % CAP) as u32);
            if n >= CAP {
                assert_eq!(t.remove((n - CAP) * LINE), Some((n % CAP) as u32));
            }
        }
        assert_eq!(t.len, CAP as usize);
        // Leaves follow the window: never more than lines cached at once.
        assert!(t.leaves.len() <= CAP as usize, "{} leaves", t.leaves.len());
        assert_eq!(t.live.len(), t.leaves.len());
        assert!(t.free.len() < t.leaves.len());
        // The directory is the one part sized by the address space: 4 B per
        // 4 KiB page of the pool, whatever was cached along the way.
        assert_eq!(t.dir.len() as u64, LINES / LEAF_LINES as u64);

        // The same walk through the cache itself, evicting as it goes.
        let mut c = HostCache::new(CAP as usize);
        for n in 0..LINES {
            c.insert(n * LINE, line_of(n as u8), false, SimTime::ZERO);
        }
        assert_eq!(c.len(), CAP as usize);
        assert!(c.index.leaves.len() <= CAP as usize);
        assert_eq!(c.lines.len(), CAP as usize);
    }

    /// What a history does to the line table.
    #[derive(Clone, Debug)]
    enum TableOp {
        /// Insert if absent, else check the stored slot.
        Insert(u64),
        Get(u64),
        Remove(u64),
        Clear,
    }

    /// Lines of a 64 MiB pool.
    const POOL_LINES: u64 = (64 << 20) / LINE;

    fn table_op_strategy() -> impl Strategy<Value = TableOp> {
        // Dense runs at a few bases (neighbours share a leaf, a run crosses
        // leaf edges), addresses scattered over the pool, and its very last
        // lines. Small universes, so re-insert after remove is common.
        let line = prop_oneof![
            (0u64..4, 0u64..96).prop_map(|(base, i)| base * 4093 + i),
            (0u64..24).prop_map(|i| i * 43_691 % POOL_LINES),
            (0u64..3).prop_map(|i| POOL_LINES - 1 - i),
        ];
        (0u32..40, line).prop_map(|(kind, line)| match kind {
            0 => TableOp::Clear,
            1..=16 => TableOp::Insert(line),
            17..=28 => TableOp::Remove(line),
            _ => TableOp::Get(line),
        })
    }

    proptest! {
        /// The line table against a `BTreeMap` through the same history,
        /// holding at most `capacity` lines as the cache does.
        #[test]
        fn line_table_matches_btreemap(
            capacity in prop_oneof![Just(4usize), Just(4096)],
            ops in proptest::collection::vec(table_op_strategy(), 1..400),
        ) {
            let mut table = LineTable::new();
            let mut model = std::collections::BTreeMap::<u64, u32>::new();
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    TableOp::Insert(line) => {
                        let addr = line * LINE;
                        if model.len() == capacity && !model.contains_key(&addr) {
                            // Make room the way eviction does.
                            let (&victim, &slot) = model.iter().next().unwrap();
                            prop_assert_eq!(table.remove(victim), Some(slot));
                            model.remove(&victim);
                        }
                        match model.get(&addr) {
                            Some(&slot) => prop_assert_eq!(table.get(addr), Some(slot)),
                            None => {
                                table.insert(addr, step as u32);
                                model.insert(addr, step as u32);
                            }
                        }
                    }
                    TableOp::Get(line) => {
                        let addr = line * LINE;
                        prop_assert_eq!(table.get(addr), model.get(&addr).copied());
                    }
                    TableOp::Remove(line) => {
                        let addr = line * LINE;
                        prop_assert_eq!(table.remove(addr), model.remove(&addr));
                        prop_assert_eq!(table.get(addr), None);
                    }
                    TableOp::Clear => {
                        table.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(table.len, model.len());
                prop_assert!(table.leaves.len() <= capacity);
                let in_use = table.live.iter().filter(|&&n| n > 0).count();
                prop_assert_eq!(in_use + table.free.len(), table.leaves.len());
            }
            for (&addr, &slot) in &model {
                prop_assert_eq!(table.get(addr), Some(slot));
            }
        }
    }

    /// Every operation the cache supports, drawn randomly.
    #[derive(Clone, Debug)]
    enum Op {
        Insert { addr: u64, byte: u8, dirty: bool },
        Touch { addr: u64 },
        Remove { addr: u64 },
        Drain,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // A small address universe (32 lines) against small capacities keeps
        // eviction constantly exercised.
        prop_oneof![
            (0u64..32, any::<u8>(), any::<bool>()).prop_map(|(l, byte, dirty)| Op::Insert {
                addr: l * 64,
                byte,
                dirty
            }),
            (0u64..32).prop_map(|l| Op::Touch { addr: l * 64 }),
            (0u64..32).prop_map(|l| Op::Remove { addr: l * 64 }),
            Just(Op::Drain),
        ]
    }

    proptest! {
        /// Cross-check the intrusive-list cache against the original
        /// BTreeSet implementation (the `reference` module): identical
        /// evictions (address, data, dirtiness), identical hit/miss
        /// behaviour, identical contents, identical drain order.
        #[test]
        fn lru_cross_check(
            capacity in prop_oneof![Just(1usize), Just(2), Just(7), Just(16)],
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut new = HostCache::new(capacity);
            let mut old = reference::RefCache::new(capacity);
            for op in ops {
                match op {
                    Op::Insert { addr, byte, dirty } => {
                        let data = line_of(byte);
                        let a = new.insert(addr, data, dirty, SimTime::ZERO);
                        let b = old.insert(addr, data, dirty, SimTime::ZERO);
                        match (a, b) {
                            (None, None) => {}
                            (Some(x), Some(y)) => {
                                prop_assert_eq!(x.addr, y.addr, "victim addr diverged");
                                prop_assert_eq!(x.line.data, y.line.data);
                                prop_assert_eq!(x.line.dirty, y.line.dirty);
                            }
                            (a, b) => prop_assert!(
                                false,
                                "eviction mismatch: new={:?} old={:?}",
                                a.map(|e| e.addr), b.map(|e| e.addr)
                            ),
                        }
                    }
                    Op::Touch { addr } => {
                        let a = new.touch(addr).map(|l| (l.data, l.dirty));
                        let b = old.touch(addr).map(|l| (l.data, l.dirty));
                        prop_assert_eq!(a, b, "touch diverged at {}", addr);
                    }
                    Op::Remove { addr } => {
                        let a = new.remove(addr).map(|l| (l.data, l.dirty));
                        let b = old.remove(addr).map(|l| (l.data, l.dirty));
                        prop_assert_eq!(a, b, "remove diverged at {}", addr);
                    }
                    Op::Drain => {
                        let a: Vec<(u64, [u8; 64], bool)> = new
                            .drain()
                            .into_iter()
                            .map(|(addr, l)| (addr, l.data, l.dirty))
                            .collect();
                        let b: Vec<(u64, [u8; 64], bool)> = old
                            .drain()
                            .into_iter()
                            .map(|(addr, l)| (addr, l.data, l.dirty))
                            .collect();
                        prop_assert_eq!(a, b, "drain order diverged");
                    }
                }
                prop_assert_eq!(new.len(), old.len());
            }
        }
    }
}
