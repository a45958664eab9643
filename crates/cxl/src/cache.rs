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
//! Lines a prefetch window filled and nothing has touched since are held
//! apart, as clean *unread* lines ([`HostCache::fill_unread`]): one record
//! per fill of consecutive lines, with their bytes and a bit per line still
//! held. They count for [`HostCache::contains`], [`HostCache::len`] and the
//! victim choice, but a line enters the slab and the recency list only when
//! something touches it (a read, a store, a `clwb`) or replaces it; a
//! `clflushopt` just clears its bit. A touch puts a line at the MRU end
//! however it was held, so where an unread line waited does not matter once
//! it is touched; until then its place in the recency order is its *stamp*,
//! the access tick at its fill, and eviction takes the older of the recency
//! list's head and the oldest unread line (DESIGN.md §7.5).
//!
//! The index is addressed, not hashed: a polling core walks the adjacent
//! lines of a ring, a prefetch window or a payload buffer, and adjacent
//! pool lines have adjacent index entries — the 16 lines of a receiver's
//! prefetch window share one 64 B line of the *real* CPU's cache, where a
//! hash would scatter them over 16.

use oasis_sim::time::{SimDuration, SimTime};

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

/// Set in a [`LineTable`] entry that names an unread line: the other bits
/// are the index of its [`Fill`], not a slab slot.
const UNREAD: u32 = 1 << 31;

/// Most lines one [`Fill`] holds (its `live` mask is one `u64`).
pub(crate) const FILL_LINES: u64 = 64;

/// Consecutive lines one prefetch call filled and nothing has touched since:
/// line `k` is at `first + k·LINE`, holds `data[k·LINE..]`, is ready at
/// `ready0 + k·step_ns` and has stamp `stamp0 + k`.
struct Fill {
    first: u64,
    /// Bit `k` set while line `k` is still held here.
    live: u64,
    stamp0: u64,
    ready0: SimTime,
    step_ns: u64,
    data: Vec<u8>,
}

impl Fill {
    /// Line `k` as a clean cache line.
    #[inline]
    fn line(&self, k: u64) -> CacheLine {
        let mut data = [0u8; LINE as usize];
        let at = (k * LINE) as usize;
        data.copy_from_slice(&self.data[at..at + LINE as usize]);
        CacheLine {
            data,
            dirty: false,
            ready_at: self.ready0 + SimDuration::from_nanos(k * self.step_ns),
        }
    }

    /// Index of the line at `line_addr`.
    #[inline]
    fn k(&self, line_addr: u64) -> u64 {
        (line_addr - self.first) / LINE
    }
}

/// The two ends of a list threaded through [`HostCache`]'s links.
#[derive(Clone, Copy)]
struct Ends {
    /// Oldest (for the recency list: the LRU line, the eviction victim).
    head: u32,
    /// Newest.
    tail: u32,
}

impl Ends {
    const EMPTY: Ends = Ends {
        head: NIL,
        tail: NIL,
    };

    /// Detach slot `i` (it stays in the slab).
    #[inline]
    fn unlink(&mut self, links: &mut [Link], i: u32) {
        let Link { prev, next } = links[i as usize];
        if prev == NIL {
            self.head = next;
        } else {
            links[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            links[next as usize].prev = prev;
        }
    }

    /// Attach slot `i` at the tail.
    #[inline]
    fn push(&mut self, links: &mut [Link], i: u32) {
        let old_tail = self.tail;
        links[i as usize] = Link {
            prev: old_tail,
            next: NIL,
        };
        if old_tail == NIL {
            self.head = i;
        } else {
            links[old_tail as usize].next = i;
        }
        self.tail = i;
    }
}

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

    /// Re-point a present line at `slot`.
    #[inline]
    fn set(&mut self, line_addr: u64, slot: u32) {
        let (page, i) = Self::split(line_addr);
        let leaf = self.dir[page] as usize;
        debug_assert_ne!(self.leaves[leaf].0[i], NIL);
        self.leaves[leaf].0[i] = slot;
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

    /// `(page, first index, lines)` of each page's part of the `n` lines
    /// from `first`.
    fn pages(first: u64, n: u64) -> impl Iterator<Item = (usize, usize, usize)> {
        let (mut page, mut i) = Self::split(first);
        let mut left = n as usize;
        std::iter::from_fn(move || {
            let here = left.min(LEAF_LINES - i);
            let seg = (here > 0).then_some((page, i, here))?;
            (page, i, left) = (page + 1, 0, left - here);
            Some(seg)
        })
    }

    /// Does every one of the `n` lines from `first` have an entry that
    /// `keep` accepts (`NIL` for an absent line)?
    fn all(&self, first: u64, n: u64, keep: impl Fn(u32) -> bool) -> bool {
        Self::pages(first, n).all(|(page, i, here)| {
            match self
                .dir
                .get(page)
                .and_then(|&leaf| self.leaves.get(leaf as usize))
            {
                Some(leaf) => leaf.0[i..i + here].iter().all(|&e| keep(e)),
                None => keep(NIL),
            }
        })
    }

    /// Map the `n` absent lines from `first` to `slot`.
    fn insert_run(&mut self, first: u64, n: u64, slot: u32) {
        for (page, i, here) in Self::pages(first, n) {
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
            let entries = &mut self.leaves[leaf as usize].0[i..i + here];
            debug_assert!(entries.iter().all(|&e| e == NIL));
            entries.fill(slot);
            self.live[leaf as usize] += here as u32;
        }
        self.len += n as usize;
    }

    /// Unmap the `n` present lines from `first`.
    fn remove_run(&mut self, first: u64, n: u64) {
        for (page, i, here) in Self::pages(first, n) {
            let leaf = self.dir[page];
            let entries = &mut self.leaves[leaf as usize].0[i..i + here];
            debug_assert!(entries.iter().all(|&e| e != NIL));
            entries.fill(NIL);
            self.live[leaf as usize] -= here as u32;
            if self.live[leaf as usize] == 0 {
                self.dir[page] = NIL;
                self.free.push(leaf);
            }
        }
        self.len -= n as usize;
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
/// Slot storage is struct-of-arrays: `addrs`/`lines`/`links`/`stamps` are
/// parallel vectors indexed by slab slot. Unread lines live in `fills`
/// instead, linked in fill (stamp) order through `fill_links`.
pub struct HostCache {
    addrs: Vec<u64>,
    lines: Vec<CacheLine>,
    links: Vec<Link>,
    /// The access tick at each slot's last touch or insert.
    stamps: Vec<u64>,
    /// Line base address → slab index, or `UNREAD | index into fills`.
    index: LineTable,
    /// The recency list, LRU (head) to MRU (tail).
    lru: Ends,
    /// Head of the free-slot chain (linked through `Link::next`).
    free: u32,
    /// Unread fills (a spent one stays, empty, for reuse).
    fills: Vec<Fill>,
    fill_links: Vec<Link>,
    /// The fills holding unread lines, oldest first.
    unread: Ends,
    /// Spent fills.
    free_fills: Vec<u32>,
    capacity: usize,
    /// Access counter: the next stamp.
    tick: u64,
}

/// A victim line evicted to make room; dirty victims must be written back by
/// the caller.
pub(crate) struct Evicted {
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
        assert!(capacity > 0 && capacity < UNREAD as usize);
        HostCache {
            addrs: Vec::new(),
            lines: Vec::new(),
            links: Vec::new(),
            stamps: Vec::new(),
            index: LineTable::new(),
            lru: Ends::EMPTY,
            free: NIL,
            fills: Vec::new(),
            fill_links: Vec::new(),
            unread: Ends::EMPTY,
            free_fills: Vec::new(),
            capacity,
            tick: 0,
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
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is the line present?
    pub fn contains(&self, line_addr: u64) -> bool {
        self.index.get(line_addr).is_some()
    }

    /// Is the line present as an unread line: filled by a prefetch window
    /// ([`crate::HostCtx::prefetch_lines`]) and not touched since?
    pub fn is_unread(&self, line_addr: u64) -> bool {
        self.index.get(line_addr).is_some_and(|i| i & UNREAD != 0)
    }

    /// Stamp slot `i` with the next access tick.
    #[inline]
    fn stamp(&mut self, i: u32) {
        self.stamps[i as usize] = self.tick;
        self.tick += 1;
    }

    /// Take a free slab slot for `line` at `line_addr` (index and list are
    /// the caller's).
    fn alloc_slot(&mut self, line_addr: u64, line: CacheLine) -> u32 {
        if self.free != NIL {
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
            self.stamps.push(0);
            (self.addrs.len() - 1) as u32
        }
    }

    /// Unread line `line_addr`, held by fill `f`.
    #[inline]
    fn unread_line(&self, f: u32, line_addr: u64) -> CacheLine {
        let fill = &self.fills[f as usize];
        fill.line(fill.k(line_addr))
    }

    /// Take unread line `line_addr` out of fill `f` (the index entry is the
    /// caller's); a fill left with no line is spent.
    fn forget_unread(&mut self, f: u32, line_addr: u64) {
        let fill = &mut self.fills[f as usize];
        fill.live &= !(1 << fill.k(line_addr));
        if fill.live == 0 {
            self.unread.unlink(&mut self.fill_links, f);
            self.free_fills.push(f);
        }
    }

    /// The slot of a present line, moved to the MRU end of the recency list
    /// and stamped (an unread line enters the slab for it). Always inlined:
    /// it is every hit's path.
    #[inline(always)]
    fn touch_slot(&mut self, line_addr: u64) -> Option<u32> {
        let mut i = self.index.get(line_addr)?;
        if i & UNREAD != 0 {
            i = self.materialize(i & !UNREAD, line_addr);
        } else if self.lru.tail != i {
            self.lru.unlink(&mut self.links, i);
            self.lru.push(&mut self.links, i);
        }
        self.stamp(i);
        Some(i)
    }

    /// Move unread line `line_addr` out of fill `f` into a slab slot at the
    /// MRU end of the recency list; returns the slot.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, f: u32, line_addr: u64) -> u32 {
        let line = self.unread_line(f, line_addr);
        self.forget_unread(f, line_addr);
        let i = self.alloc_slot(line_addr, line);
        self.index.set(line_addr, i);
        self.lru.push(&mut self.links, i);
        i
    }

    /// Access a present line, refreshing its LRU position. Returns `None` on
    /// miss.
    pub(crate) fn touch(&mut self, line_addr: u64) -> Option<&mut CacheLine> {
        let i = self.touch_slot(line_addr)?;
        Some(&mut self.lines[i as usize])
    }

    /// Look at a line without refreshing LRU (used by assertions/tests).
    pub(crate) fn get(&self, line_addr: u64) -> Option<CacheLine> {
        let i = self.index.get(line_addr)?;
        Some(if i & UNREAD != 0 {
            self.unread_line(i & !UNREAD, line_addr)
        } else {
            self.lines[i as usize]
        })
    }

    /// The oldest unread line: `(stamp, line address)`.
    fn oldest_unread(&self) -> Option<(u64, u64)> {
        let fill = self.fills.get(self.unread.head as usize)?;
        let k = u64::from(fill.live.trailing_zeros());
        Some((fill.stamp0 + k, fill.first + k * LINE))
    }

    /// Insert (or replace) a line, evicting the LRU victim if at capacity:
    /// the least recently used line, the older of the recency list's head
    /// and the oldest unread line.
    pub(crate) fn insert(
        &mut self,
        line_addr: u64,
        data: [u8; LINE as usize],
        dirty: bool,
        ready_at: SimTime,
    ) -> Option<Evicted> {
        let line = CacheLine {
            data,
            dirty,
            ready_at,
        };
        // Replacing an existing line never evicts.
        if let Some(i) = self.touch_slot(line_addr) {
            self.lines[i as usize] = line;
            return None;
        }
        let mut victim = None;
        let head = self.lru.head;
        let i = if self.index.len < self.capacity {
            self.alloc_slot(line_addr, line)
        } else {
            match self.oldest_unread() {
                Some((stamp, addr)) if head == NIL || stamp < self.stamps[head as usize] => {
                    victim = self.remove(addr).map(|line| Evicted { addr, line });
                    self.alloc_slot(line_addr, line)
                }
                _ => {
                    // Reuse the LRU victim's slot for the incoming line.
                    self.lru.unlink(&mut self.links, head);
                    let old_addr = self.addrs[head as usize];
                    self.index.remove(old_addr);
                    victim = Some(Evicted {
                        addr: old_addr,
                        line: self.lines[head as usize],
                    });
                    self.addrs[head as usize] = line_addr;
                    self.lines[head as usize] = line;
                    head
                }
            }
        };
        self.index.insert(line_addr, i);
        self.lru.push(&mut self.links, i);
        self.stamp(i);
        victim
    }

    /// Cache the `n` consecutive absent lines from `first` (at most
    /// [`FILL_LINES`]) as clean *unread* lines, line `k` ready at `ready0 +
    /// k·step_ns`, and return their bytes for the caller to write, every
    /// one of them (they hold whatever an earlier fill left): observably
    /// [`Self::insert`] of each clean line in address order at those
    /// times, but held outside the slab until something touches it. There
    /// must be room for them all: an unread fill never evicts.
    pub(crate) fn fill_unread(
        &mut self,
        first: u64,
        n: u64,
        ready0: SimTime,
        step_ns: u64,
    ) -> &mut [u8] {
        assert!(
            (1..=FILL_LINES).contains(&n) && self.index.len + n as usize <= self.capacity,
            "an unread fill of {n} lines must fit without evicting"
        );
        let f = match self.free_fills.pop() {
            Some(f) => f,
            None => {
                self.fills.push(Fill {
                    first: 0,
                    live: 0,
                    stamp0: 0,
                    ready0: SimTime::ZERO,
                    step_ns: 0,
                    data: Vec::new(),
                });
                self.fill_links.push(Link {
                    prev: NIL,
                    next: NIL,
                });
                (self.fills.len() - 1) as u32
            }
        };
        self.unread.push(&mut self.fill_links, f);
        self.index.insert_run(first, n, UNREAD | f);
        let fill = &mut self.fills[f as usize];
        fill.first = first;
        fill.live = u64::MAX >> (FILL_LINES - n);
        fill.stamp0 = self.tick;
        fill.ready0 = ready0;
        fill.step_ns = step_ns;
        self.tick += n;
        fill.data.resize((n * LINE) as usize, 0);
        &mut fill.data
    }

    /// Are all `n` lines from `first` absent?
    pub(crate) fn holds_none(&self, first: u64, n: u64) -> bool {
        self.index.all(first, n, |e| e == NIL)
    }

    /// If all `n` lines from `first` are unread lines, drop them and return
    /// true: observably [`Self::remove`] of each. Otherwise change nothing.
    pub(crate) fn drop_unread(&mut self, first: u64, n: u64) -> bool {
        if n == 0 || !self.index.all(first, n, |e| e != NIL && e & UNREAD != 0) {
            return false;
        }
        // A stretch at a time: the lines from `la` that one fill holds.
        let end = first + n * LINE;
        let mut la = first;
        while let Some(f) = self.index.get(la).filter(|_| la < end) {
            let f = f & !UNREAD;
            let fill = &mut self.fills[f as usize];
            let k = fill.k(la);
            let held = u64::from((fill.live >> k).trailing_ones());
            let m = held.min((end - la) / LINE);
            fill.live &= !((u64::MAX >> (FILL_LINES - m)) << k);
            if fill.live == 0 {
                self.unread.unlink(&mut self.fill_links, f);
                self.free_fills.push(f);
            }
            la += m * LINE;
        }
        self.index.remove_run(first, n);
        true
    }

    /// Remove a line (CLFLUSHOPT). Returns it so the caller can write back a
    /// dirty victim.
    pub(crate) fn remove(&mut self, line_addr: u64) -> Option<CacheLine> {
        let i = self.index.remove(line_addr)?;
        if i & UNREAD != 0 {
            let f = i & !UNREAD;
            let line = self.unread_line(f, line_addr);
            self.forget_unread(f, line_addr);
            return Some(line);
        }
        self.lru.unlink(&mut self.links, i);
        self.links[i as usize].next = self.free;
        self.free = i;
        // `CacheLine` is `Copy`: the stale bytes stay in the free slot (it
        // is fully overwritten before reuse), so no blanking write here.
        Some(self.lines[i as usize])
    }

    /// Every cached line in LRU→MRU order, refreshing nothing (used by
    /// assertions/tests): the recency list and the unread lines merged by
    /// stamp.
    pub fn lru_lines(&self) -> impl Iterator<Item = (u64, CacheLine)> + '_ {
        let mut all: Vec<(u64, u64, CacheLine)> = Vec::with_capacity(self.index.len);
        let mut i = self.lru.head;
        while i != NIL {
            let at = i as usize;
            all.push((self.stamps[at], self.addrs[at], self.lines[at]));
            i = self.links[at].next;
        }
        let mut f = self.unread.head;
        while f != NIL {
            let fill = &self.fills[f as usize];
            let live = (0..FILL_LINES).filter(|&k| fill.live & (1 << k) != 0);
            all.extend(live.map(|k| (fill.stamp0 + k, fill.first + k * LINE, fill.line(k))));
            f = self.fill_links[f as usize].next;
        }
        all.sort_unstable_by_key(|&(stamp, _, _)| stamp);
        all.into_iter().map(|(_, addr, line)| (addr, line))
    }

    /// Drop everything (e.g. host reset in failure tests). Lines are
    /// returned in LRU→MRU order ([`Self::lru_lines`]), which is
    /// deterministic.
    pub fn drain(&mut self) -> Vec<(u64, CacheLine)> {
        let out = self.lru_lines().collect();
        self.addrs.clear();
        self.lines.clear();
        self.links.clear();
        self.stamps.clear();
        self.index.clear();
        self.lru = Ends::EMPTY;
        self.free = NIL;
        self.fills.clear();
        self.fill_links.clear();
        self.unread = Ends::EMPTY;
        self.free_fills.clear();
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
    pub(crate) struct RefCache {
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
        Insert {
            addr: u64,
            byte: u8,
            dirty: bool,
        },
        /// A prefetch fill of `n` consecutive lines (a no-op unless all are
        /// absent and fit without evicting).
        FillUnread {
            addr: u64,
            n: u64,
            byte: u8,
            step: u64,
        },
        /// A window flush: drop `n` lines if all are unread.
        DropUnread {
            addr: u64,
            n: u64,
        },
        Touch {
            addr: u64,
        },
        Remove {
            addr: u64,
        },
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
            (0u64..32, 1u64..5, any::<u8>(), 0u64..3).prop_map(|(l, n, byte, step)| {
                Op::FillUnread {
                    addr: l * 64,
                    n,
                    byte,
                    step,
                }
            }),
            (0u64..32, 1u64..5, any::<u8>(), 0u64..3).prop_map(|(l, n, byte, step)| {
                Op::FillUnread {
                    addr: l * 64,
                    n,
                    byte,
                    step,
                }
            }),
            (0u64..32, 1u64..5).prop_map(|(l, n)| Op::DropUnread { addr: l * 64, n }),
            (0u64..32).prop_map(|l| Op::Touch { addr: l * 64 }),
            (0u64..32).prop_map(|l| Op::Remove { addr: l * 64 }),
            Just(Op::Drain),
        ]
    }

    proptest! {
        /// Cross-check the intrusive-list cache against the original
        /// BTreeSet implementation (the `reference` module): identical
        /// evictions (address, data, dirtiness), identical hit/miss
        /// behaviour, identical contents, identical drain order. An unread
        /// fill is checked against the reference's plain inserts of the same
        /// clean lines.
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
                    Op::FillUnread { addr, n, byte, step } => {
                        let lines = (0..n).map(|k| addr + k * 64);
                        if new.len() + n as usize > capacity
                            || lines.clone().any(|la| new.contains(la))
                        {
                            continue;
                        }
                        let data: Vec<u8> = (0..n)
                            .flat_map(|k| line_of(byte.wrapping_add(k as u8)))
                            .collect();
                        let ready = SimTime::from_nanos(u64::from(byte));
                        new.fill_unread(addr, n, ready, step).copy_from_slice(&data);
                        for (k, la) in lines.enumerate() {
                            let k = k as u64;
                            let at = ready + SimDuration::from_nanos(k * step);
                            let b = old.insert(la, line_of(byte.wrapping_add(k as u8)), false, at);
                            prop_assert!(b.is_none(), "the reference evicted for an unread fill");
                        }
                    }
                    Op::DropUnread { addr, n } => {
                        let unread = (0..n).all(|k| new.is_unread(addr + k * 64));
                        prop_assert_eq!(new.drop_unread(addr, n), unread);
                        for k in (0..n).filter(|_| unread) {
                            let b = old.remove(addr + k * 64).map(|l| l.dirty);
                            prop_assert_eq!(b, Some(false), "line {} of a dropped run", k);
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
                for l in 0..32u64 {
                    let a = new.get(l * 64).map(|l| (l.data, l.dirty, l.ready_at));
                    let b = old.get(l * 64).map(|l| (l.data, l.dirty, l.ready_at));
                    prop_assert_eq!(a, b, "line {} diverged", l);
                }
            }
        }
    }
}
