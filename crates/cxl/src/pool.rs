//! The shared CXL pool memory and its per-port link meters.
//!
//! Pool memory is a flat byte array addressed from zero. Hosts reach it
//! through their [`crate::HostCtx`] (which models their CPU cache); PCIe
//! devices reach it through [`CxlPool::dma_read`] / [`CxlPool::dma_write`],
//! which bypass every CPU cache — the paper's datapath depends on exactly
//! this property (§3.2.1, DDIO disabled).
//!
//! Write-backs from CPU caches are *posted*: they become visible in pool
//! memory only after the configured propagation delay, which is what gives
//! the one-way message latency its 2× CXL-access floor (Fig. 6).
//!
//! Every transfer is metered per host port and per [`TrafficClass`], so
//! experiments can reproduce Table 3's payload/message bandwidth split.

use oasis_sim::time::{SimDuration, SimTime};

use crate::LINE;

/// Identifies a host's port on the multi-headed CXL device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// What a range of pool memory is used for; Table 3 of the paper reports
/// CXL bandwidth split along these lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// I/O buffer contents (packet payloads, block data).
    Payload,
    /// Message-channel slots and consumed counters.
    Message,
    /// Allocator/telemetry/Raft state.
    Control,
    /// Anything not registered.
    Unclassified,
}

impl TrafficClass {
    const COUNT: usize = 4;

    #[inline]
    fn index(self) -> usize {
        match self {
            TrafficClass::Payload => 0,
            TrafficClass::Message => 1,
            TrafficClass::Control => 2,
            TrafficClass::Unclassified => 3,
        }
    }

    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::Payload,
        TrafficClass::Message,
        TrafficClass::Control,
        TrafficClass::Unclassified,
    ];
}

/// Cumulative traffic counters for one host's CXL port.
#[derive(Clone, Debug, Default)]
pub struct LinkMeter {
    read_bytes: [u64; TrafficClass::COUNT],
    write_bytes: [u64; TrafficClass::COUNT],
}

impl LinkMeter {
    /// Bytes read from the pool over this port for a class.
    pub fn read_bytes(&self, class: TrafficClass) -> u64 {
        self.read_bytes[class.index()]
    }

    /// Bytes written to the pool over this port for a class.
    pub fn write_bytes(&self, class: TrafficClass) -> u64 {
        self.write_bytes[class.index()]
    }

    /// Total bytes in both directions, all classes.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes.iter().sum::<u64>() + self.write_bytes.iter().sum::<u64>()
    }

    /// Total bytes in both directions for one class.
    pub fn class_bytes(&self, class: TrafficClass) -> u64 {
        self.read_bytes[class.index()] + self.write_bytes[class.index()]
    }

    /// Reset all counters (used to delimit measurement windows).
    pub fn reset(&mut self) {
        self.read_bytes = [0; TrafficClass::COUNT];
        self.write_bytes = [0; TrafficClass::COUNT];
    }
}

/// A posted write-back *run*: `n` consecutive lines from one port, line `i`
/// becoming visible at `visible0 + i·step`. This is what one `clwb_range` /
/// `clflushopt_range` over consecutive dirty lines posts; a single `clwb`,
/// `clflushopt` or eviction is a 1-line run. Lines that have landed are
/// trimmed off the front, so the fields always describe what is still in
/// flight.
struct Run {
    /// Visibility time of the first line still in flight.
    visible0: SimTime,
    /// Address of the first line still in flight.
    first_line: u64,
    /// Lines still in flight.
    n: u64,
    /// Nanoseconds between consecutive lines' visibility times.
    step: u64,
    /// Posting order; breaks visibility-time ties between runs.
    seq: u64,
    /// Port that posted it: the memory device serializes same-source,
    /// same-address streams, so a *fetch* from this port observes it even
    /// before global visibility.
    port: PortId,
    /// Offset in `data` of the first line still in flight.
    off: usize,
    data: Vec<u8>,
}

impl Run {
    /// One past the last line still in flight.
    #[inline]
    fn end(&self) -> u64 {
        self.first_line + self.n * LINE
    }

    #[inline]
    fn covers(&self, line_addr: u64) -> bool {
        line_addr.wrapping_sub(self.first_line) < self.n * LINE
    }

    /// When the in-flight line at `line_addr` becomes visible.
    #[inline]
    fn visible_at(&self, line_addr: u64) -> SimTime {
        self.visible0 + SimDuration::from_nanos((line_addr - self.first_line) / LINE * self.step)
    }

    /// Bytes of the in-flight line at `line_addr`.
    #[inline]
    fn line(&self, line_addr: u64) -> &[u8] {
        let at = self.off + (line_addr - self.first_line) as usize;
        &self.data[at..at + LINE as usize]
    }

    /// How many leading lines are visible by `now`. Counted from the time
    /// difference, so `now == SimTime::MAX` cannot overflow.
    #[inline]
    fn due(&self, now: SimTime) -> u64 {
        if self.visible0 > now {
            return 0;
        }
        // A zero step makes every line visible at once.
        match (now - self.visible0).as_nanos().checked_div(self.step) {
            Some(steps) => steps.min(self.n - 1) + 1,
            None => self.n,
        }
    }

    /// Drop the first `k` lines (they have landed).
    #[inline]
    fn trim(&mut self, k: u64) {
        self.first_line += k * LINE;
        self.off += (k * LINE) as usize;
        self.n -= k;
        self.visible0 += SimDuration::from_nanos(k * self.step);
    }
}

/// The lines of one run that an `apply_pending` call lands: `[start, end)`.
struct Due {
    start: u64,
    end: u64,
    /// Index into `CxlPool::runs`.
    run: usize,
    /// Some line is also landed from another run in the same call.
    shared: bool,
}

/// Set `shared` on every entry that has a line in common with another one.
///
/// Sorted by start, an entry shares a line with an earlier entry exactly
/// when it starts before the furthest end seen so far; and an entry that
/// shares lines only with later entries is still the one holding that
/// furthest end when the first of them arrives (anything reaching further
/// would have to start before it ends, and so share a line with it).
fn mark_shared(due: &mut [Due]) {
    due.sort_unstable_by_key(|d| d.start);
    let mut furthest = 0;
    for i in 1..due.len() {
        if due[i].start < due[furthest].end {
            due[i].shared = true;
            due[furthest].shared = true;
        }
        if due[i].end > due[furthest].end {
            furthest = i;
        }
    }
}

/// The shared pool: flat memory + meters + class registry + posted writes.
pub struct CxlPool {
    mem: Vec<u8>,
    meters: Vec<LinkMeter>,
    /// `(start, end, class)` ranges registered by the region allocator,
    /// touching same-class ranges merged into one, kept sorted by `start`
    /// and pairwise disjoint so classification is a binary search.
    class_ranges: Vec<(u64, u64, TrafficClass)>,
    /// Posted write-back runs with lines still in flight, in no particular
    /// order: the order writes land in is carried by `(visible_at, seq)`.
    runs: Vec<Run>,
    /// Earliest `visible0` in `runs` (`SimTime::MAX` when empty): the O(1)
    /// nothing-is-due test on hot paths.
    next_due: SimTime,
    /// Lines in flight across all runs.
    pending_lines: usize,
    /// Next run's `seq`.
    next_seq: u64,
    /// Data buffers of retired runs, `[1-line, multi-line]`: a post takes
    /// one instead of allocating, so there are never more buffers than the
    /// peak number of concurrent runs, and a payload-sized buffer is never
    /// parked under a 64 B message line.
    free_bufs: [Vec<Vec<u8>>; 2],
    /// Scratch for `apply_pending`: what each run lands in this call, and
    /// the `(visible_at, seq, run, line)` order of the lines that more than
    /// one run lands.
    due: Vec<Due>,
    land_order: Vec<(SimTime, u64, usize, u64)>,
    /// Scratch for `fetch_lines`: per fetched line, the `(visible_at, seq)`
    /// of the in-flight write it currently shows.
    shown: Vec<Option<(SimTime, u64)>>,
    /// Memo of the last classified range (start, end, class): datapath
    /// traffic hammers one region at a time, so most lookups hit here and
    /// skip the binary search. `(0, 0, _)` never matches.
    last_class: std::cell::Cell<(u64, u64, TrafficClass)>,
    /// `(start, end, watcher)`: ring ranges whose pollers have left the run
    /// queue ([`Self::watch`]), disjoint and sorted by `start`. A
    /// write-back posted into one puts its watcher on `woken` and drops all
    /// of that watcher's ranges.
    watches: Vec<(u64, u64, u32)>,
    /// Watchers a post has reached since the last [`Self::pop_woken`].
    woken: Vec<u32>,
    /// Coherence sanitizer shadow state (pure observer; never affects
    /// timing, metering, or memory contents).
    #[cfg(feature = "sanitize")]
    pub san: crate::sanitizer::Sanitizer,
    /// Per-port bytes-on-the-wire timelines (pure observer, like the
    /// sanitizer: never affects timing, metering, or memory contents).
    #[cfg(feature = "obs")]
    tl_xfer: Vec<oasis_obs::Timeline>,
}

impl CxlPool {
    /// Create a pool of `size` bytes shared by `ports` host ports.
    pub fn new(size: u64, ports: usize) -> Self {
        CxlPool {
            mem: vec![0; size as usize],
            meters: vec![LinkMeter::default(); ports],
            class_ranges: Vec::new(),
            runs: Vec::new(),
            next_due: SimTime::MAX,
            pending_lines: 0,
            next_seq: 0,
            free_bufs: [Vec::new(), Vec::new()],
            due: Vec::new(),
            land_order: Vec::new(),
            shown: Vec::new(),
            last_class: std::cell::Cell::new((0, 0, TrafficClass::Unclassified)),
            watches: Vec::new(),
            woken: Vec::new(),
            #[cfg(feature = "sanitize")]
            san: crate::sanitizer::Sanitizer::new(ports),
            #[cfg(feature = "obs")]
            tl_xfer: vec![oasis_obs::Timeline::default(); ports],
        }
    }

    /// Per-port transfer timelines recorded so far (`obs` feature).
    #[cfg(feature = "obs")]
    pub fn transfer_timelines(&self) -> &[oasis_obs::Timeline] {
        &self.tl_xfer
    }

    #[cfg(feature = "obs")]
    #[inline]
    fn note_xfer(&mut self, at: SimTime, port: PortId, bytes: u64) {
        self.tl_xfer[port.0].add(at, bytes);
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_xfer(&mut self, _at: SimTime, _port: PortId, _bytes: u64) {}

    /// Register a region name for sanitizer diagnostics. No-op unless the
    /// `sanitize` feature is enabled.
    #[cfg(feature = "sanitize")]
    pub fn note_region(&mut self, base: u64, end: u64, name: &str) {
        self.san.note_region(base, end, name);
    }

    /// Register a region name for sanitizer diagnostics. No-op unless the
    /// `sanitize` feature is enabled.
    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    pub fn note_region(&mut self, _base: u64, _end: u64, _name: &str) {}

    /// Tell the sanitizer a host's CPU cache was dropped wholesale (crash):
    /// its shadow snapshots are invalidated. No-op unless the `sanitize`
    /// feature is enabled.
    #[cfg(feature = "sanitize")]
    pub fn san_host_reset(&mut self, port: PortId) {
        self.san.on_host_reset(port);
    }

    /// Tell the sanitizer a host's CPU cache was dropped wholesale (crash).
    /// No-op unless the `sanitize` feature is enabled.
    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    pub fn san_host_reset(&mut self, _port: PortId) {}

    /// Pool capacity in bytes.
    pub fn size(&self) -> u64 {
        self.mem.len() as u64
    }

    /// Number of host ports.
    pub fn ports(&self) -> usize {
        self.meters.len()
    }

    /// Traffic meter of a port.
    pub fn meter(&self, port: PortId) -> &LinkMeter {
        &self.meters[port.0]
    }

    /// Reset all port meters.
    pub fn reset_meters(&mut self) {
        for m in &mut self.meters {
            m.reset();
        }
    }

    /// Register a class for an address range (called by the region
    /// allocator). Ranges must not overlap previously registered ones; they
    /// are kept sorted by start address so [`Self::classify`] can binary
    /// search.
    ///
    /// A range that touches a neighbour of its own class is merged into it:
    /// regions are allocated back to back, so the message rings of a pod
    /// become one `Message` span that the `last_class` memo keeps hitting
    /// while pollers hop from ring to ring.
    pub fn register_class(&mut self, start: u64, end: u64, class: TrafficClass) {
        debug_assert!(start <= end && end <= self.size());
        let ranges = &mut self.class_ranges;
        let idx = ranges.partition_point(|&(s, _, _)| s < start);
        debug_assert!(
            idx == 0 || ranges[idx - 1].1 <= start,
            "class range overlaps its predecessor"
        );
        debug_assert!(
            idx == ranges.len() || end <= ranges[idx].0,
            "class range overlaps its successor"
        );
        let joins_prev = idx > 0 && ranges[idx - 1].1 == start && ranges[idx - 1].2 == class;
        let joins_next = idx < ranges.len() && ranges[idx].0 == end && ranges[idx].2 == class;
        match (joins_prev, joins_next) {
            (true, true) => ranges[idx - 1].1 = ranges.remove(idx).1,
            (true, false) => ranges[idx - 1].1 = end,
            (false, true) => ranges[idx].0 = start,
            (false, false) => ranges.insert(idx, (start, end, class)),
        }
        self.last_class.set((0, 0, TrafficClass::Unclassified));
    }

    /// Classify an address by its registered region (binary search over the
    /// sorted, disjoint range set).
    pub fn classify(&self, addr: u64) -> TrafficClass {
        let (ms, me, mc) = self.last_class.get();
        if ms <= addr && addr < me {
            return mc;
        }
        let idx = self.class_ranges.partition_point(|&(s, _, _)| s <= addr);
        match idx.checked_sub(1).map(|i| self.class_ranges[i]) {
            Some((s, e, c)) if addr < e => {
                self.last_class.set((s, e, c));
                c
            }
            _ => TrafficClass::Unclassified,
        }
    }

    /// End of the contiguous same-class span containing `addr`: the end of
    /// its (merged) registered range, or — for unclassified addresses — the
    /// start of the next registered range (or pool size). Bulk transfers
    /// clamp their runs here so per-run metering attributes bytes to exactly
    /// the class a per-line walk would have.
    pub(crate) fn class_span_end(&self, addr: u64) -> u64 {
        let (ms, me, _) = self.last_class.get();
        if ms <= addr && addr < me {
            return me;
        }
        let idx = self.class_ranges.partition_point(|&(s, _, _)| s <= addr);
        if let Some((_, e, _)) = idx.checked_sub(1).map(|i| self.class_ranges[i]) {
            if addr < e {
                return e;
            }
        }
        self.class_ranges
            .get(idx)
            .map_or(self.size(), |&(s, _, _)| s)
    }

    /// Watch `[start, end)` for `watcher`: the next write-back any port
    /// posts into the range (`clwb`, `clflushopt` and dirty evictions all
    /// post through [`Self::post_writeback_run`]) puts `watcher` on the
    /// woken list, once, and ends all of its watches. Watched ranges are
    /// disjoint: a ring has one receiver, and so one poller to park.
    pub fn watch(&mut self, start: u64, end: u64, watcher: u32) {
        let at = self.watches.partition_point(|&(s, _, _)| s < start);
        debug_assert!(at == 0 || self.watches[at - 1].1 <= start);
        debug_assert!(at == self.watches.len() || end <= self.watches[at].0);
        self.watches.insert(at, (start, end, watcher));
    }

    /// End every watch of `watcher`.
    pub fn unwatch(&mut self, watcher: u32) {
        self.watches.retain(|&(_, _, w)| w != watcher);
    }

    /// Take one watcher a post has reached, if any.
    pub fn pop_woken(&mut self) -> Option<u32> {
        self.woken.pop()
    }

    /// A write-back into `[start, end)` was posted: wake its watchers.
    #[inline]
    fn wake_watchers(&mut self, start: u64, end: u64) {
        // Sorted and disjoint: the first range ending past `start` is the
        // only place an overlap can begin.
        let first = self.watches.partition_point(|&(_, e, _)| e <= start);
        let hit = |&&(s, _, _): &&(u64, u64, u32)| s < end;
        let fired = self.woken.len();
        for &(_, _, w) in self.watches[first..].iter().take_while(hit) {
            if !self.woken[fired..].contains(&w) {
                self.woken.push(w);
            }
        }
        if self.woken.len() > fired {
            let fired = &self.woken[fired..];
            self.watches.retain(|(_, _, w)| !fired.contains(w));
        }
    }

    /// The byte at `addr` as a cache fill by *any* port would read it now
    /// and until the next post into its line: what pool memory holds, with
    /// no write-back of the line in flight to land on it or (for the
    /// posting port) overlay it. `None` while one is in flight.
    pub fn settled_byte(&self, addr: u64) -> Option<u8> {
        let line = crate::line_base(addr);
        let in_flight = self.runs.iter().any(|r| r.covers(line));
        (!in_flight).then(|| self.mem[addr as usize])
    }

    /// Charge `n` cache-fill fetches of one line on `port` without doing
    /// them: the metering (and, with `obs`, the timeline bins of fetches at
    /// `first_at`, `first_at + every_ns`, …) of `n` [`Self::fetch_line`]
    /// calls. The caller has shown that each would have returned the bytes
    /// memory holds now and that no write-back of the line is in flight;
    /// the landing the calls would also have done is the caller's to repeat
    /// ([`Self::apply_pending`] at the latest of their instants).
    pub fn charge_line_fetches(
        &mut self,
        port: PortId,
        line_addr: u64,
        n: u64,
        first_at: SimTime,
        every_ns: u64,
    ) {
        let class = self.classify(line_addr);
        self.meters[port.0].read_bytes[class.index()] += n * LINE;
        self.note_line_xfers(port, n, first_at, every_ns);
    }

    /// Bin `n` line transfers on `port` at `first_at`, `first_at +
    /// every_ns`, …: one timeline add per bin the instants fall in, not one
    /// per line (a 10 ms bin holds thousands of ~2 µs rounds).
    #[cfg(feature = "obs")]
    fn note_line_xfers(&mut self, port: PortId, n: u64, first_at: SimTime, every_ns: u64) {
        let mut done = 0;
        while done < n {
            let at = first_at + SimDuration::from_nanos(done * every_ns);
            let bin_ns = self.tl_xfer[port.0].bin_ns();
            let left_in_bin = bin_ns - 1 - at.as_nanos() % bin_ns;
            let here = match left_in_bin.checked_div(every_ns) {
                Some(more) => (more + 1).min(n - done),
                None => n - done,
            };
            self.note_xfer(at, port, here * LINE);
            done += here;
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_line_xfers(&mut self, _port: PortId, _n: u64, _first_at: SimTime, _every_ns: u64) {}

    /// When the next posted write-back lands (`SimTime::MAX`: none is in
    /// flight). Only [`Self::apply_pending`] moves it.
    pub(crate) fn next_landing(&self) -> SimTime {
        self.next_due
    }

    /// Apply all posted write-backs that have become visible by `now`.
    ///
    /// O(1) when nothing is due (the common case on hot paths). Otherwise
    /// each run's due prefix lands with one copy. Only where two runs land
    /// the same line in the same call does order matter: those prefixes go
    /// line by line in `(visible_at, seq)` order across runs — the order a
    /// queue of single lines sorted by visibility time (ties in posting
    /// order) would use — so the last write to the line is the right one
    /// even when the posting hosts' clocks are skewed. A line one run lands
    /// now and another later needs no care: the later one is not yet
    /// visible. Runs with nothing left in flight hand their buffer back.
    pub fn apply_pending(&mut self, now: SimTime) {
        if self.next_due > now {
            return;
        }
        let mut due = std::mem::take(&mut self.due);
        for (run, r) in self.runs.iter().enumerate() {
            let k = r.due(now);
            if k > 0 {
                due.push(Due {
                    start: r.first_line,
                    end: r.first_line + k * LINE,
                    run,
                    shared: false,
                });
            }
        }
        mark_shared(&mut due);
        let mut order = std::mem::take(&mut self.land_order);
        for d in &due {
            let r = &self.runs[d.run];
            if d.shared {
                order.extend(
                    (d.start..d.end)
                        .step_by(LINE as usize)
                        .map(|la| (r.visible_at(la), r.seq, d.run, la)),
                );
                continue;
            }
            let (base, len) = (d.start as usize, (d.end - d.start) as usize);
            self.mem[base..base + len].copy_from_slice(&r.data[r.off..r.off + len]);
            #[cfg(feature = "sanitize")]
            for la in (d.start..d.end).step_by(LINE as usize) {
                self.san.on_apply_writeback(r.port, la);
            }
        }
        order.sort_unstable();
        for (_, _, run, la) in order.drain(..) {
            let r = &self.runs[run];
            let base = la as usize;
            self.mem[base..base + LINE as usize].copy_from_slice(r.line(la));
            #[cfg(feature = "sanitize")]
            self.san.on_apply_writeback(r.port, la);
        }
        self.land_order = order;
        for d in due.drain(..) {
            let k = (d.end - d.start) / LINE;
            self.runs[d.run].trim(k);
            self.pending_lines -= k as usize;
        }
        self.due = due;

        self.next_due = SimTime::MAX;
        let mut i = 0;
        while i < self.runs.len() {
            if self.runs[i].n == 0 {
                let mut buf = self.runs.swap_remove(i).data;
                let multi_line = buf.len() > LINE as usize;
                buf.clear();
                self.free_bufs[usize::from(multi_line)].push(buf);
            } else {
                self.next_due = self.next_due.min(self.runs[i].visible0);
                i += 1;
            }
        }
    }

    /// Force all posted write-backs visible immediately (used when tearing
    /// down a measurement or by tests).
    pub fn flush_pending(&mut self) {
        self.apply_pending(SimTime::MAX);
    }

    /// Everything [`Self::fetch_line`] does but return the bytes: land what
    /// is due by `now`, meter a 64 B read on `port` and (with `obs`) bin it
    /// at `now`. For a fill whose bytes nobody reads.
    #[inline]
    pub(crate) fn charge_line_fetch(&mut self, now: SimTime, port: PortId, line_addr: u64) {
        self.apply_pending(now);
        let class = self.classify(line_addr);
        self.meters[port.0].read_bytes[class.index()] += LINE;
        self.note_xfer(now, port, LINE);
    }

    /// Fetch one line for a CPU cache fill. Meters a 64 B read on `port`.
    ///
    /// The device serializes requests from the same port to the same
    /// address, so the fetch observes this port's *own* still-in-flight
    /// write-backs (read-your-own-writes holds within a host even across a
    /// flush–refetch race); other hosts' posted writes stay invisible until
    /// their propagation delay elapses.
    pub(crate) fn fetch_line(
        &mut self,
        now: SimTime,
        port: PortId,
        line_addr: u64,
    ) -> [u8; LINE as usize] {
        self.charge_line_fetch(now, port, line_addr);
        let base = line_addr as usize;
        let mut out = [0u8; LINE as usize];
        out.copy_from_slice(&self.mem[base..base + LINE as usize]);
        // Overlay this port's own in-flight write-back of the line: of the
        // (few) runs covering it, the latest in `(visible_at, seq)` order.
        let mut own: Option<((SimTime, u64), &Run)> = None;
        for r in &self.runs {
            if r.port == port && r.covers(line_addr) {
                let key = (r.visible_at(line_addr), r.seq);
                if own.is_none_or(|(k, _)| k < key) {
                    own = Some((key, r));
                }
            }
        }
        if let Some((_, r)) = own {
            out.copy_from_slice(r.line(line_addr));
        }
        out
    }

    /// Fetch a run of contiguous lines for a streaming CPU fill: line `i`
    /// of the run is fetched at `t0 + i * step_ns`, exactly as if
    /// [`Self::fetch_line`] had been called once per line at those times,
    /// but with one metering charge and one bulk copy for the whole run.
    ///
    /// The caller guarantees the run lies within a single traffic-class
    /// span (see [`Self::class_span_end`]). `out.len()` must be a whole
    /// number of lines.
    pub(crate) fn fetch_lines(
        &mut self,
        t0: SimTime,
        step_ns: u64,
        port: PortId,
        line_addr: u64,
        out: &mut [u8],
    ) {
        debug_assert!(out.len().is_multiple_of(LINE as usize));
        if out.is_empty() {
            return;
        }
        let n_lines = (out.len() as u64) / LINE;
        // Every line *base* must share `line_addr`'s class (spans need not
        // be line-aligned, so the last line may extend past the span end —
        // classification is by base, exactly as in the per-line walk).
        debug_assert!(line_addr + (n_lines - 1) * LINE < self.class_span_end(line_addr));
        self.apply_pending(t0);
        let class = self.classify(line_addr);
        self.meters[port.0].read_bytes[class.index()] += out.len() as u64;
        self.note_line_xfers(port, n_lines, t0, step_ns);
        let base = line_addr as usize;
        out.copy_from_slice(&self.mem[base..base + out.len()]);
        // Per-line fix-ups for writes still in flight after the t0 apply:
        // line `i`'s fetch observes one if it has become globally visible
        // by that line's fetch time, or if this port posted it (same-source
        // serialization). Of the writes a line observes, the latest in
        // `(visible_at, seq)` order wins — the apply-then-overlay order of
        // per-line fetches. Skipped entirely when nothing is in flight, the
        // common case.
        if !self.runs.is_empty() {
            let end = line_addr + n_lines * LINE;
            let mut shown = std::mem::take(&mut self.shown);
            for r in &self.runs {
                let (lo, hi) = (r.first_line.max(line_addr), r.end().min(end));
                if lo >= hi {
                    continue;
                }
                shown.resize(n_lines as usize, None);
                for la in (lo..hi).step_by(LINE as usize) {
                    let i = (la - line_addr) / LINE;
                    let t_i = t0 + SimDuration::from_nanos(i * step_ns);
                    let visible_at = r.visible_at(la);
                    let key = Some((visible_at, r.seq));
                    if (visible_at <= t_i || r.port == port) && shown[i as usize] < key {
                        shown[i as usize] = key;
                        let off = (i * LINE) as usize;
                        out[off..off + LINE as usize].copy_from_slice(r.line(la));
                    }
                }
            }
            shown.clear();
            self.shown = shown;
            // Match the queue state a per-line walk would have left: every
            // write due by the final fetch time has been applied.
            self.apply_pending(t0 + SimDuration::from_nanos((n_lines - 1) * step_ns));
        }
    }

    /// Observer hooks for one line a CPU cache is about to post (`obs`
    /// timelines, sanitizer shadow). [`crate::HostCtx`] calls this once per
    /// line, at the point a per-line flush would have posted it, so both
    /// observers see the same events in the same order whether the line
    /// then travels alone or inside a run. Free when neither is compiled in.
    #[inline]
    pub(crate) fn note_posted_line(&mut self, port: PortId, line_addr: u64, visible_at: SimTime) {
        // Timeline-binned at visibility time — the instant the line is on
        // the wire toward pool memory (posting time is not plumbed here).
        self.note_xfer(visible_at, port, LINE);
        #[cfg(feature = "sanitize")]
        self.san.on_post_writeback(port, line_addr, visible_at);
        #[cfg(not(feature = "sanitize"))]
        let _ = line_addr;
    }

    /// Post a run of consecutive line write-backs from a CPU cache: line
    /// `i` of `data`, at `first_line + i·LINE`, becomes visible at
    /// `visible0 + i·step_ns`. Meters `data.len()` written bytes on `port`
    /// and wakes whoever watches the lines ([`Self::watch`]).
    ///
    /// The run is split at traffic-class span edges (see
    /// [`Self::class_span_end`]) so each piece is metered to the class a
    /// per-line walk would have charged.
    pub(crate) fn post_writeback_run(
        &mut self,
        port: PortId,
        first_line: u64,
        data: &[u8],
        visible0: SimTime,
        step_ns: u64,
    ) {
        debug_assert!(first_line.is_multiple_of(LINE));
        debug_assert!(data.len().is_multiple_of(LINE as usize));
        self.wake_watchers(first_line, first_line + data.len() as u64);
        let (mut la, mut visible, mut rest) = (first_line, visible0, data);
        while !rest.is_empty() {
            // Lines whose *base* lies in `la`'s class span (classification
            // is by base, exactly as in the per-line walk).
            let class = self.classify(la);
            let span_lines = (self.class_span_end(la) - la).div_ceil(LINE);
            let n = span_lines.min(rest.len() as u64 / LINE);
            let (piece, tail) = rest.split_at((n * LINE) as usize);
            self.meters[port.0].write_bytes[class.index()] += piece.len() as u64;

            let mut buf = self.free_bufs[usize::from(n > 1)].pop().unwrap_or_default();
            buf.extend_from_slice(piece);
            self.runs.push(Run {
                visible0: visible,
                first_line: la,
                n,
                step: step_ns,
                seq: self.next_seq,
                port,
                off: 0,
                data: buf,
            });
            self.next_seq += 1;
            self.pending_lines += n as usize;
            self.next_due = self.next_due.min(visible);

            la += n * LINE;
            visible += SimDuration::from_nanos(n * step_ns);
            rest = tail;
        }
    }

    /// Device DMA read: bypasses CPU caches entirely, reads pool memory
    /// directly. Metered on `port` (the port of the host the device hangs
    /// off).
    pub fn dma_read(&mut self, now: SimTime, port: PortId, addr: u64, out: &mut [u8]) {
        self.apply_pending(now);
        #[cfg(feature = "sanitize")]
        self.san.on_dma_read(port, addr, out.len() as u64, now);
        let class = self.classify(addr);
        self.meters[port.0].read_bytes[class.index()] += out.len() as u64;
        self.note_xfer(now, port, out.len() as u64);
        let base = addr as usize;
        out.copy_from_slice(&self.mem[base..base + out.len()]);
    }

    /// Device DMA write: bypasses CPU caches, immediately visible in pool
    /// memory (devices do not have a posted write-back queue in this model;
    /// their latency is charged by the device's own timing model).
    pub fn dma_write(&mut self, now: SimTime, port: PortId, addr: u64, data: &[u8]) {
        self.apply_pending(now);
        #[cfg(feature = "sanitize")]
        self.san.on_dma_write(port, addr, data.len() as u64);
        let class = self.classify(addr);
        self.meters[port.0].write_bytes[class.index()] += data.len() as u64;
        self.note_xfer(now, port, data.len() as u64);
        let base = addr as usize;
        self.mem[base..base + data.len()].copy_from_slice(data);
    }

    /// Unmetered debug read of pool memory (tests and assertions only).
    pub fn peek(&self, addr: u64, out: &mut [u8]) {
        let base = addr as usize;
        out.copy_from_slice(&self.mem[base..base + out.len()]);
    }

    /// Unmetered debug write of pool memory (test setup only).
    pub fn poke(&mut self, addr: u64, data: &[u8]) {
        let base = addr as usize;
        self.mem[base..base + data.len()].copy_from_slice(data);
    }

    /// Number of line write-backs still in flight.
    pub fn pending_writebacks(&self) -> usize {
        self.pending_lines
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed and read pool bytes directly"
)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Post one line (a 1-line run).
    fn post(p: &mut CxlPool, port: usize, addr: u64, line: [u8; 64], visible_at: SimTime) {
        p.post_writeback_run(PortId(port), addr, &line, visible_at, 0);
    }

    /// `n` lines of run data, line `i` filled with `first + i`.
    fn run_data(first: u8, n: u64) -> Vec<u8> {
        (0..n)
            .flat_map(|i| [first.wrapping_add(i as u8); LINE as usize])
            .collect()
    }

    fn peek_byte(p: &CxlPool, addr: u64) -> u8 {
        let mut b = [0u8; 1];
        p.peek(addr, &mut b);
        b[0]
    }

    #[test]
    fn dma_write_then_read_roundtrip() {
        let mut p = CxlPool::new(4096, 2);
        p.dma_write(t(0), PortId(0), 100, b"hello");
        let mut buf = [0u8; 5];
        p.dma_read(t(1), PortId(1), 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn posted_writeback_invisible_until_deadline() {
        let mut p = CxlPool::new(4096, 1);
        let mut line = [0u8; 64];
        line[0] = 42;
        post(&mut p, 0, 0, line, t(100));
        let mut buf = [0u8; 1];
        p.dma_read(t(50), PortId(0), 0, &mut buf);
        assert_eq!(buf[0], 0, "write must not be visible before t=100");
        p.dma_read(t(100), PortId(0), 0, &mut buf);
        assert_eq!(buf[0], 42, "write must be visible at t=100");
    }

    #[test]
    fn meters_attribute_by_class_and_port() {
        let mut p = CxlPool::new(4096, 2);
        p.register_class(0, 1024, TrafficClass::Payload);
        p.register_class(1024, 2048, TrafficClass::Message);
        p.dma_write(t(0), PortId(0), 0, &[0u8; 128]);
        p.dma_read(t(0), PortId(1), 1024, &mut [0u8; 64]);
        assert_eq!(p.meter(PortId(0)).write_bytes(TrafficClass::Payload), 128);
        assert_eq!(p.meter(PortId(0)).total_bytes(), 128);
        assert_eq!(p.meter(PortId(1)).read_bytes(TrafficClass::Message), 64);
        assert_eq!(p.meter(PortId(1)).class_bytes(TrafficClass::Message), 64);
        p.reset_meters();
        assert_eq!(p.meter(PortId(0)).total_bytes(), 0);
    }

    #[test]
    fn classify_falls_back_to_unclassified() {
        let mut p = CxlPool::new(4096, 1);
        p.register_class(0, 64, TrafficClass::Control);
        assert_eq!(p.classify(10), TrafficClass::Control);
        assert_eq!(p.classify(64), TrafficClass::Unclassified);
    }

    #[test]
    fn touching_same_class_ranges_merge_and_classify_as_registered() {
        use TrafficClass::{Control, Message, Payload};
        let mut p = CxlPool::new(2048, 1);
        let registered = [
            (0, 256, Message),
            (512, 768, Message),
            (768, 1024, Payload),
            // Arrives between two ranges of its class: joins both.
            (256, 512, Message),
            (1280, 1536, Payload),
            // Between two ranges of another class: joins neither.
            (1024, 1280, Control),
        ];
        for (s, e, c) in registered {
            p.register_class(s, e, c);
        }
        assert_eq!(
            p.class_ranges,
            [
                (0, 768, Message),
                (768, 1024, Payload),
                (1024, 1280, Control),
                (1280, 1536, Payload)
            ]
        );
        for addr in 0..p.size() {
            let want = registered
                .iter()
                .find(|&&(s, e, _)| s <= addr && addr < e)
                .map_or(TrafficClass::Unclassified, |&(_, _, c)| c);
            assert_eq!(p.classify(addr), want, "addr {addr}");
            // The span ends where the class changes, and not before.
            let end = p.class_span_end(addr);
            assert!(addr < end && end <= p.size(), "addr {addr}");
            assert_eq!(p.classify(end - 1), want, "addr {addr}");
            assert!(end == p.size() || p.classify(end) != want, "addr {addr}");
        }
    }

    #[test]
    fn fetch_line_sees_applied_writebacks_in_time_order() {
        // Cross-host view: another port observes write-backs only as their
        // propagation delays elapse, in visibility order.
        let mut p = CxlPool::new(4096, 2);
        let mut l1 = [0u8; 64];
        l1[0] = 1;
        let mut l2 = [0u8; 64];
        l2[0] = 2;
        // Two write-backs to the same line: later-visible one posted first.
        post(&mut p, 0, 0, l2, t(200));
        post(&mut p, 0, 0, l1, t(100));
        let line = p.fetch_line(t(150), PortId(1), 0);
        assert_eq!(line[0], 1);
        let line = p.fetch_line(t(250), PortId(1), 0);
        assert_eq!(line[0], 2);
    }

    #[test]
    fn fetch_line_observes_own_port_inflight_writebacks() {
        // Same-source ordering: the posting port reads its own write-back
        // immediately, even before global visibility.
        let mut p = CxlPool::new(4096, 2);
        let mut l = [0u8; 64];
        l[0] = 7;
        post(&mut p, 0, 0, l, t(1_000));
        assert_eq!(p.fetch_line(t(10), PortId(0), 0)[0], 7, "own write seen");
        assert_eq!(p.fetch_line(t(10), PortId(1), 0)[0], 0, "peer still stale");
        assert_eq!(p.fetch_line(t(1_000), PortId(1), 0)[0], 7);
    }

    #[test]
    fn flush_pending_applies_everything() {
        let mut p = CxlPool::new(4096, 1);
        let mut l = [0u8; 64];
        l[7] = 9;
        post(&mut p, 0, 64, l, t(1_000_000));
        assert_eq!(p.pending_writebacks(), 1);
        p.flush_pending();
        assert_eq!(p.pending_writebacks(), 0);
        assert_eq!(peek_byte(&p, 64 + 7), 9);
    }

    #[test]
    fn run_lands_line_by_line_as_time_passes() {
        let mut p = CxlPool::new(4096, 1);
        // Lines 1..=4, visible at 100, 110, 120, 130.
        p.post_writeback_run(PortId(0), 64, &run_data(1, 4), t(100), 10);
        assert_eq!(p.pending_writebacks(), 4);
        p.apply_pending(t(99));
        assert_eq!(p.pending_writebacks(), 4);
        p.apply_pending(t(119));
        assert_eq!(p.pending_writebacks(), 2, "lines at 100 and 110 landed");
        assert_eq!(
            [64, 128, 192, 256].map(|a| peek_byte(&p, a)),
            [1, 2, 0, 0],
            "only the due prefix is in memory"
        );
        p.apply_pending(t(130));
        assert_eq!(p.pending_writebacks(), 0);
        assert_eq!([64, 128, 192, 256].map(|a| peek_byte(&p, a)), [1, 2, 3, 4]);
    }

    #[test]
    fn overlapping_runs_land_in_visibility_then_posting_order() {
        // Two hosts with skewed clocks write back overlapping buffers, and
        // both runs are due in the same apply_pending call. Per line the
        // later (visible_at, posting order) must win:
        //   run A (port 0, posted first):  lines 0..4 visible 100,110,120,130
        //   run B (port 1, posted second): lines 2..6 visible 105,115,125,135
        // Line 2: A at 120 beats B at 105. Line 3: A at 130 beats B at 115.
        let mut p = CxlPool::new(4096, 2);
        p.post_writeback_run(PortId(0), 0, &run_data(0xA0, 4), t(100), 10);
        p.post_writeback_run(PortId(1), 128, &run_data(0xB0, 4), t(105), 10);
        // A third run, same lines as A, same visibility times, posted
        // last: ties go to posting order, so it beats A everywhere — and on
        // lines 2 and 3 it beats B too, being visible later.
        p.post_writeback_run(PortId(1), 0, &run_data(0xC0, 4), t(100), 10);
        p.apply_pending(t(1_000));
        assert_eq!(p.pending_writebacks(), 0);
        let got: Vec<u8> = (0..6).map(|l| peek_byte(&p, l * LINE)).collect();
        assert_eq!(got, [0xC0, 0xC1, 0xC2, 0xC3, 0xB2, 0xB3]);

        // The same two buffers again, B's clock now far behind A's: every
        // line of B is visible before A's, so A wins the shared lines even
        // though B was posted later.
        let mut p = CxlPool::new(4096, 2);
        p.post_writeback_run(PortId(0), 0, &run_data(0xA0, 4), t(500), 10);
        p.post_writeback_run(PortId(1), 128, &run_data(0xB0, 4), t(105), 10);
        p.apply_pending(t(1_000));
        let got: Vec<u8> = (0..6).map(|l| peek_byte(&p, l * LINE)).collect();
        assert_eq!(got, [0xA0, 0xA1, 0xA2, 0xA3, 0xB2, 0xB3]);
    }

    #[test]
    fn flushing_a_long_run_does_not_overflow() {
        let n = 512;
        let mut p = CxlPool::new(n * LINE, 1);
        // Coarse steps near the end of time: the due-count must come from
        // the time difference, not from stepping past `SimTime::MAX`.
        let step = u64::MAX / (2 * n);
        p.post_writeback_run(PortId(0), 0, &run_data(1, n), t(1), step);
        p.apply_pending(t(step));
        assert_eq!(
            p.pending_writebacks(),
            (n - 1) as usize,
            "only line 0 is due"
        );
        p.apply_pending(SimTime::MAX);
        assert_eq!(p.pending_writebacks(), 0);
        assert_eq!(peek_byte(&p, (n - 1) * LINE), (n as u8).wrapping_add(0));
        // A zero-step run (every line visible at once) as well.
        p.post_writeback_run(PortId(0), 0, &run_data(7, n), t(5), 0);
        p.flush_pending();
        assert_eq!(p.pending_writebacks(), 0);
        assert_eq!(peek_byte(&p, 0), 7);
    }

    #[test]
    fn run_is_metered_per_class_span() {
        // Spans need not be line-aligned; a line belongs to the class of
        // its base address, exactly as when each line is posted alone.
        let mut bulk = CxlPool::new(4096, 1);
        let mut walk = CxlPool::new(4096, 1);
        for p in [&mut bulk, &mut walk] {
            p.register_class(0, 160, TrafficClass::Payload);
            p.register_class(160, 320, TrafficClass::Message);
            p.register_class(512, 576, TrafficClass::Control);
        }
        let data = run_data(1, 10);
        bulk.post_writeback_run(PortId(0), 0, &data, t(10), 3);
        for i in 0..10 {
            let at = (i * LINE) as usize;
            walk.post_writeback_run(PortId(0), i * LINE, &data[at..at + 64], t(10 + 3 * i), 0);
        }
        for class in TrafficClass::ALL {
            assert_eq!(
                bulk.meter(PortId(0)).write_bytes(class),
                walk.meter(PortId(0)).write_bytes(class),
                "{class:?}"
            );
        }
        assert_eq!(
            bulk.meter(PortId(0)).write_bytes(TrafficClass::Payload),
            192
        );
        assert_eq!(
            bulk.meter(PortId(0)).write_bytes(TrafficClass::Message),
            128
        );
        assert_eq!(bulk.meter(PortId(0)).write_bytes(TrafficClass::Control), 64);
        // The pieces keep the run's visibility schedule.
        bulk.apply_pending(t(10 + 3 * 4));
        walk.apply_pending(t(10 + 3 * 4));
        assert_eq!(bulk.pending_writebacks(), 5);
        assert_eq!(bulk.mem, walk.mem);
        bulk.flush_pending();
        walk.flush_pending();
        assert_eq!(bulk.mem, walk.mem);
    }

    #[test]
    fn a_post_into_a_watched_range_wakes_its_watcher_once() {
        let mut p = CxlPool::new(4096, 2);
        // Watcher 7 polls two rings, watcher 9 one; registered out of order.
        p.watch(1024, 1280, 9);
        p.watch(0, 256, 7);
        p.watch(512, 768, 7);
        assert_eq!(p.pop_woken(), None);
        // Between and beside the rings: nobody.
        post(&mut p, 0, 256, [1; 64], t(5));
        post(&mut p, 1, 1280, [1; 64], t(5));
        assert_eq!(p.pop_woken(), None);
        // A run that ends inside ring 2 of watcher 7 wakes it, once, and
        // ends its watch on ring 1 too.
        p.post_writeback_run(PortId(1), 384, &run_data(1, 3), t(5), 0);
        assert_eq!(p.pop_woken(), Some(7));
        assert_eq!(p.pop_woken(), None);
        post(&mut p, 0, 0, [2; 64], t(6));
        assert_eq!(p.pop_woken(), None);
        // Only 9 is left; any port's post counts.
        post(&mut p, 0, 1216, [3; 64], t(7));
        assert_eq!(p.pop_woken(), Some(9));
        // Unwatching is silent.
        p.watch(0, 256, 7);
        p.unwatch(7);
        post(&mut p, 0, 0, [4; 64], t(8));
        assert_eq!(p.pop_woken(), None);
        assert!(p.watches.is_empty());
    }

    #[test]
    fn charged_fetches_meter_like_real_ones() {
        let mut charged = CxlPool::new(4096, 2);
        let mut fetched = CxlPool::new(4096, 2);
        for p in [&mut charged, &mut fetched] {
            p.register_class(0, 1024, TrafficClass::Message);
        }
        // 40 ns apart from 100 ns before a timeline bin boundary: the five
        // fetches straddle it (3 + 2).
        let first = 10_000_000 - 100;
        charged.charge_line_fetches(PortId(1), 128, 5, t(first), 40);
        charged.charge_line_fetches(PortId(1), 2048, 2, t(100), 0);
        for i in 0..5 {
            fetched.fetch_line(t(first + 40 * i), PortId(1), 128);
        }
        for _ in 0..2 {
            fetched.fetch_line(t(100), PortId(1), 2048);
        }
        for class in TrafficClass::ALL {
            assert_eq!(
                charged.meter(PortId(1)).read_bytes(class),
                fetched.meter(PortId(1)).read_bytes(class),
                "{class:?}"
            );
        }
        assert_eq!(
            charged.meter(PortId(1)).read_bytes(TrafficClass::Message),
            320
        );
        assert_eq!(charged.meter(PortId(0)).total_bytes(), 0);
        #[cfg(feature = "obs")]
        for (c, f) in charged.tl_xfer.iter().zip(&fetched.tl_xfer) {
            assert_eq!(c.bins(), f.bins());
            assert!(c.bins().len() != 1, "port 1 filled two bins, port 0 none");
        }
        charged.poke(130, &[9]);
        assert_eq!(charged.settled_byte(130), Some(9));
        post(&mut charged, 0, 128, [1; 64], t(500));
        assert_eq!(charged.settled_byte(130), None, "a write-back is in flight");
        assert_eq!(charged.settled_byte(192), Some(0));
        charged.apply_pending(t(500));
        assert_eq!(charged.settled_byte(130), Some(1));
    }

    #[test]
    fn run_buffers_are_recycled_by_size() {
        let mut p = CxlPool::new(1 << 16, 1);
        let payload = run_data(1, 256);
        let mut now = 0;
        for round in 0..50u64 {
            // Up to three payload runs and three message lines in flight.
            for k in 0..3 {
                p.post_writeback_run(PortId(0), k * 16384, &payload, t(now + 100), 1);
                post(&mut p, 0, 49152 + k * LINE, [round as u8; 64], t(now + 100));
            }
            now += 1_000;
            p.apply_pending(t(now));
        }
        assert_eq!(p.pending_writebacks(), 0);
        let [line_bufs, run_bufs] = &p.free_bufs;
        assert_eq!(
            (line_bufs.len(), run_bufs.len()),
            (3, 3),
            "peak concurrent runs"
        );
        assert!(line_bufs.iter().all(|b| b.capacity() == LINE as usize));
        assert!(run_bufs.iter().all(|b| b.capacity() >= payload.len()));
    }
}

#[cfg(test)]
mod pending_props {
    use super::*;
    use oasis_sim::time::SimDuration;
    use proptest::prelude::*;

    /// Lines in the proptest pools.
    const LINES: u64 = 8;

    /// A posted line write as the reference model remembers it: the full
    /// history in posting order, never drained. A posted run contributes
    /// one entry per line.
    #[derive(Clone, Copy, Debug)]
    struct MWrite {
        visible_at: SimTime,
        port: usize,
        line: u64,
        byte: u8,
    }

    /// What a fetch of `line` by `port` at `now` must return, derived from
    /// the full posting history instead of the pool's queue:
    ///
    /// 1. writes with `visible_at <= now` land in memory in visibility
    ///    order (posting order breaks ties) — so the last such write wins;
    /// 2. of the writes still in flight, the fetching port observes its
    ///    *own* (same-source serialization: read-your-own-writes), again
    ///    the last in that order; every other port's in-flight write stays
    ///    invisible until its deadline.
    fn model_fetch(history: &[MWrite], now: SimTime, port: usize, line: u64) -> u8 {
        let mut to_line: Vec<&MWrite> = history.iter().filter(|w| w.line == line).collect();
        // Stable sort: ties in visible_at keep posting order.
        to_line.sort_by_key(|w| w.visible_at);
        let mut landed = 0u8; // pool memory starts zeroed
        let mut own_inflight = None;
        for w in to_line {
            if w.visible_at <= now {
                landed = w.byte;
            } else if w.port == port {
                own_inflight = Some(w.byte);
            }
        }
        own_inflight.unwrap_or(landed)
    }

    /// A run as the strategies draw it; `n` is clipped to the pool.
    #[derive(Clone, Copy, Debug)]
    struct RunSpec {
        port: usize,
        first_line: u64,
        n: u64,
        byte: u8,
        step: u64,
    }

    fn run_strategy() -> impl Strategy<Value = RunSpec> {
        // 8 lines × 3 ports with short horizons keeps overlaps, visibility
        // ties (`step == 0`, equal delays) and later-posted-but-earlier-
        // visible runs from another port frequent. Half the runs are the
        // single lines `clwb` / eviction post.
        (
            0usize..3,
            0..LINES,
            prop_oneof![Just(1u64), 1..=LINES],
            any::<u8>(),
            prop_oneof![Just(0u64), 0u64..40],
        )
            .prop_map(|(port, first_line, n, byte, step)| RunSpec {
                port,
                first_line,
                n: n.min(LINES - first_line),
                byte,
                step,
            })
    }

    /// Post `spec` at `visible0` to `pool`, recording its lines in
    /// `history`.
    fn post_run(pool: &mut CxlPool, history: &mut Vec<MWrite>, spec: RunSpec, visible0: SimTime) {
        let mut data = Vec::new();
        for i in 0..spec.n {
            let byte = spec.byte.wrapping_add(i as u8);
            data.extend_from_slice(&[byte; LINE as usize]);
            history.push(MWrite {
                visible_at: visible0 + SimDuration::from_nanos(i * spec.step),
                port: spec.port,
                line: spec.first_line + i,
                byte,
            });
        }
        pool.post_writeback_run(
            PortId(spec.port),
            spec.first_line * LINE,
            &data,
            visible0,
            spec.step,
        );
    }

    #[derive(Clone, Debug)]
    enum Op {
        PostRun { run: RunSpec, delay: u64 },
        Advance { ns: u64 },
        Fetch { port: usize, line: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (run_strategy(), 0u64..500).prop_map(|(run, delay)| Op::PostRun { run, delay }),
            (0u64..300).prop_map(|ns| Op::Advance { ns }),
            (0usize..3, 0..LINES).prop_map(|(port, line)| Op::Fetch { port, line }),
        ]
    }

    proptest! {
        /// Pending-write-back semantics against the reference model: each
        /// port reads its own posted writes immediately; no port observes
        /// another port's write before its `visible_at`; once due, writes
        /// land in visibility order — line by line, however they were
        /// grouped into runs. Also checks that `apply_pending` retires
        /// exactly the due lines.
        #[test]
        fn pending_writebacks_match_model(
            ops in proptest::collection::vec(op_strategy(), 1..150),
        ) {
            let mut pool = CxlPool::new(LINES * LINE, 3);
            let mut history: Vec<MWrite> = Vec::new();
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::PostRun { run, delay } => {
                        let visible0 = now + SimDuration::from_nanos(delay);
                        post_run(&mut pool, &mut history, run, visible0);
                    }
                    Op::Advance { ns } => now += SimDuration::from_nanos(ns),
                    Op::Fetch { port, line } => {
                        let got = pool.fetch_line(now, PortId(port), line * LINE);
                        let want = model_fetch(&history, now, port, line);
                        prop_assert_eq!(
                            got,
                            [want; LINE as usize],
                            "fetch(line {} port {} at {:?}) diverged from model",
                            line,
                            port,
                            now
                        );
                        // fetch_line applied everything due by `now`, so the
                        // queue must hold exactly the not-yet-due lines.
                        let inflight =
                            history.iter().filter(|w| w.visible_at > now).count();
                        prop_assert_eq!(pool.pending_writebacks(), inflight);
                    }
                }
            }
            // Everything lands in the end, last-visible write on top.
            pool.flush_pending();
            prop_assert_eq!(pool.pending_writebacks(), 0);
            for line in 0..LINES {
                let want = model_fetch(&history, SimTime::MAX, 0, line);
                prop_assert_eq!(pool.mem[(line * LINE) as usize], want, "line {}", line);
            }
        }

        /// The one-pass sweep marks exactly the entries a pairwise check
        /// would.
        #[test]
        fn mark_shared_matches_pairwise_check(
            spans in proptest::collection::vec((0u64..24, 1u64..8), 0..10),
        ) {
            let mut due: Vec<Due> = spans
                .iter()
                .enumerate()
                .map(|(run, &(start, len))| Due { start, end: start + len, run, shared: false })
                .collect();
            mark_shared(&mut due);
            for d in &due {
                let pairwise = due
                    .iter()
                    .any(|o| o.run != d.run && o.start < d.end && d.start < o.end);
                prop_assert_eq!(d.shared, pairwise, "[{}, {}) among {:?}", d.start, d.end, spans);
            }
        }

        /// The bulk streaming fetch is observationally identical to the
        /// per-line walk it replaces and to the model: same bytes, same
        /// meter totals, same retired-queue state, for any history of
        /// posted runs and any (start, length, step, port, t0).
        #[test]
        fn bulk_fetch_matches_per_line_walk(
            posts in proptest::collection::vec((run_strategy(), 0u64..800), 0..24),
            start in 0..LINES,
            len in 1..=LINES,
            step_ns in 0u64..120,
            port in 0usize..3,
            t0_ns in 0u64..900,
        ) {
            let n_lines = len.min(LINES - start);
            let t0 = SimTime::from_nanos(t0_ns);
            // Two pools fed the identical posting history.
            let mut bulk = CxlPool::new(LINES * LINE, 3);
            let mut walk = CxlPool::new(LINES * LINE, 3);
            let mut history = Vec::new();
            for &(run, vis) in &posts {
                let at = SimTime::from_nanos(vis);
                post_run(&mut bulk, &mut history, run, at);
                post_run(&mut walk, &mut Vec::new(), run, at);
            }

            let mut got = vec![0u8; (n_lines * LINE) as usize];
            bulk.fetch_lines(t0, step_ns, PortId(port), start * LINE, &mut got);

            let mut want = vec![0u8; (n_lines * LINE) as usize];
            for i in 0..n_lines {
                let t_i = t0 + SimDuration::from_nanos(i * step_ns);
                let line = walk.fetch_line(t_i, PortId(port), (start + i) * LINE);
                prop_assert_eq!(
                    line,
                    [model_fetch(&history, t_i, port, start + i); LINE as usize],
                    "per-line walk diverged from model at line {}",
                    start + i
                );
                let off = (i * LINE) as usize;
                want[off..off + LINE as usize].copy_from_slice(&line);
            }

            prop_assert_eq!(got, want, "bulk bytes diverged from per-line walk");
            prop_assert_eq!(
                bulk.meter(PortId(port)).total_bytes(),
                walk.meter(PortId(port)).total_bytes(),
                "meter totals diverged"
            );
            prop_assert_eq!(
                bulk.pending_writebacks(),
                walk.pending_writebacks(),
                "retired-queue state diverged"
            );
            prop_assert_eq!(bulk.mem, walk.mem, "landed bytes diverged");
        }
    }
}
