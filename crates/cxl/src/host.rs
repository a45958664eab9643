//! The CPU-visible memory-operation API of a simulated host.
//!
//! [`HostCtx`] is what driver code (message channels, engines, allocator)
//! uses to touch shared CXL memory. Every operation:
//!
//! 1. goes through the host's private [`HostCache`] with write-back
//!    semantics, so stale reads and invisible dirty writes happen exactly as
//!    on real non-coherent CXL 2.0 hardware, and
//! 2. advances the host's *local clock* by the operation's cost from the
//!    [`CostModel`], which is how experiments measure latency and
//!    throughput.
//!
//! The explicit `clflushopt`/`clwb`/`mfence`/`prefetch` calls mirror the x86
//! instructions the paper's implementation uses (§3.2.2, §4).

use oasis_sim::time::{SimDuration, SimTime};

use crate::cache::{HostCache, FILL_LINES};
use crate::cost::CostModel;
use crate::pool::{CxlPool, PortId};
use crate::sanitizer::Sanitizer;
use crate::{line_base, lines_covering, LINE};

/// A sanitizer check point fed one line: port, line, live cache state
/// (`None`: absent; else dirty or not), clock.
type Annotation = fn(&mut Sanitizer, PortId, u64, Option<bool>, SimTime);

/// Counters of memory operations a host has performed (for assertions and
/// overhead breakdowns).
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    /// Loads served from the local cache.
    pub hits: u64,
    /// Loads that had to fetch from the pool.
    pub misses: u64,
    /// Loads that stalled on an in-flight prefetch.
    pub prefetch_stalls: u64,
    /// Stores into present lines.
    pub store_hits: u64,
    /// Stores that required a read-for-ownership fetch.
    pub store_misses: u64,
    /// CLFLUSHOPT instructions issued.
    pub flushes: u64,
    /// CLWB instructions issued.
    pub writebacks: u64,
    /// MFENCE instructions issued.
    pub fences: u64,
    /// PREFETCHT0 issued for absent lines.
    pub prefetches: u64,
    /// PREFETCHT0 that found the line already present (and did nothing —
    /// the property that breaks naive prefetching on stale lines).
    pub prefetch_skips: u64,
    /// Dirty lines written back due to capacity eviction.
    pub evict_writebacks: u64,
}

/// A simulated host CPU context: cache + local clock + private DRAM.
pub struct HostCtx {
    /// This host's port on the CXL pool device.
    pub port: PortId,
    /// Local cycle-accounted clock.
    pub clock: SimTime,
    /// The host's private CPU cache for pool lines.
    pub cache: HostCache,
    /// Cost model used for clock accounting.
    pub costs: CostModel,
    /// Operation counters.
    pub stats: MemStats,
    /// Host-private DRAM (instance memory, IPC rings, baseline I/O buffers).
    local: Vec<u8>,
    /// Latest visibility time of a write-back this host has posted;
    /// `mfence` stalls until it (SFENCE-after-CLWB completion semantics).
    pending_visible: SimTime,
    /// Scratch buffer for bulk streaming fetches (reused across calls so
    /// the hot path never allocates).
    stream_buf: Vec<u8>,
    /// Write-backs staged for the pool: the bytes of consecutive dirty
    /// lines starting at `wb_first`, the first visible at `wb_visible0`.
    /// Empty between operations.
    wb_buf: Vec<u8>,
    wb_first: u64,
    wb_visible0: SimTime,
    /// Hardware next-line prefetcher depth (0 = disabled, the default).
    /// When two consecutive lines miss in ascending order, the next
    /// `hw_prefetch_depth` lines are prefetched — and, like all prefetches,
    /// *skip lines already present*, which is why hardware prefetching is
    /// just as ineffective as software prefetching over non-coherent
    /// memory (§3.2.2).
    hw_prefetch_depth: u64,
    /// Line address of the most recent demand miss (stream detection).
    last_miss_line: u64,
}

impl HostCtx {
    /// Host with the default 4096-line cache and default cost model.
    pub fn new(port: PortId, local_mem: u64) -> Self {
        Self::with_cache(port, local_mem, 4096, CostModel::default())
    }

    /// Host with explicit cache capacity (lines) and cost model.
    pub fn with_cache(port: PortId, local_mem: u64, cache_lines: usize, costs: CostModel) -> Self {
        HostCtx {
            port,
            clock: SimTime::ZERO,
            cache: HostCache::new(cache_lines),
            costs,
            stats: MemStats::default(),
            local: vec![0; local_mem as usize],
            stream_buf: Vec::new(),
            wb_buf: Vec::new(),
            wb_first: 0,
            wb_visible0: SimTime::ZERO,
            pending_visible: SimTime::ZERO,
            hw_prefetch_depth: 0,
            last_miss_line: u64::MAX,
        }
    }

    /// Enable the hardware next-line stream prefetcher (nothing outside
    /// this module's tests does).
    #[cfg(test)]
    pub(crate) fn set_hw_prefetch_depth(&mut self, depth: u64) {
        self.hw_prefetch_depth = depth;
    }

    /// Advance the local clock by `ns` (used by drivers to charge
    /// non-memory work like descriptor processing).
    #[inline]
    pub fn advance(&mut self, ns: u64) {
        self.clock += SimDuration::from_nanos(ns);
    }

    /// Whether an empty poll of an absent line — one miss, one `clflushopt`,
    /// one `mfence` — leaves this core as it found it but for the clock,
    /// those three counters and the stream detector's last miss: the fill
    /// evicts nothing, the hardware prefetcher is off, and no write-back
    /// this core posted is still in flight at `first_fence` (when the first
    /// such `mfence` issues), so no fence waits.
    pub fn empty_polls_repeat(&self, first_fence: SimTime) -> bool {
        self.hw_prefetch_depth == 0
            && self.pending_visible <= first_fence
            && self.cache.len() < self.cache.capacity()
    }

    /// Count `n` such empty polls, the last of them of `last_line`. The
    /// clock and the pool's side of the fetches are the caller's.
    pub fn account_empty_polls(&mut self, n: u64, last_line: u64) {
        self.stats.misses += n;
        self.stats.flushes += n;
        self.stats.fences += n;
        if n > 0 {
            self.last_miss_line = last_line;
        }
    }

    /// The one way a dirty line leaves this cache (`clwb`, `clflushopt`,
    /// eviction): it becomes visible in pool memory `cxl_write_visible_ns`
    /// after the current clock, and `mfence` waits for that. The line is
    /// staged behind the lines already staged — the caller stages only
    /// consecutive lines — and [`Self::post_staged`] posts them as one run.
    #[inline]
    fn stage_writeback(&mut self, pool: &mut CxlPool, la: u64, data: &[u8; LINE as usize]) {
        let visible = self.clock + SimDuration::from_nanos(self.costs.cxl_write_visible_ns);
        self.pending_visible = self.pending_visible.max(visible);
        pool.note_posted_line(self.port, la, visible);
        if self.wb_buf.is_empty() {
            self.wb_first = la;
            self.wb_visible0 = visible;
        }
        debug_assert_eq!(la, self.wb_first + self.wb_buf.len() as u64);
        self.wb_buf.extend_from_slice(data);
    }

    /// Post the staged lines, if any, as one run whose lines become visible
    /// `step_ns` apart (the clock step between the flushes that staged
    /// them).
    #[inline]
    fn post_staged(&mut self, pool: &mut CxlPool, step_ns: u64) {
        if !self.wb_buf.is_empty() {
            pool.post_writeback_run(
                self.port,
                self.wb_first,
                &self.wb_buf,
                self.wb_visible0,
                step_ns,
            );
            self.wb_buf.clear();
        }
    }

    fn evict(&mut self, pool: &mut CxlPool, victim: crate::cache::Evicted) {
        if victim.line.dirty {
            self.stats.evict_writebacks += 1;
            self.stage_writeback(pool, victim.addr, &victim.line.data);
            self.post_staged(pool, 0);
        }
    }

    /// Load bytes from pool memory through the cache. Present lines are
    /// served from the (possibly stale!) snapshot; absent lines fetch from
    /// the pool at CXL latency.
    pub fn read(&mut self, pool: &mut CxlPool, addr: u64, out: &mut [u8]) {
        let mut off = 0usize;
        for la in lines_covering(addr, out.len() as u64) {
            // Overlap of this line with the request.
            let lo = addr.max(la);
            let hi = (addr + out.len() as u64).min(la + LINE);
            let n = (hi - lo) as usize;
            let s = (lo - la) as usize;
            // Stall or fetch this line; copy in-branch so the hit path
            // costs a single cache-index lookup.
            if let Some(line) = self.cache.touch(la) {
                let ready = line.ready_at;
                if ready > self.clock {
                    self.stats.prefetch_stalls += 1;
                    self.clock = ready;
                } else {
                    self.stats.hits += 1;
                    self.clock += SimDuration::from_nanos(self.costs.cache_hit_ns);
                }
                out[off..off + n].copy_from_slice(&line.data[s..s + n]);
                pool.observe(|s| s.on_read_hit(self.port, la));
            } else {
                self.stats.misses += 1;
                self.clock += SimDuration::from_nanos(self.costs.cxl_load_ns);
                let data = pool.fetch_line(self.clock, self.port, la);
                out[off..off + n].copy_from_slice(&data[s..s + n]);
                if let Some(v) = self.cache.insert(la, data, false, self.clock) {
                    self.evict(pool, v);
                }
                pool.observe(|s| s.on_fill(self.port, la));
                self.hw_prefetch(pool, la);
            }
            off += n;
        }
    }

    /// Load a `u64` (little-endian) from pool memory.
    pub fn read_u64(&mut self, pool: &mut CxlPool, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(pool, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Bulk streaming load from pool memory (memcpy-style). Sequential
    /// misses pipeline across the CXL link: the first missing line of the
    /// call costs a full load-to-use latency, every further missing line a
    /// per-line streaming cost at link bandwidth. Lines are left cached.
    ///
    /// Consecutive missing lines are fetched as one [`CxlPool::fetch_lines`]
    /// run — one metering charge and one bulk copy instead of a per-line
    /// walk — with identical clocks, stats, eviction times, and meter
    /// attribution. Runs are re-derived at every cached-line boundary
    /// (an eviction inside a run can remove a line that looked cached when
    /// the call started) and clamped at traffic-class span edges so per-run
    /// metering charges the class a per-line walk would have.
    pub fn read_stream(&mut self, pool: &mut CxlPool, addr: u64, out: &mut [u8]) {
        let mut first_miss = true;
        let mut off = 0usize;
        let end = addr + out.len() as u64;
        let mut la = line_base(addr);
        while la < end {
            if let Some(line) = self.cache.touch(la) {
                let ready = line.ready_at;
                if ready > self.clock {
                    self.stats.prefetch_stalls += 1;
                    self.clock = ready;
                } else {
                    self.stats.hits += 1;
                    self.clock += SimDuration::from_nanos(self.costs.cache_hit_ns);
                }
                let lo = addr.max(la);
                let hi = end.min(la + LINE);
                let n = (hi - lo) as usize;
                let s = (lo - la) as usize;
                out[off..off + n].copy_from_slice(&line.data[s..s + n]);
                pool.observe(|s| s.on_read_hit(self.port, la));
                off += n;
                la += LINE;
                continue;
            }

            // Maximal run of consecutive missing lines, clamped to the
            // request and to the class span containing `la`.
            let span_end = pool.class_span_end(la);
            let mut run_end = la + LINE;
            while run_end < end && run_end < span_end && !self.cache.contains(run_end) {
                run_end += LINE;
            }
            let n_lines = (run_end - la) / LINE;
            self.stats.misses += n_lines;
            let first_cost = if first_miss {
                self.costs.cxl_load_ns
            } else {
                self.costs.cxl_stream_line_ns
            };
            first_miss = false;
            let step = self.costs.cxl_stream_line_ns;
            let t0 = self.clock + SimDuration::from_nanos(first_cost);

            let mut buf = std::mem::take(&mut self.stream_buf);
            buf.resize((n_lines * LINE) as usize, 0);
            pool.fetch_lines(t0, step, self.port, la, &mut buf);
            // Install each line at its exact fetch time so eviction
            // write-backs post at the instants the per-line walk would use.
            for i in 0..n_lines {
                let t_i = t0 + SimDuration::from_nanos(i * step);
                self.clock = t_i;
                let mut data = [0u8; LINE as usize];
                data.copy_from_slice(&buf[(i * LINE) as usize..((i + 1) * LINE) as usize]);
                if let Some(v) = self.cache.insert(la + i * LINE, data, false, t_i) {
                    self.evict(pool, v);
                }
                pool.observe(|s| s.on_fill(self.port, la + i * LINE));
            }
            let lo = addr.max(la);
            let hi = end.min(run_end);
            let n = (hi - lo) as usize;
            out[off..off + n].copy_from_slice(&buf[(lo - la) as usize..(lo - la) as usize + n]);
            off += n;
            self.stream_buf = buf;
            la = run_end;
        }
    }

    /// Store bytes to pool memory through the cache (write-back: the data is
    /// *not* visible to other hosts or device DMA until `clwb`,
    /// `clflushopt`, or eviction).
    pub fn write(&mut self, pool: &mut CxlPool, addr: u64, data: &[u8]) {
        let mut off = 0usize;
        for la in lines_covering(addr, data.len() as u64) {
            let lo = addr.max(la);
            let hi = (addr + data.len() as u64).min(la + LINE);
            let n = (hi - lo) as usize;
            if let Some(line) = self.cache.touch(la) {
                // Stall if the line is still being filled by a prefetch.
                if line.ready_at > self.clock {
                    self.clock = line.ready_at;
                }
                self.stats.store_hits += 1;
                self.clock += SimDuration::from_nanos(self.costs.store_hit_ns);
                line.data[(lo - la) as usize..(lo - la) as usize + n]
                    .copy_from_slice(&data[off..off + n]);
                line.dirty = true;
                pool.observe(|s| s.on_write(self.port, la));
            } else if n as u64 == LINE {
                // Full-line store: no read-for-ownership fetch needed.
                self.stats.store_hits += 1;
                self.clock += SimDuration::from_nanos(self.costs.store_hit_ns);
                let mut buf = [0u8; LINE as usize];
                buf.copy_from_slice(&data[off..off + n]);
                if let Some(v) = self.cache.insert(la, buf, true, self.clock) {
                    self.evict(pool, v);
                }
                pool.observe(|s| s.on_write(self.port, la));
            } else {
                // Partial-line write miss: read-for-ownership at CXL latency.
                self.stats.store_misses += 1;
                self.clock += SimDuration::from_nanos(self.costs.cxl_load_ns);
                let mut buf = pool.fetch_line(self.clock, self.port, la);
                buf[(lo - la) as usize..(lo - la) as usize + n]
                    .copy_from_slice(&data[off..off + n]);
                self.clock += SimDuration::from_nanos(self.costs.store_hit_ns);
                if let Some(v) = self.cache.insert(la, buf, true, self.clock) {
                    self.evict(pool, v);
                }
                pool.observe(|s| {
                    s.on_fill(self.port, la);
                    s.on_write(self.port, la);
                });
            }
            off += n;
        }
    }

    /// Store a `u64` (little-endian) to pool memory.
    pub fn write_u64(&mut self, pool: &mut CxlPool, addr: u64, value: u64) {
        self.write(pool, addr, &value.to_le_bytes());
    }

    /// One line's `CLWB`; a dirty line is staged, not yet posted. Returns
    /// whether it was dirty.
    #[inline(always)]
    fn clwb_line(&mut self, pool: &mut CxlPool, la: u64) -> bool {
        self.stats.writebacks += 1;
        self.clock += SimDuration::from_nanos(self.costs.clwb_ns);
        let mut was_dirty = false;
        if let Some(line) = self.cache.touch(la) {
            was_dirty = std::mem::replace(&mut line.dirty, false);
            if was_dirty {
                let data = line.data;
                self.stage_writeback(pool, la, &data);
            }
        }
        pool.observe(|s| s.on_clwb(self.port, la, was_dirty, self.clock));
        was_dirty
    }

    /// One line's `CLFLUSHOPT`; a dirty line is staged, not yet posted.
    /// Returns whether it was dirty.
    #[inline(always)]
    fn clflushopt_line(&mut self, pool: &mut CxlPool, la: u64) -> bool {
        self.stats.flushes += 1;
        self.clock += SimDuration::from_nanos(self.costs.clflushopt_ns);
        let (mut was_present, mut was_dirty) = (false, false);
        if let Some(line) = self.cache.remove(la) {
            was_present = true;
            if line.dirty {
                was_dirty = true;
                self.stage_writeback(pool, la, &line.data);
            }
        }
        pool.observe(|s| s.on_clflush(self.port, la, was_present, was_dirty, self.clock));
        was_dirty
    }

    /// `CLWB`: write a dirty line back to the pool but keep it cached. The
    /// data becomes visible in pool memory after the propagation delay.
    pub fn clwb(&mut self, pool: &mut CxlPool, addr: u64) {
        if self.clwb_line(pool, line_base(addr)) {
            self.post_staged(pool, 0);
        }
    }

    /// `CLWB` of every line of `[addr, addr+len)`, in address order (a
    /// zero-length range still covers its containing line): per line
    /// exactly [`Self::clwb`], but each maximal stretch of consecutive
    /// dirty lines is posted to the pool as one run instead of line by
    /// line.
    pub fn clwb_range(&mut self, pool: &mut CxlPool, addr: u64, len: u64) {
        let step = self.costs.clwb_ns;
        for la in lines_covering(addr, len) {
            if !self.clwb_line(pool, la) {
                self.post_staged(pool, step);
            }
        }
        self.post_staged(pool, step);
    }

    /// `CLFLUSHOPT`: write back if dirty, then evict the line so the next
    /// access fetches fresh data from the pool.
    pub fn clflushopt(&mut self, pool: &mut CxlPool, addr: u64) {
        if self.clflushopt_line(pool, line_base(addr)) {
            self.post_staged(pool, 0);
        }
    }

    /// `CLFLUSHOPT` of every line of `[addr, addr+len)`, in address order
    /// (a zero-length range still covers its containing line): per line
    /// exactly [`Self::clflushopt`], with consecutive dirty lines posted as
    /// one run like [`Self::clwb_range`]. A range of unread lines (a
    /// receiver's prefetch window, [`Self::prefetch_lines`]) is dropped in
    /// one step and each line charged the flush of a clean line.
    pub fn clflushopt_range(&mut self, pool: &mut CxlPool, addr: u64, len: u64) {
        // Unread lines are clean: each flush drops one and posts nothing.
        let first = line_base(addr);
        let n = (line_base(addr + len.max(1) - 1) - first) / LINE + 1;
        if self.cache.drop_unread(first, n) {
            self.flush_unread_fills(pool, first, n);
            return;
        }
        let step = self.costs.clflushopt_ns;
        for la in lines_covering(addr, len) {
            if !self.clflushopt_line(pool, la) {
                self.post_staged(pool, step);
            }
        }
        self.post_staged(pool, step);
    }

    /// `MFENCE`: ordering point. Stalls until this host's posted
    /// write-backs are visible in pool memory (the SFENCE-after-CLWB
    /// completion guarantee drivers rely on before ringing a doorbell),
    /// plus the fixed drain cost.
    pub fn mfence(&mut self, pool: &mut CxlPool) {
        self.stats.fences += 1;
        let had_inflight = self.pending_visible > self.clock;
        self.clock = self.clock.max(self.pending_visible);
        self.clock += SimDuration::from_nanos(self.costs.mfence_ns);
        pool.observe(|s| s.on_fence(self.port, had_inflight, self.clock));
    }

    /// The `CLFLUSHOPT`s of the `n` lines from `first`, each filled by a
    /// miss or a prefetch and neither read again nor written since: present
    /// and clean, so they post nothing.
    #[inline]
    fn flush_unread_fills(&mut self, pool: &mut CxlPool, first: u64, n: u64) {
        let (t0, step) = (self.clock, self.costs.clflushopt_ns);
        self.stats.flushes += n;
        self.clock += SimDuration::from_nanos(n * step);
        pool.observe(|s| {
            for i in 1..=n {
                let at = t0 + SimDuration::from_nanos(i * step);
                s.on_clflush(self.port, first + (i - 1) * LINE, true, false, at);
            }
        });
    }

    /// An empty poll of the line holding `addr`: a load whose bytes the
    /// caller already knows, then `CLFLUSHOPT` and `MFENCE` of the line —
    /// observably [`Self::read`], [`Self::clflushopt`], [`Self::mfence`].
    ///
    /// When the line is absent, the hardware prefetcher is off and the fill
    /// would evict nothing, the line is charged but never cached (DESIGN.md
    /// §7.5): the miss, the fetch at its instant (landing, meter, `obs`
    /// bin), the flush of a clean line and the fence, with the sanitizer
    /// told the same events. Otherwise the three operations run.
    pub fn empty_poll(&mut self, pool: &mut CxlPool, addr: u64) {
        let la = line_base(addr);
        if self.hw_prefetch_depth != 0
            || self.cache.len() >= self.cache.capacity()
            || self.cache.contains(la)
        {
            self.read(pool, la, &mut [0u8; 1]);
            self.clflushopt(pool, la);
            self.mfence(pool);
            return;
        }
        self.stats.misses += 1;
        self.clock += SimDuration::from_nanos(self.costs.cxl_load_ns);
        pool.charge_line_fetch(self.clock, self.port, la);
        pool.observe(|s| s.on_fill(self.port, la));
        self.last_miss_line = la;
        self.flush_unread_fills(pool, la, 1);
        self.mfence(pool);
    }

    /// Copy `[addr, addr + out.len())` out of pool memory and invalidate
    /// it: observably [`Self::read_stream`] then [`Self::clflushopt_range`]
    /// of the same bytes.
    ///
    /// When no line of the range is cached and the fills would evict
    /// nothing, the lines are fetched as [`CxlPool::fetch_lines`] runs at
    /// the instants `read_stream` would fetch them — straight into `out`
    /// wherever a run is whole lines of it — and each is charged the flush
    /// of a clean line, without ever entering the cache (DESIGN.md §7.5).
    /// Otherwise the two operations run.
    pub fn read_flush(&mut self, pool: &mut CxlPool, addr: u64, out: &mut [u8]) {
        let len = out.len() as u64;
        let end = addr + len;
        let n = if len == 0 {
            0
        } else {
            (line_base(end - 1) - line_base(addr)) / LINE + 1
        };
        let fast = n > 0
            && self.cache.len() as u64 + n <= self.cache.capacity() as u64
            && !lines_covering(addr, len).any(|la| self.cache.contains(la));
        if !fast {
            self.read_stream(pool, addr, out);
            self.clflushopt_range(pool, addr, len);
            return;
        }
        // `read_stream`'s runs with nothing cached: maximal, clamped to the
        // request and to class spans.
        let step = self.costs.cxl_stream_line_ns;
        let mut first_cost = self.costs.cxl_load_ns;
        let mut la = line_base(addr);
        while la < end {
            let stop = end.min(pool.class_span_end(la));
            let run_end = la + (stop - la).div_ceil(LINE).max(1) * LINE;
            let n_lines = (run_end - la) / LINE;
            self.stats.misses += n_lines;
            let t0 = self.clock + SimDuration::from_nanos(first_cost);
            first_cost = step;
            let (lo, hi) = (addr.max(la), end.min(run_end));
            let dst = &mut out[(lo - addr) as usize..(hi - addr) as usize];
            if (lo, hi) == (la, run_end) {
                pool.fetch_lines(t0, step, self.port, la, dst);
            } else {
                let mut buf = std::mem::take(&mut self.stream_buf);
                buf.resize((n_lines * LINE) as usize, 0);
                pool.fetch_lines(t0, step, self.port, la, &mut buf);
                dst.copy_from_slice(&buf[(lo - la) as usize..(hi - la) as usize]);
                self.stream_buf = buf;
            }
            self.clock = t0 + SimDuration::from_nanos((n_lines - 1) * step);
            pool.observe(|s| {
                for i in 0..n_lines {
                    s.on_fill(self.port, la + i * LINE);
                }
            });
            la = run_end;
        }
        self.flush_unread_fills(pool, line_base(addr), n);
    }

    /// Hardware stream prefetcher: fired on a demand miss; if the previous
    /// demand miss was the preceding line, asynchronously fill the next
    /// `hw_prefetch_depth` lines (skipping lines already present).
    fn hw_prefetch(&mut self, pool: &mut CxlPool, miss_line: u64) {
        let streaming =
            self.hw_prefetch_depth > 0 && self.last_miss_line.wrapping_add(LINE) == miss_line;
        self.last_miss_line = miss_line;
        if !streaming {
            return;
        }
        for k in 1..=self.hw_prefetch_depth {
            let la = miss_line + k * LINE;
            if la + LINE > pool.size() || self.cache.contains(la) {
                self.stats.prefetch_skips += u64::from(self.cache.contains(la));
                continue;
            }
            self.stats.prefetches += 1;
            let data = pool.fetch_line(self.clock, self.port, la);
            self.prefetched(pool, la, data);
        }
    }

    /// `PREFETCHT0`: start an asynchronous fill of an absent line. If the
    /// line is already present — even if its snapshot is stale — the
    /// prefetch does nothing, which is exactly why naive prefetching fails
    /// over non-coherent memory (§3.2.2 ②).
    pub fn prefetch(&mut self, pool: &mut CxlPool, addr: u64) {
        let la = line_base(addr);
        self.clock += SimDuration::from_nanos(self.costs.prefetch_issue_ns);
        if self.cache.contains(la) {
            self.stats.prefetch_skips += 1;
            return;
        }
        self.stats.prefetches += 1;
        let data = pool.fetch_line(self.clock, self.port, la);
        self.prefetched(pool, la, data);
    }

    /// The fill behind a prefetch issued now: cache `data`, ready
    /// `cxl_load_ns` later, and tell the sanitizer.
    fn prefetched(&mut self, pool: &mut CxlPool, la: u64, data: [u8; LINE as usize]) {
        let ready = self.clock + SimDuration::from_nanos(self.costs.cxl_load_ns);
        if let Some(v) = self.cache.insert(la, data, false, ready) {
            self.evict(pool, v);
        }
        pool.observe(|s| s.on_prefetch_fill(self.port, la));
    }

    /// `PREFETCHT0` of the `n` consecutive lines from the one holding
    /// `addr`: observably [`Self::prefetch`] of each, in address order.
    ///
    /// When every line is absent, the fills would evict nothing and no
    /// posted write-back lands while they are issued, the lines are fetched
    /// as [`CxlPool::fetch_lines`] runs at the instants the calls would
    /// fetch them (landing, meters, `obs` bins) and held as unread lines
    /// ([`HostCache::fill_unread`]) until something touches them, with the
    /// sanitizer told the same prefetch fills (DESIGN.md §7.5). Otherwise
    /// the calls run.
    pub fn prefetch_lines(&mut self, pool: &mut CxlPool, addr: u64, n: u64) {
        let first = line_base(addr);
        let step = self.costs.prefetch_issue_ns;
        let t0 = self.clock + SimDuration::from_nanos(step);
        let last = self.clock + SimDuration::from_nanos(n * step);
        let fast = n > 0
            && self.cache.len() as u64 + n <= self.cache.capacity() as u64
            && self.cache.holds_none(first, n)
            && {
                // What the first call's fetch does; a landing after it would
                // come between two fills.
                pool.apply_pending(t0);
                pool.next_landing() > last
            };
        if !fast {
            for i in 0..n {
                self.prefetch(pool, first + i * LINE);
            }
            return;
        }
        self.stats.prefetches += n;
        let end = first + n * LINE;
        let mut la = first;
        while la < end {
            // A run: at most one fill's lines, within one class span.
            let span_end = line_base(pool.class_span_end(la) - 1) + LINE;
            let run_end = end.min(span_end).min(la + FILL_LINES * LINE);
            let t = self.clock + SimDuration::from_nanos(step);
            let ready = t + SimDuration::from_nanos(self.costs.cxl_load_ns);
            let lines = self
                .cache
                .fill_unread(la, (run_end - la) / LINE, ready, step);
            pool.fetch_lines(t, step, self.port, la, lines);
            self.clock += SimDuration::from_nanos((run_end - la) / LINE * step);
            pool.observe(|s| {
                for k in (la..run_end).step_by(LINE as usize) {
                    s.on_prefetch_fill(self.port, k);
                }
            });
            la = run_end;
        }
    }

    /// Sanitizer annotation: declare that `[addr, addr+len)` has just been
    /// *published* — flushed so that other hosts/devices can observe it. The
    /// sanitizer reports any line still dirty in this host's cache. Pure
    /// observer.
    pub fn publish(&mut self, pool: &mut CxlPool, addr: u64, len: u64) {
        self.annotate(pool, addr, len, Sanitizer::on_publish);
    }

    /// Sanitizer annotation: declare a *fenced* publish point (a doorbell
    /// another agent may act on immediately). In addition to the
    /// [`Self::publish`] dirty check, the sanitizer reports lines whose
    /// last flush is not yet covered by an `mfence`. Pure observer.
    pub fn publish_fenced(&mut self, pool: &mut CxlPool, addr: u64, len: u64) {
        self.annotate(pool, addr, len, Sanitizer::on_publish_fenced);
    }

    /// Sanitizer annotation: declare that the next read of
    /// `[addr, addr+len)` must observe *current* pool bytes (an acquire
    /// point whose protocol guarantees freshness). The sanitizer reports
    /// stale cached snapshots and fetches torn by other hosts' in-flight
    /// write-backs. Pure observer.
    pub fn expect_fresh(&mut self, pool: &mut CxlPool, addr: u64, len: u64) {
        self.annotate(pool, addr, len, Sanitizer::on_expect_fresh);
    }

    /// Run `check` on each line of `[addr, addr+len)`.
    fn annotate(&self, pool: &mut CxlPool, addr: u64, len: u64, check: Annotation) {
        pool.observe(|s| {
            for la in lines_covering(addr, len) {
                check(
                    s,
                    self.port,
                    la,
                    self.cache.get(la).map(|l| l.dirty),
                    self.clock,
                );
            }
        });
    }

    /// Size of the host's private DRAM.
    pub fn local_size(&self) -> u64 {
        self.local.len() as u64
    }

    /// Read host-private DRAM (always coherent within the host; flat cached
    /// cost since the hot structures live in cache).
    pub fn local_read(&mut self, addr: u64, out: &mut [u8]) {
        let n_lines = lines_covering(addr, out.len() as u64).count() as u64;
        self.clock += SimDuration::from_nanos(self.costs.cache_hit_ns * n_lines);
        let base = addr as usize;
        out.copy_from_slice(&self.local[base..base + out.len()]);
    }

    /// Write host-private DRAM.
    pub fn local_write(&mut self, addr: u64, data: &[u8]) {
        let n_lines = lines_covering(addr, data.len() as u64).count() as u64;
        self.clock += SimDuration::from_nanos(self.costs.store_hit_ns * n_lines);
        let base = addr as usize;
        self.local[base..base + data.len()].copy_from_slice(data);
    }

    /// Split borrow for building a device DMA context: local DRAM, the
    /// host's CXL port, and the cost model, without aliasing the rest of
    /// the context.
    pub fn dma_parts(&mut self) -> (&mut [u8], PortId, &CostModel) {
        (&mut self.local, self.port, &self.costs)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed and read pool bytes directly"
)]
mod tests {
    use super::*;

    fn setup() -> (CxlPool, HostCtx, HostCtx) {
        let pool = CxlPool::new(1 << 20, 2);
        let a = HostCtx::new(PortId(0), 4096);
        let b = HostCtx::new(PortId(1), 4096);
        (pool, a, b)
    }

    #[test]
    fn stale_read_without_invalidation() {
        let (mut pool, mut a, mut b) = setup();
        // B reads line 0 (caches zeros).
        assert_eq!(b.read_u64(&mut pool, 0), 0);
        // A writes and flushes.
        a.write_u64(&mut pool, 0, 0xfeed);
        a.clflushopt(&mut pool, 0);
        pool.flush_pending();
        // B still sees the stale cached zero — the defining non-coherence
        // behaviour.
        assert_eq!(b.read_u64(&mut pool, 0), 0);
        // After invalidating, B sees the new value.
        b.clflushopt(&mut pool, 0);
        b.mfence(&mut pool);
        assert_eq!(b.read_u64(&mut pool, 0), 0xfeed);
    }

    #[test]
    fn dirty_write_invisible_until_writeback() {
        let (mut pool, mut a, mut b) = setup();
        a.write_u64(&mut pool, 128, 77);
        // Not written back yet: B (cold cache) sees zero.
        assert_eq!(b.read_u64(&mut pool, 128), 0);
        a.clwb(&mut pool, 128);
        pool.flush_pending();
        b.clflushopt(&mut pool, 128);
        assert_eq!(b.read_u64(&mut pool, 128), 77);
    }

    #[test]
    fn clwb_keeps_line_cached_clflush_evicts() {
        let (mut pool, mut a, _) = setup();
        a.write_u64(&mut pool, 0, 1);
        a.clwb(&mut pool, 0);
        assert!(a.cache.contains(0));
        a.clflushopt(&mut pool, 0);
        assert!(!a.cache.contains(0));
    }

    #[test]
    fn read_costs_hit_vs_miss() {
        let (mut pool, mut a, _) = setup();
        let t0 = a.clock;
        a.read_u64(&mut pool, 0);
        let miss_cost = (a.clock - t0).as_nanos();
        assert_eq!(miss_cost, a.costs.cxl_load_ns);
        let t1 = a.clock;
        a.read_u64(&mut pool, 0);
        let hit_cost = (a.clock - t1).as_nanos();
        assert_eq!(hit_cost, a.costs.cache_hit_ns);
        assert_eq!(a.stats.misses, 1);
        assert_eq!(a.stats.hits, 1);
    }

    #[test]
    fn prefetch_overlaps_latency() {
        let (mut pool, mut a, _) = setup();
        pool.poke(256, &42u64.to_le_bytes());
        a.prefetch(&mut pool, 256);
        let t0 = a.clock;
        // Immediately reading stalls for most of the fill latency.
        assert_eq!(a.read_u64(&mut pool, 256), 42);
        let stall = (a.clock - t0).as_nanos();
        assert!(stall >= a.costs.cxl_load_ns - a.costs.prefetch_issue_ns - 1);
        assert_eq!(a.stats.prefetch_stalls, 1);

        // Prefetch far in advance: read is a cheap hit.
        a.prefetch(&mut pool, 512);
        a.advance(10_000);
        let t1 = a.clock;
        a.read_u64(&mut pool, 512);
        assert_eq!((a.clock - t1).as_nanos(), a.costs.cache_hit_ns);
    }

    #[test]
    fn prefetch_skips_present_stale_line() {
        let (mut pool, mut a, mut b) = setup();
        // B caches line 0 (zeros).
        b.read_u64(&mut pool, 0);
        // A publishes new data.
        a.write_u64(&mut pool, 0, 9);
        a.clwb(&mut pool, 0);
        pool.flush_pending();
        // B prefetches: skipped because the stale line is present.
        b.prefetch(&mut pool, 0);
        assert_eq!(b.stats.prefetch_skips, 1);
        assert_eq!(b.read_u64(&mut pool, 0), 0, "still stale");
    }

    #[test]
    fn full_line_store_avoids_rfo() {
        let (mut pool, mut a, _) = setup();
        let buf = [7u8; 64];
        let t0 = a.clock;
        a.write(&mut pool, 0, &buf);
        let cost = (a.clock - t0).as_nanos();
        assert_eq!(cost, a.costs.store_hit_ns);
        assert_eq!(a.stats.store_misses, 0);

        // Partial write to a cold line pays the RFO fetch.
        let t1 = a.clock;
        a.write(&mut pool, 64, &[1u8; 8]);
        let cost = (a.clock - t1).as_nanos();
        assert!(cost >= a.costs.cxl_load_ns);
        assert_eq!(a.stats.store_misses, 1);
    }

    #[test]
    fn hw_prefetcher_streams_sequential_misses() {
        let (mut pool, mut a, _) = setup();
        a.set_hw_prefetch_depth(4);
        for i in 0..32u64 {
            pool.poke(i * 64, &i.to_le_bytes());
        }
        // Two sequential misses trigger the stream.
        a.read_u64(&mut pool, 0);
        a.read_u64(&mut pool, 64);
        assert!(a.stats.prefetches >= 4, "stream detected");
        // The prefetched lines are present (async fill in flight or done).
        assert!(a.cache.contains(128));
        a.advance(10_000);
        let t0 = a.clock;
        assert_eq!(a.read_u64(&mut pool, 128), 2);
        assert_eq!((a.clock - t0).as_nanos(), a.costs.cache_hit_ns, "hit");
    }

    #[test]
    fn hw_prefetcher_blocked_by_stale_lines_like_software() {
        // The §3.2.2 claim: hardware prefetching is also ineffective over
        // non-coherent memory, because present-but-stale lines are skipped.
        let (mut pool, mut a, mut b) = setup();
        b.set_hw_prefetch_depth(4);
        // B streams through lines 0..4 (caching them).
        for i in 0..4u64 {
            b.read_u64(&mut pool, i * 64);
        }
        // A publishes new data everywhere.
        for i in 0..8u64 {
            a.write_u64(&mut pool, i * 64, 0xbeef + i);
            a.clwb(&mut pool, i * 64);
        }
        a.mfence(&mut pool);
        pool.flush_pending();
        // B streams again: lines 0..4 are present (stale) so the HW
        // prefetcher skips them and B reads stale values.
        let skips_before = b.stats.prefetch_skips;
        for i in 0..4u64 {
            assert_ne!(b.read_u64(&mut pool, i * 64), 0xbeef + i, "stale");
        }
        let _ = skips_before;
        // Only after invalidation does the stream deliver fresh data.
        for i in 0..4u64 {
            b.clflushopt(&mut pool, i * 64);
        }
        b.mfence(&mut pool);
        for i in 0..4u64 {
            assert_eq!(b.read_u64(&mut pool, i * 64), 0xbeef + i);
        }
    }

    #[test]
    fn eviction_writes_back_dirty_victims() {
        let mut pool = CxlPool::new(1 << 20, 1);
        let mut a = HostCtx::with_cache(PortId(0), 0, 2, CostModel::default());
        a.write_u64(&mut pool, 0, 11);
        a.write_u64(&mut pool, 64, 22);
        a.write_u64(&mut pool, 128, 33); // evicts line 0
        assert_eq!(a.stats.evict_writebacks, 1);
        pool.flush_pending();
        let mut buf = [0u8; 8];
        pool.peek(0, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 11);
    }

    #[test]
    fn cross_line_read_write() {
        let (mut pool, mut a, mut b) = setup();
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        a.write(&mut pool, 100, &data);
        for la in [64, 128, 192, 256] {
            a.clwb(&mut pool, la);
        }
        pool.flush_pending();
        let mut out = vec![0u8; 200];
        b.read(&mut pool, 100, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn local_memory_roundtrip() {
        let (_, mut a, _) = setup();
        a.local_write(10, b"abc");
        let mut out = [0u8; 3];
        a.local_read(10, &mut out);
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn dma_bypasses_receiver_cache() {
        let (mut pool, _, mut b) = setup();
        // B caches the line, then a device DMA-writes it.
        b.read_u64(&mut pool, 0);
        pool.dma_write(SimTime::ZERO, PortId(0), 0, &5u64.to_le_bytes());
        // DMA read sees the new data immediately (pool-direct)...
        let mut buf = [0u8; 8];
        pool.dma_read(SimTime::ZERO, PortId(0), 0, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 5);
        // ...but B's cached read is stale until invalidated.
        assert_eq!(b.read_u64(&mut pool, 0), 0);
        b.clflushopt(&mut pool, 0);
        assert_eq!(b.read_u64(&mut pool, 0), 5);
    }
}
