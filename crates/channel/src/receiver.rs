//! Channel receiver with the four polling policies of Fig. 6.
//!
//! The receiver's problem: after the sender overwrites a slot in pool
//! memory, a stale copy of that line may still sit in the receiver's CPU
//! cache, and — because the pool is not coherent — nothing will ever
//! invalidate it. Each policy draws the invalidation lines differently:
//!
//! * **BypassCache** (①): `CLFLUSHOPT` + `MFENCE` before *every* poll, so
//!   every read goes to the pool. Correct but slow (every message pays full
//!   CXL latency) and prefetch-hostile.
//! * **NaivePrefetch** (②): keep lines cached, software-prefetch ahead,
//!   invalidate the current line only after an empty poll. Fails to scale:
//!   consumed lines from the previous lap linger in the cache, and
//!   prefetches *skip lines that are already present*, so the stale copies
//!   block the fast path.
//! * **InvalidateConsumed** (③): also flush each line the moment all its
//!   messages are consumed. Prefetching now works across laps → order of
//!   magnitude more throughput. But at moderate load, prefetching itself
//!   brings in lines the sender has not written yet; those stale prefetched
//!   lines cause a latency spike.
//! * **InvalidatePrefetched** (④): after an empty poll, also flush the
//!   entire speculatively prefetched window so it is re-fetched fresh. This
//!   is the design Oasis ships.

use oasis_cxl::{line_base, CxlPool, HostCtx, LINE};

use crate::layout::ChannelLayout;
use crate::{epoch_bit, EPOCH_MASK};

/// Receiver polling/invalidation policy (Fig. 6 designs ①–④).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// ① Invalidate + fence before every poll; never rely on the cache.
    BypassCache,
    /// ② Cache + prefetch; invalidate current line only after empty polls.
    NaivePrefetch,
    /// ③ ② plus invalidating each fully consumed line.
    InvalidateConsumed,
    /// ④ ③ plus invalidating the prefetched window after empty polls.
    InvalidatePrefetched,
}

impl Policy {
    /// All policies in Fig. 6 order.
    pub const ALL: [Policy; 4] = [
        Policy::BypassCache,
        Policy::NaivePrefetch,
        Policy::InvalidateConsumed,
        Policy::InvalidatePrefetched,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Policy::BypassCache => "bypass-cache",
            Policy::NaivePrefetch => "naive-prefetch",
            Policy::InvalidateConsumed => "+invalidate-consumed",
            Policy::InvalidatePrefetched => "+invalidate-prefetched",
        }
    }
}

/// Receiving half of a channel. Exactly one receiver per channel.
pub struct Receiver {
    layout: ChannelLayout,
    policy: Policy,
    /// Next absolute sequence number to consume.
    tail: u64,
    /// Its slot in the ring and the lap it is on: cursors that wrap, so
    /// that no poll divides.
    slot: u64,
    lap: u64,
    /// Prefetch window depth in cache lines (paper: 16 performs best).
    prefetch_depth: u64,
    /// Publish the consumed counter after this many messages (paper
    /// default: half the channel capacity).
    publish_batch: u64,
    /// Messages consumed since the counter was last published.
    unpublished: u64,
    /// Highest absolute line index for which a prefetch has been issued.
    prefetched_until: u64,
    /// Its line in the ring (`prefetched_until` modulo the ring's lines).
    window_pos: u64,
    /// Empty polls observed (stats).
    pub empty_polls: u64,
}

impl Receiver {
    /// Receiver with the paper's defaults: 16-line prefetch window,
    /// counter published every `slots / 2` messages.
    pub fn new(layout: ChannelLayout, policy: Policy) -> Self {
        let batch = (layout.slots / 2).max(1);
        Self::with_params(layout, policy, 16, batch)
    }

    /// Receiver with explicit prefetch depth and publish batch.
    pub fn with_params(
        layout: ChannelLayout,
        policy: Policy,
        prefetch_depth: u64,
        publish_batch: u64,
    ) -> Self {
        assert!(publish_batch >= 1 && publish_batch <= layout.slots);
        Receiver {
            layout,
            policy,
            tail: 0,
            slot: 0,
            lap: 0,
            prefetch_depth,
            publish_batch,
            unpublished: 0,
            prefetched_until: 0,
            window_pos: 0,
            empty_polls: 0,
        }
    }

    /// The channel layout.
    pub fn layout(&self) -> &ChannelLayout {
        &self.layout
    }

    /// Messages consumed so far.
    pub fn consumed(&self) -> u64 {
        self.tail
    }

    /// The policy in use.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Absolute index of the line holding the next message.
    #[inline]
    fn line_index(&self) -> u64 {
        self.tail >> self.layout.line_shift()
    }

    /// Address of the next message's slot.
    #[inline]
    fn slot_addr(&self) -> u64 {
        self.layout.base + self.slot * self.layout.msg_size
    }

    /// The line the next poll reads.
    #[inline]
    pub fn next_line(&self) -> u64 {
        line_base(self.slot_addr())
    }

    /// Address of the ring's line `pos`.
    #[inline]
    fn ring_line(&self, pos: u64) -> u64 {
        self.layout.base + pos * LINE
    }

    /// The ring's slot lines `[start, end)` (the consumed counter has its
    /// own line past them): what a sender's write-back must land in to
    /// change what a poll sees.
    pub fn ring_range(&self) -> (u64, u64) {
        (self.layout.base, self.layout.counter_addr)
    }

    /// The line the next [`Self::try_recv`] by `host` reads, if that poll is
    /// provably a *steady-state empty* one: it misses (the line is not
    /// cached), fetches a slot whose epoch says "not written yet" (pool
    /// memory holds that now, and no write-back of the line is in flight to
    /// change it), flushes that one line (no prefetched window to invalidate)
    /// and fences — and leaves this receiver exactly as it was but for
    /// [`Self::empty_polls`], so the poll after it is the same again.
    /// `None` in any other state. The checks run cheapest first, so a poll
    /// that finds a message usually stops at its cached line.
    pub fn idle_poll_line(&self, host: &HostCtx, pool: &CxlPool) -> Option<u64> {
        let steady = self.policy == Policy::InvalidatePrefetched
            && self.unpublished == 0
            && self.prefetched_until == self.line_index();
        if !steady {
            return None;
        }
        let line = self.next_line();
        if host.cache.contains(line) {
            return None;
        }
        // The epoch bit lives in the slot's last byte.
        let last = pool.settled_byte(self.slot_addr() + self.layout.msg_size - 1)?;
        ((last & EPOCH_MASK) != epoch_bit(self.lap)).then_some(line)
    }

    /// Publish the consumed counter so the sender can reuse slots. Called
    /// automatically every `publish_batch` messages; engines may also call
    /// it when going idle so a slow channel never stalls its sender
    /// indefinitely.
    pub fn publish_consumed(&mut self, host: &mut HostCtx, pool: &mut CxlPool) {
        if self.unpublished == 0 {
            return;
        }
        host.write_u64(pool, self.layout.counter_addr, self.tail);
        host.clwb(pool, self.layout.counter_addr);
        host.publish(pool, self.layout.counter_addr, 8);
        self.unpublished = 0;
    }

    /// Poll for one message. On success copies the message (with the epoch
    /// bit cleared) into `out` and returns `true`.
    ///
    /// A poll [`Self::idle_poll_line`] proves empty is charged as one
    /// [`HostCtx::empty_poll`] of its line instead of executed: that is
    /// exactly what [`Self::poll`] would do with it, without caching a line
    /// only to flush it unread (DESIGN.md §7.5).
    pub fn try_recv(&mut self, host: &mut HostCtx, pool: &mut CxlPool, out: &mut [u8]) -> bool {
        assert_eq!(out.len() as u64, self.layout.msg_size, "output buffer size");
        let Some(line) = self.idle_poll_line(host, pool) else {
            return self.poll(host, pool, out);
        };
        host.advance(host.costs.poll_overhead_ns);
        host.empty_poll(pool, line);
        self.empty_polls += 1;
        false
    }

    /// One poll, executed: read the slot, then consume the message or run
    /// the policy's empty-poll invalidation.
    fn poll(&mut self, host: &mut HostCtx, pool: &mut CxlPool, out: &mut [u8]) -> bool {
        let msg_size = self.layout.msg_size as usize;
        host.advance(host.costs.poll_overhead_ns);
        let addr = self.slot_addr();
        let expected = epoch_bit(self.lap);

        if self.policy == Policy::BypassCache {
            host.clflushopt(pool, addr);
            host.mfence(pool);
        }

        let mut buf = [0u8; 64];
        host.read(pool, addr, &mut buf[..msg_size]);
        let valid = (buf[msg_size - 1] & EPOCH_MASK) == expected;

        if valid {
            out.copy_from_slice(&buf[..msg_size]);
            out[msg_size - 1] &= !EPOCH_MASK;
            self.tail += 1;
            self.slot += 1;
            if self.slot == self.layout.slots {
                self.slot = 0;
                self.lap += 1;
            }
            self.unpublished += 1;
            if self.unpublished >= self.publish_batch {
                self.publish_consumed(host, pool);
            }
            if self.policy != Policy::BypassCache {
                // Flush a line the moment its last message is consumed so the
                // next lap's prefetch can pull fresh data (③ and ④).
                if matches!(
                    self.policy,
                    Policy::InvalidateConsumed | Policy::InvalidatePrefetched
                ) && self.slot & (self.layout.msgs_per_line() - 1) == 0
                {
                    host.clflushopt(pool, line_base(addr));
                }
                self.extend_window(host, pool);
            }
            true
        } else {
            self.empty_polls += 1;
            match self.policy {
                Policy::BypassCache => {}
                Policy::NaivePrefetch | Policy::InvalidateConsumed => {
                    // Invalidate only the current line so the next poll
                    // re-fetches it from the pool.
                    host.clflushopt(pool, addr);
                    host.mfence(pool);
                }
                Policy::InvalidatePrefetched => {
                    // Invalidate the current line *and* every speculatively
                    // prefetched line ahead of it (④): those lines were
                    // fetched before the sender wrote them and would
                    // otherwise serve stale data when we advance into them.
                    host.clflushopt(pool, addr);
                    let cur = self.line_index();
                    let pos = self.slot >> self.layout.line_shift();
                    self.for_each_ring_run(
                        pos,
                        self.prefetched_until.saturating_sub(cur),
                        |first, n| {
                            host.clflushopt_range(pool, first, n * LINE);
                        },
                    );
                    self.prefetched_until = cur;
                    self.window_pos = pos;
                    host.mfence(pool);
                }
            }
            false
        }
    }

    /// Prefetch the lines past the window up to `prefetch_depth` lines
    /// ahead of the next message, one [`HostCtx::prefetch_lines`] per
    /// stretch of the ring between wraps.
    fn extend_window(&mut self, host: &mut HostCtx, pool: &mut CxlPool) {
        let target = self.line_index() + self.prefetch_depth;
        let Some(n) = target.checked_sub(self.prefetched_until).filter(|&n| n > 0) else {
            return;
        };
        let pos = self.window_pos;
        self.window_pos = self.for_each_ring_run(pos, n, |first, n| {
            host.prefetch_lines(pool, first, n);
        });
        self.prefetched_until = target;
    }

    /// Call `each(first line address, lines)` for the `n` ring lines after
    /// line `pos`, split where the ring wraps; returns the last one's
    /// position.
    fn for_each_ring_run(&self, pos: u64, n: u64, mut each: impl FnMut(u64, u64)) -> u64 {
        let lines = self.layout.lines();
        let (mut pos, mut left) = (pos, n);
        while left > 0 {
            let next = if pos + 1 == lines { 0 } else { pos + 1 };
            let run = left.min(lines - next);
            each(self.ring_line(next), run);
            pos = next + run - 1;
            left -= run;
        }
        pos
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests inspect and corrupt ring bytes directly"
)]
mod tests {
    use super::*;
    use crate::sender::Sender;
    use oasis_cxl::pool::{PortId, TrafficClass};
    use oasis_cxl::RegionAllocator;

    fn setup(
        slots: u64,
        msg: u64,
        policy: Policy,
    ) -> (CxlPool, HostCtx, HostCtx, Sender, Receiver) {
        let mut pool = CxlPool::new(1 << 20, 2);
        let mut ra = RegionAllocator::new(&pool);
        let r = ra.alloc(
            &mut pool,
            "chan",
            ChannelLayout::bytes_needed(slots, msg),
            TrafficClass::Message,
        );
        let layout = ChannelLayout::in_region(&r, slots, msg);
        let tx_host = HostCtx::new(PortId(0), 0);
        let rx_host = HostCtx::new(PortId(1), 0);
        let s = Sender::new(layout.clone());
        let r = Receiver::new(layout, policy);
        (pool, tx_host, rx_host, s, r)
    }

    /// End-to-end transfer of `n` messages for a policy, stepping hosts in
    /// clock order and advancing the idle side when it stalls.
    fn transfer(policy: Policy, n: u64, slots: u64) {
        let (mut pool, mut th, mut rh, mut s, mut r) = setup(slots, 16, policy);
        let mut sent = 0u64;
        let mut received = Vec::new();
        let mut spins = 0u64;
        while (received.len() as u64) < n {
            spins += 1;
            assert!(spins < 50 * n + 10_000, "transfer stuck: {policy:?}");
            // Keep host clocks roughly in lockstep like the co-sim runner.
            if sent < n && th.clock <= rh.clock {
                let mut msg = [0u8; 16];
                msg[..8].copy_from_slice(&sent.to_le_bytes());
                if s.try_send(&mut th, &mut pool, &msg).unwrap() {
                    sent += 1;
                    s.flush(&mut th, &mut pool);
                }
            } else if sent < n {
                // Let the receiver catch up.
                let mut out = [0u8; 16];
                if r.try_recv(&mut rh, &mut pool, &mut out) {
                    received.push(u64::from_le_bytes(out[..8].try_into().unwrap()));
                }
            } else {
                // Everything sent; drain. Advance the receiver clock past
                // any write-visibility delay.
                rh.advance(100);
                let mut out = [0u8; 16];
                if r.try_recv(&mut rh, &mut pool, &mut out) {
                    received.push(u64::from_le_bytes(out[..8].try_into().unwrap()));
                }
            }
        }
        // FIFO order, no loss, no duplication — for every policy.
        assert_eq!(received, (0..n).collect::<Vec<_>>(), "{policy:?}");
    }

    #[test]
    fn all_policies_deliver_fifo_within_one_lap() {
        for p in Policy::ALL {
            transfer(p, 6, 8);
        }
    }

    #[test]
    fn all_policies_deliver_fifo_across_many_laps() {
        for p in Policy::ALL {
            transfer(p, 100, 8);
        }
    }

    #[test]
    fn empty_channel_polls_empty() {
        let (mut pool, _th, mut rh, _s, mut r) = setup(8, 16, Policy::InvalidatePrefetched);
        let mut out = [0u8; 16];
        assert!(!r.try_recv(&mut rh, &mut pool, &mut out));
        assert_eq!(r.empty_polls, 1);
        assert_eq!(r.consumed(), 0);
    }

    #[test]
    fn idle_poll_line_holds_only_in_the_steady_empty_state() {
        let (mut pool, mut th, mut rh, mut s, mut r) = setup(8, 16, Policy::InvalidatePrefetched);
        let mut out = [0u8; 16];
        let line = r.next_line();
        // Fresh ring, cold cache: the next poll is a steady empty one, and
        // really polling leaves the state that says so untouched.
        assert_eq!(r.idle_poll_line(&rh, &pool), Some(line));
        assert!(!r.try_recv(&mut rh, &mut pool, &mut out));
        assert_eq!(r.idle_poll_line(&rh, &pool), Some(line));
        // A message on its way: not provable while the write-back is in
        // flight, nor once it has landed (the poll would not be empty).
        assert!(s.try_send(&mut th, &mut pool, &[5u8; 16]).unwrap());
        s.flush(&mut th, &mut pool);
        assert_eq!(r.idle_poll_line(&rh, &pool), None);
        pool.flush_pending();
        assert_eq!(r.idle_poll_line(&rh, &pool), None);
        // Consuming it prefetches ahead: the next empty poll has a window to
        // invalidate, so it is not yet the steady one; the poll after is.
        rh.advance(1_000);
        assert!(r.try_recv(&mut rh, &mut pool, &mut out));
        assert_eq!(r.idle_poll_line(&rh, &pool), None);
        assert!(!r.try_recv(&mut rh, &mut pool, &mut out));
        r.publish_consumed(&mut rh, &mut pool);
        assert_eq!(r.idle_poll_line(&rh, &pool), Some(line));
        // A cached copy of the polled line (a hit, not a miss): no.
        rh.read_u64(&mut pool, line);
        assert_eq!(r.idle_poll_line(&rh, &pool), None);
        // Other policies poll differently.
        let (pool, _th, rh, _s, r) = setup(8, 16, Policy::BypassCache);
        assert_eq!(r.idle_poll_line(&rh, &pool), None);
    }

    #[test]
    fn consumed_counter_published_in_batches() {
        let (mut pool, mut th, mut rh, mut s, mut r) = setup(8, 16, Policy::BypassCache);
        // publish_batch = slots/2 = 4.
        for i in 0..6u64 {
            let mut m = [0u8; 16];
            m[0] = i as u8;
            assert!(s.try_send(&mut th, &mut pool, &m).unwrap());
        }
        s.flush(&mut th, &mut pool);
        rh.advance(10_000);
        let mut out = [0u8; 16];
        for _ in 0..3 {
            assert!(r.try_recv(&mut rh, &mut pool, &mut out));
        }
        pool.flush_pending();
        let mut c = [0u8; 8];
        pool.peek(r.layout().counter_addr, &mut c);
        assert_eq!(u64::from_le_bytes(c), 0, "below batch: not yet published");
        assert!(r.try_recv(&mut rh, &mut pool, &mut out));
        pool.flush_pending();
        pool.peek(r.layout().counter_addr, &mut c);
        assert_eq!(u64::from_le_bytes(c), 4, "published at batch boundary");
    }

    #[test]
    fn explicit_publish_flushes_partial_batch() {
        let (mut pool, mut th, mut rh, mut s, mut r) = setup(8, 16, Policy::BypassCache);
        let m = [0u8; 16];
        s.try_send(&mut th, &mut pool, &m).unwrap();
        s.flush(&mut th, &mut pool);
        rh.advance(10_000);
        let mut out = [0u8; 16];
        assert!(r.try_recv(&mut rh, &mut pool, &mut out));
        r.publish_consumed(&mut rh, &mut pool);
        pool.flush_pending();
        let mut c = [0u8; 8];
        pool.peek(r.layout().counter_addr, &mut c);
        assert_eq!(u64::from_le_bytes(c), 1);
    }

    #[test]
    fn epoch_bit_cleared_in_delivered_message() {
        let (mut pool, mut th, mut rh, mut s, mut r) = setup(8, 16, Policy::BypassCache);
        let mut m = [0xAAu8; 16];
        m[15] = 0x7F; // all payload bits set, epoch clear
        s.try_send(&mut th, &mut pool, &m).unwrap();
        s.flush(&mut th, &mut pool);
        rh.advance(10_000);
        let mut out = [0u8; 16];
        assert!(r.try_recv(&mut rh, &mut pool, &mut out));
        assert_eq!(out, m);
    }

    #[test]
    fn naive_prefetch_reads_stale_line_until_empty_poll_invalidation() {
        // This test pins down the exact mechanism of Fig. 6 ②: a consumed
        // line is overwritten by the sender, but the receiver's stale copy
        // masks it until an empty poll triggers invalidation.
        let (mut pool, mut th, mut rh, mut s, mut r) = setup(4, 16, Policy::NaivePrefetch);
        let m = [1u8; 16];
        for _ in 0..4 {
            s.try_send(&mut th, &mut pool, &m).unwrap();
        }
        rh.advance(10_000);
        let mut out = [0u8; 16];
        for _ in 0..4 {
            assert!(r.try_recv(&mut rh, &mut pool, &mut out));
        }
        // Receiver published consumed=4 at batch boundary (batch=2); the
        // counter write-back becomes visible after the CXL propagation
        // delay, so move the sender's clock past it before it refreshes.
        th.advance(30_000);
        // Sender wraps and overwrites slot 0 (lap 1, epoch flips).
        let m2 = [2u8; 16];
        for _ in 0..4 {
            assert!(s.try_send(&mut th, &mut pool, &m2).unwrap());
        }
        rh.advance(10_000);
        // First poll: stale cached line (lap-0 epoch) -> empty poll.
        assert!(!r.try_recv(&mut rh, &mut pool, &mut out));
        // The empty poll invalidated the line; once the sender's write-back
        // has propagated, the new message appears.
        rh.advance(40_000);
        assert!(r.try_recv(&mut rh, &mut pool, &mut out));
        assert_eq!(out[0], 2);
    }

    /// The twin behind [`Receiver::try_recv`]'s elision: the same sender
    /// history polled through `try_recv` on one side and through the
    /// executed poll on the other.
    mod elision_twin {
        use super::*;
        use oasis_cxl::CostModel;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        pub(super) enum Step {
            /// Up to this many sends, stopping at a full ring.
            Send(u8),
            /// The sender writes back what it has staged.
            Flush,
            /// Clock skew: the sender's or the receiver's clock runs ahead,
            /// so a poll may fetch before, at or after a write-back lands.
            AdvanceTx(u64),
            AdvanceRx(u64),
            /// What an engine going idle does.
            Publish,
            Poll,
        }

        pub(super) struct Side {
            pub(super) pool: CxlPool,
            pub(super) th: HostCtx,
            pub(super) rh: HostCtx,
            pub(super) s: Sender,
            pub(super) r: Receiver,
        }

        #[derive(Clone, Copy, Debug)]
        pub(super) struct Shape {
            pub(super) policy: Policy,
            pub(super) slots: u64,
            pub(super) msg: u64,
            pub(super) prefetch: u64,
            pub(super) batch: u64,
            pub(super) cache_lines: usize,
        }

        pub(super) fn side(sh: Shape) -> Side {
            let mut pool = CxlPool::new(1 << 16, 2).sanitized();
            let mut ra = RegionAllocator::new(&pool);
            let bytes = ChannelLayout::bytes_needed(sh.slots, sh.msg);
            let region = ra.alloc(&mut pool, "chan", bytes, TrafficClass::Message);
            let layout = ChannelLayout::in_region(&region, sh.slots, sh.msg);
            let rh = HostCtx::with_cache(PortId(1), 0, sh.cache_lines, CostModel::default());
            Side {
                pool,
                th: HostCtx::new(PortId(0), 0),
                rh,
                s: Sender::new(layout.clone()),
                r: Receiver::with_params(layout, sh.policy, sh.prefetch, sh.batch),
            }
        }

        /// Everything a poll can change, read without disturbing it, and
        /// what the sanitizer was told.
        pub(super) fn observe(sd: &Side) -> String {
            let lines: Vec<_> = sd
                .rh
                .cache
                .lru_lines()
                .map(|(addr, l)| (addr, l.data, l.dirty, l.ready_at))
                .collect();
            let meters: Vec<_> = (0..2)
                .flat_map(|p| {
                    let m = sd.pool.meter(PortId(p));
                    TrafficClass::ALL.map(|c| (m.read_bytes(c), m.write_bytes(c)))
                })
                .collect();
            let san = sd.pool.sanitizer().expect("twins are sanitized");
            let story: Vec<String> = san.reports().iter().map(|r| r.to_string()).collect();
            format!(
                "empty {} consumed {} rx {:?} {:?} tx {:?} {:?} cache {lines:?} meters {meters:?} in flight {} {} {story:?}",
                sd.r.empty_polls,
                sd.r.consumed(),
                sd.rh.clock,
                sd.rh.stats,
                sd.th.clock,
                sd.th.stats,
                sd.pool.pending_writebacks(),
                san.summary(),
            )
        }

        /// Run `step` on `sd`; a poll goes through `try_recv` when
        /// `elide`, else through the executed poll. Returns what it read.
        pub(super) fn run(
            sd: &mut Side,
            step: &Step,
            elide: bool,
            sent: &mut u64,
        ) -> Option<Vec<u8>> {
            match *step {
                Step::Send(n) => {
                    for _ in 0..n {
                        let mut m = vec![0u8; sd.r.layout().msg_size as usize];
                        m[..8].copy_from_slice(&sent.to_le_bytes());
                        if !sd.s.try_send(&mut sd.th, &mut sd.pool, &m).unwrap() {
                            break;
                        }
                        *sent += 1;
                    }
                }
                Step::Flush => sd.s.flush(&mut sd.th, &mut sd.pool),
                Step::AdvanceTx(ns) => sd.th.advance(ns),
                Step::AdvanceRx(ns) => sd.rh.advance(ns),
                Step::Publish => sd.r.publish_consumed(&mut sd.rh, &mut sd.pool),
                Step::Poll => {
                    let mut out = vec![0u8; sd.r.layout().msg_size as usize];
                    let got = if elide {
                        sd.r.try_recv(&mut sd.rh, &mut sd.pool, &mut out)
                    } else {
                        sd.r.poll(&mut sd.rh, &mut sd.pool, &mut out)
                    };
                    return got.then_some(out);
                }
            }
            None
        }

        fn shape() -> impl Strategy<Value = Shape> {
            (
                (0..Policy::ALL.len()).prop_map(|i| Policy::ALL[i]),
                prop_oneof![Just(4u64), Just(8), Just(16)],
                prop_oneof![Just(16u64), Just(64)],
                prop_oneof![Just(0u64), Just(1), Just(4), Just(16)],
                any::<u64>(),
                prop_oneof![Just(2usize), Just(4), Just(4096)],
            )
                .prop_map(|(policy, slots, msg, prefetch, b, cache_lines)| Shape {
                    policy,
                    slots,
                    msg,
                    prefetch,
                    batch: 1 + b % slots,
                    cache_lines,
                })
        }

        pub(super) fn step() -> impl Strategy<Value = Step> {
            // Write-backs become visible ~hundreds of ns after posting: skews
            // on that scale leave them in flight at poll time.
            prop_oneof![
                (1u8..6).prop_map(Step::Send),
                Just(Step::Flush),
                Just(Step::Flush),
                (0u64..1500).prop_map(Step::AdvanceTx),
                (0u64..1500).prop_map(Step::AdvanceRx),
                Just(Step::Publish),
                Just(Step::Poll),
                Just(Step::Poll),
                Just(Step::Poll),
                Just(Step::Poll),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn elided_polls_match_executed_polls(
                sh in shape(),
                steps in proptest::collection::vec(step(), 1..160),
            ) {
                let mut elided = side(sh);
                let mut executed = side(sh);
                let (mut sent_a, mut sent_b) = (0, 0);
                for (i, st) in steps.iter().enumerate() {
                    let got = run(&mut elided, st, true, &mut sent_a);
                    let want = run(&mut executed, st, false, &mut sent_b);
                    prop_assert_eq!(got, want, "step {} {:?}: bytes", i, st);
                    prop_assert_eq!(
                        observe(&elided),
                        observe(&executed),
                        "after step {} {:?}",
                        i,
                        st
                    );
                }
            }
        }
    }

    /// The twin behind the unread fills: the receiver's window extensions
    /// ([`HostCtx::prefetch_lines`]) and window flushes
    /// ([`HostCtx::clflushopt_range`]) on one side, and on the other the
    /// same poll with explicit per-line `prefetch` and `clflushopt` calls
    /// and the ring addressed by division, as it was written before either
    /// existed.
    mod window_twin {
        use super::elision_twin::{observe, run, side, step, Shape, Side, Step};
        use super::*;
        use oasis_cxl::LINE;
        use proptest::prelude::*;

        /// [`Receiver::poll`] with per-line prefetches and flushes.
        fn explicit_poll(
            r: &mut Receiver,
            host: &mut HostCtx,
            pool: &mut CxlPool,
            out: &mut [u8],
        ) -> bool {
            let l = r.layout.clone();
            let per_line = LINE / l.msg_size;
            let ring_line = |idx: u64| l.base + (idx % (l.slots / per_line)) * LINE;
            let msg_size = l.msg_size as usize;
            host.advance(host.costs.poll_overhead_ns);
            let seq = r.tail;
            let addr = l.slot_addr(seq);
            if r.policy == Policy::BypassCache {
                host.clflushopt(pool, addr);
                host.mfence(pool);
            }
            let mut buf = [0u8; 64];
            host.read(pool, addr, &mut buf[..msg_size]);
            if (buf[msg_size - 1] & EPOCH_MASK) == epoch_bit(l.lap(seq)) {
                out.copy_from_slice(&buf[..msg_size]);
                out[msg_size - 1] &= !EPOCH_MASK;
                r.tail += 1;
                r.unpublished += 1;
                if r.unpublished >= r.publish_batch {
                    r.publish_consumed(host, pool);
                }
                if r.policy != Policy::BypassCache {
                    if matches!(
                        r.policy,
                        Policy::InvalidateConsumed | Policy::InvalidatePrefetched
                    ) && r.tail.is_multiple_of(per_line)
                    {
                        host.clflushopt(pool, l.line_of(r.tail - 1));
                    }
                    let target = r.tail / per_line + r.prefetch_depth;
                    while r.prefetched_until < target {
                        r.prefetched_until += 1;
                        host.prefetch(pool, ring_line(r.prefetched_until));
                    }
                }
                return true;
            }
            r.empty_polls += 1;
            match r.policy {
                Policy::BypassCache => {}
                Policy::NaivePrefetch | Policy::InvalidateConsumed => {
                    host.clflushopt(pool, addr);
                    host.mfence(pool);
                }
                Policy::InvalidatePrefetched => {
                    host.clflushopt(pool, addr);
                    let cur = seq / per_line;
                    for idx in cur + 1..=r.prefetched_until {
                        host.clflushopt(pool, ring_line(idx));
                    }
                    r.prefetched_until = cur;
                    host.mfence(pool);
                }
            }
            false
        }

        fn run_explicit(sd: &mut Side, st: &Step, sent: &mut u64) -> Option<Vec<u8>> {
            if !matches!(st, Step::Poll) {
                return run(sd, st, false, sent);
            }
            let mut out = vec![0u8; sd.r.layout().msg_size as usize];
            explicit_poll(&mut sd.r, &mut sd.rh, &mut sd.pool, &mut out).then_some(out)
        }

        fn shape() -> impl Strategy<Value = Shape> {
            (
                (0..Policy::ALL.len()).prop_map(|i| Policy::ALL[i]),
                prop_oneof![Just(4u64), Just(8), Just(16), Just(64)],
                prop_oneof![Just(16u64), Just(64)],
                prop_oneof![Just(0u64), Just(1), Just(4), Just(16)],
                any::<u64>(),
                prop_oneof![Just(2usize), Just(4), Just(24), Just(4096)],
            )
                .prop_map(|(policy, slots, msg, prefetch, b, cache_lines)| Shape {
                    policy,
                    slots,
                    msg,
                    prefetch,
                    batch: 1 + b % slots,
                    cache_lines,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn unread_fills_match_explicit_calls(
                sh in shape(),
                steps in proptest::collection::vec(step(), 1..200),
            ) {
                let mut fast = side(sh);
                let mut explicit = side(sh);
                let (mut sent_a, mut sent_b) = (0, 0);
                for (i, st) in steps.iter().enumerate() {
                    let got = run(&mut fast, st, false, &mut sent_a);
                    let want = run_explicit(&mut explicit, st, &mut sent_b);
                    prop_assert_eq!(got, want, "step {} {:?}: bytes", i, st);
                    prop_assert_eq!(
                        observe(&fast),
                        observe(&explicit),
                        "after step {} {:?}",
                        i,
                        st
                    );
                }
                let drained = |sd: &mut Side| {
                    sd.rh.cache.drain().into_iter().map(|(a, l)| (a, l.data, l.dirty, l.ready_at)).collect::<Vec<_>>()
                };
                prop_assert_eq!(drained(&mut fast), drained(&mut explicit), "drain order");
            }
        }

        /// The fast path is taken and its lines are evicted: a 24-line cache
        /// under ④ with a 16-line window holds unread lines after a consume,
        /// and a full cache evicts the oldest of them first.
        #[test]
        fn the_window_is_held_unread_and_evicted_in_fill_order() {
            let sh = Shape {
                policy: Policy::InvalidatePrefetched,
                slots: 64,
                msg: 64,
                prefetch: 16,
                batch: 64,
                cache_lines: 24,
            };
            let mut sd = side(sh);
            let mut sent = 0;
            run(&mut sd, &Step::Send(1), false, &mut sent);
            run(&mut sd, &Step::AdvanceRx(1_000), false, &mut sent);
            assert!(run(&mut sd, &Step::Poll, false, &mut sent).is_some());
            let window: Vec<u64> = (1..=16).map(|i| sd.r.layout().base + i * LINE).collect();
            assert!(window.iter().all(|&la| sd.rh.cache.is_unread(la)));
            // Nine more lines than the cache has room for: the first nine
            // window lines go, oldest first.
            let far = sd.r.layout().counter_addr + LINE;
            for k in 0..(24 - sd.rh.cache.len() as u64 + 9) {
                sd.rh.read_u64(&mut sd.pool, far + k * LINE);
            }
            let left: Vec<bool> = window.iter().map(|&la| sd.rh.cache.contains(la)).collect();
            assert_eq!(left, [[false; 9].as_slice(), &[true; 7]].concat());
        }
    }
}
