//! Sharded deterministic execution: N schedulers, conservative time windows.
//!
//! A single [`crate::sched::Scheduler`] event loop is the throughput ceiling
//! of every experiment (ROADMAP item 2): the loop is inherently serial, so a
//! rack-scale fleet of pods simulates no faster than one pod. This module
//! pushes the lookahead trick the sweep runner exploits at whole-experiment
//! granularity *into a single run*: the simulated world is split into
//! **shards** (one pod, or one host group, per shard), each owning its own
//! deterministic scheduler, and the shards only rendezvous at **window
//! barriers**.
//!
//! # The conservative window protocol
//!
//! Cross-shard interactions travel over explicit links with a known minimum
//! latency `L` (in Oasis, the inter-pod uplink latency exposed by
//! `oasis-cxl`'s topology model). That latency is *lookahead* in the
//! classical conservative-parallel-DES sense (Chandy/Misra/Bryant): an event
//! executed at time `t` in one shard can influence another shard no earlier
//! than `t + L`. The runner therefore advances every shard independently —
//! in parallel — through the window `[t, t+L)`, then exchanges the messages
//! produced in that window at the barrier, delivers those due in the next
//! window, and repeats. No shard ever receives a message "from the past", so
//! no rollback machinery is needed and results are bit-identical to a
//! sequential merge.
//!
//! # Determinism
//!
//! Two sources of nondeterminism must be pinned for byte-identical output at
//! any thread count:
//!
//! 1. **Within a window** each shard runs on its own scheduler over its own
//!    world — no shared mutable state, so thread interleaving cannot be
//!    observed.
//! 2. **At the barrier** messages are merged in the total order
//!    `(deliver_time, src_shard, seq)` — `seq` being the send order within
//!    the source shard — never in thread-arrival order. The merge happens on
//!    the calling thread after every worker has arrived, so the exchange
//!    itself is single-threaded and ordered.
//!
//! With one shard there are no cross-shard links, the lookahead is
//! effectively infinite, and the "window" is the whole run: the sharded path
//! degenerates to exactly the sequential event loop. `OASIS_SHARD_THREADS=1`
//! runs the same code with the parallel advance replaced by an in-order
//! loop; both paths produce identical bytes by construction.
//!
//! # The parallel path
//!
//! `min(threads, shards)` threads exist, the caller among them as worker 0.
//! Each owns one contiguous block of shards for the whole `run` call, so a
//! shard's state stays in one core's cache and chain neighbours share a
//! worker. One rendezvous per window (`Rendezvous`): the caller publishes
//! the window end under a new epoch, every worker runs its block and stamps
//! its arrival with that epoch, and the caller — having run its own block —
//! merges. Waiters poll through `yield_now`, then park, so a run with more
//! threads than cores degrades to the scheduler's pace instead of burning
//! it. A panic in any shard poisons the rendezvous and unwinds out of `run`
//! with the original payload.
//!
//! # Allocation discipline
//!
//! The barrier exchange reuses pooled per-shard buffers (`inbox`, `outbox`,
//! and the pending queue) across windows — message envelopes are plain
//! values moved between pre-grown `Vec` arenas, so steady-state exchange
//! performs no per-message allocation. Shards are encouraged to batch: a
//! `run_window` call processes *every* local event in the window in one
//! visit, amortizing scheduler heap traffic over the batch.

#[expect(
    clippy::disallowed_types,
    reason = "the parallel path's coordination state: the block mutexes and the rendezvous flags"
)]
use std::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Mutex, MutexGuard,
};
use std::thread::{ScopedJoinHandle, Thread};

use crossbeam::utils::CachePadded;

use crate::time::{SimDuration, SimTime};

/// Environment variable overriding the shard worker thread count.
///
/// `1` (the default when unset) advances shards in order on the calling
/// thread; any higher value splits them across that many threads, the
/// calling thread included. Simulation output is byte-identical at every
/// setting.
pub const SHARD_THREADS_ENV: &str = "OASIS_SHARD_THREADS";

/// Worker thread count from [`SHARD_THREADS_ENV`], defaulting to 1 (the
/// sequential path) when unset or unparsable.
pub fn threads_from_env() -> usize {
    std::env::var(SHARD_THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// A cross-shard message as delivered: stamped with its delivery time and
/// provenance. Inboxes are sorted by `(at, src, seq)` — the deterministic
/// merge order — before the owning shard sees them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Simulated delivery time at the destination shard.
    pub at: SimTime,
    /// Source shard index.
    pub src: u32,
    /// Send order within the source shard (monotonic per src over the run).
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// A cross-shard message as sent: the producing shard names the destination
/// and the delivery time (send time + link latency, hence ≥ the window end);
/// the runner stamps provenance at the barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Destination shard index.
    pub dst: usize,
    /// Simulated delivery time (must be ≥ the current window's end).
    pub at: SimTime,
    /// The payload.
    pub msg: M,
}

/// One shard of a sharded simulation: a self-contained world advanced
/// window-by-window, exchanging messages with other shards only at barriers.
pub trait ShardWorld {
    /// Cross-shard message payload.
    type Msg;

    /// Earliest simulated time at which this shard has local work pending
    /// ([`SimTime::MAX`] when idle). Used to open windows at the next busy
    /// instant instead of grinding lookahead-sized steps through idle
    /// stretches; an idle shard parks here rather than stalling the barrier.
    fn next_time(&self) -> SimTime;

    /// Advance this shard's clock to `until` (exclusive), first absorbing
    /// `inbox` (sorted by `(at, src, seq)`; every `at` falls inside the
    /// window) and pushing any cross-shard sends into `outbox` with
    /// delivery times no earlier than `until`. Returns the number of events
    /// processed, for throughput accounting and stall telemetry. The runner
    /// recycles both buffers across windows — capacity is retained, nothing
    /// is reallocated per message.
    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        outbox: &mut Vec<Outgoing<Self::Msg>>,
    ) -> u64;
}

/// Why a sharded run refused to start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// More than one shard with zero cross-shard lookahead: windows would
    /// have zero width and the barrier could never make progress. Merge the
    /// zero-latency shards into one, or give the link a real latency.
    ZeroLookahead {
        /// Number of shards in the rejected run.
        shards: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroLookahead { shards } => write!(
                f,
                "sharded run with {shards} shards but zero cross-shard lookahead; \
                 a zero-latency link means the shards are one shard"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Telemetry for one sharded run, collected only with the `obs` feature on.
#[cfg(feature = "obs")]
#[derive(Clone, Default)]
pub struct ShardStats {
    /// Window barriers crossed.
    pub windows: u64,
    /// Events processed per shard (tag = shard index on export).
    pub shard_events: Vec<u64>,
    /// Shard-window visits that processed zero events — the shard reached
    /// the barrier with nothing to do and stalled there.
    pub barrier_stalls: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Realized window lengths in simulated nanoseconds (idle-gap skipping
    /// and run horizons make windows differ from the raw lookahead).
    pub window_ns: crate::hist::Histogram,
}

#[cfg(feature = "obs")]
impl ShardStats {
    /// Fold another run's stats into this one (shard indices must line up).
    pub fn merge(&mut self, other: &ShardStats) {
        self.windows += other.windows;
        if self.shard_events.len() < other.shard_events.len() {
            self.shard_events.resize(other.shard_events.len(), 0);
        }
        for (a, b) in self.shard_events.iter_mut().zip(other.shard_events.iter()) {
            *a += b;
        }
        self.barrier_stalls += other.barrier_stalls;
        self.messages += other.messages;
        self.window_ns.merge(&other.window_ns);
    }
}

/// Per-shard state owned by the runner: the pooled message arenas.
struct ShardBuf<M> {
    /// Messages awaiting delivery to this shard in a future window, kept
    /// sorted by `(at, src, seq)`.
    pending: Vec<Envelope<M>>,
    /// Scratch inbox handed to `run_window`; reused every window.
    inbox: Vec<Envelope<M>>,
    /// Scratch outbox handed to `run_window`; drained at the barrier.
    outbox: Vec<Outgoing<M>>,
}

impl<M> Default for ShardBuf<M> {
    fn default() -> Self {
        ShardBuf {
            pending: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// Advances N [`ShardWorld`]s in lockstep windows with deterministic
/// cross-shard message exchange. Owns the window cursor and the pooled
/// message arenas, and persists across `run` calls so repeated stepping
/// (the `Pod::run`-in-a-loop pattern every bench uses) reuses buffers.
pub struct ShardedRunner<M> {
    threads: usize,
    lookahead: SimDuration,
    now: SimTime,
    bufs: Vec<ShardBuf<M>>,
    /// Next send sequence number per source shard.
    seqs: Vec<u64>,
    /// Destinations whose pending queue grew this window and needs sorting.
    routed: Vec<bool>,
    #[cfg(feature = "obs")]
    stats: ShardStats,
}

impl<M> ShardedRunner<M> {
    /// A runner for `shards` shards with the given cross-shard lookahead
    /// (the minimum latency of any cross-shard link) and worker thread
    /// count (clamped to at least 1).
    pub fn new(shards: usize, lookahead: SimDuration, threads: usize) -> Self {
        ShardedRunner {
            threads: threads.max(1),
            lookahead,
            now: SimTime::ZERO,
            bufs: (0..shards).map(|_| ShardBuf::default()).collect(),
            seqs: vec![0; shards],
            routed: vec![false; shards],
            #[cfg(feature = "obs")]
            stats: ShardStats {
                shard_events: vec![0; shards],
                ..ShardStats::default()
            },
        }
    }

    /// Configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards this runner coordinates.
    pub fn shards(&self) -> usize {
        self.bufs.len()
    }

    /// The window cursor: all shards have been advanced to at least here.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Telemetry collected so far.
    #[cfg(feature = "obs")]
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Advance every shard to `until`, honoring the configured thread count.
    /// With one shard (or one thread) this takes the sequential path; with
    /// several of both, shards are split across `min(threads, shards)`
    /// threads, the calling thread among them. Both paths run byte-identical
    /// simulations. A panic inside a shard unwinds out of this call.
    pub fn run<W>(&mut self, worlds: &mut [W], until: SimTime) -> Result<SimTime, ShardError>
    where
        W: ShardWorld<Msg = M> + Send,
        M: Send,
    {
        if self.threads > 1 && worlds.len() > 1 {
            self.run_par(worlds, until)
        } else {
            self.run_seq(worlds, until)
        }
    }

    /// The sequential path: same window protocol, shards advanced in index
    /// order on the calling thread. No `Send` bound — single-shard worlds
    /// can use this unconditionally.
    pub fn run_seq<W>(&mut self, worlds: &mut [W], until: SimTime) -> Result<SimTime, ShardError>
    where
        W: ShardWorld<Msg = M>,
    {
        self.check(worlds.len())?;
        loop {
            let mut earliest = SimTime::MAX;
            for (i, w) in worlds.iter().enumerate() {
                earliest = earliest.min(w.next_time());
                if let Some(e) = self.bufs[i].pending.first() {
                    earliest = earliest.min(e.at);
                }
            }
            let Some(w_end) = self.next_window(earliest, until) else {
                break;
            };
            let w_start = self.now;
            for (i, w) in worlds.iter_mut().enumerate() {
                let buf = &mut self.bufs[i];
                buf.inbox.clear();
                let k = buf.pending.partition_point(|e| e.at < w_end);
                if k > 0 {
                    let due = buf.pending.drain(..k);
                    buf.inbox.extend(due);
                }
                let events = w.run_window(w_end, &mut buf.inbox, &mut buf.outbox);
                self.note_events(i, events, u64::from(events == 0));
            }
            self.exchange(w_end);
            self.note_window(w_start, w_end);
            self.now = w_end;
        }
        self.now = self.now.max(until);
        Ok(self.now)
    }

    /// The parallel path: `min(threads, shards)` threads — the caller is
    /// worker 0 — each advancing its own contiguous block of shards, with
    /// one [`Rendezvous`] per window. Between windows the caller alone
    /// opens the next window, fills inboxes and merges outboxes, exactly as
    /// the sequential path does.
    fn run_par<W>(&mut self, worlds: &mut [W], until: SimTime) -> Result<SimTime, ShardError>
    where
        W: ShardWorld<Msg = M> + Send,
        M: Send,
    {
        self.check(worlds.len())?;
        let shards = worlds.len();
        let workers = self.threads.min(shards);

        // Static ownership: worker `w` gets shards `ranges[w]` for the whole
        // call, the remainder spread over the first blocks.
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(workers);
        let mut blocks: Vec<Block<W, M>> = Vec::with_capacity(workers);
        // Earliest local work per block, refreshed by its worker each window.
        let mut next: Vec<SimTime> = Vec::with_capacity(workers);
        let mut rest = worlds;
        for w in 0..workers {
            let first = ranges.last().map_or(0, |r| r.end);
            let range = first..first + shards / workers + usize::from(w < shards % workers);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            let slots: Vec<_> = head
                .iter_mut()
                .zip(&mut self.bufs[range.clone()])
                .map(|(world, buf)| {
                    buf.inbox.clear();
                    Slot {
                        world,
                        inbox: std::mem::take(&mut buf.inbox),
                        outbox: std::mem::take(&mut buf.outbox),
                        events: 0,
                        stalls: 0,
                    }
                })
                .collect();
            let first_next = slots.iter().map(|s| s.world.next_time()).min();
            next.push(first_next.unwrap_or(SimTime::MAX));
            #[expect(
                clippy::disallowed_types,
                reason = "hands a block between its worker (in a window) and the caller (between \
                          windows); the rendezvous orders them, so it is never contended"
            )]
            blocks.push(CachePadded::new(Mutex::new(slots)));
            ranges.push(range);
        }

        let rdv = Rendezvous::new(workers - 1);
        let caller = std::thread::current();
        let scope = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = blocks[1..]
                .iter()
                .zip(&rdv.arrivals)
                .map(|(block, arrival)| {
                    // Its own handle: the caller's lives on the caller's
                    // busy stack, a line no worker should be reading.
                    let (rdv, caller) = (&rdv, caller.clone());
                    s.spawn(move || rdv.work(block, arrival, &caller))
                })
                .collect();
            // Dropped on every way out of the loop below, a panic included.
            let mut release = ReleaseWorkers {
                rdv: &rdv,
                handles: &handles,
                epoch: 0,
            };
            loop {
                let mut earliest = next.iter().copied().min().unwrap_or(SimTime::MAX);
                for buf in &self.bufs {
                    if let Some(e) = buf.pending.first() {
                        earliest = earliest.min(e.at);
                    }
                }
                let Some(w_end) = self.next_window(earliest, until) else {
                    break;
                };
                let w_start = self.now;
                // Between windows the caller touches another worker's block
                // only when there is something to move: each touch is a
                // cache line pulled across cores and pulled back.
                for (block, range) in blocks.iter().zip(&ranges) {
                    let bufs = &mut self.bufs[range.clone()];
                    let due = |b: &ShardBuf<M>| b.pending.first().is_some_and(|e| e.at < w_end);
                    if !bufs.iter().any(due) {
                        continue;
                    }
                    for (slot, buf) in lock(block).iter_mut().zip(bufs) {
                        let k = buf.pending.partition_point(|e| e.at < w_end);
                        slot.inbox.extend(buf.pending.drain(..k));
                    }
                }
                release.epoch += 1;
                rdv.open(release.epoch, w_end, &handles);
                let own = run_block(&mut lock(&blocks[0]), w_end);
                if !rdv.wait(|| rdv.all_arrived(release.epoch)) {
                    // A worker panicked; its payload surfaces at the join.
                    break;
                }
                let summaries =
                    std::iter::once(own).chain(rdv.arrivals.iter().map(|a| a.summary()));
                for (b, (next_b, sent)) in summaries.enumerate() {
                    next[b] = next_b;
                    if sent {
                        let mut slots = lock(&blocks[b]);
                        for (slot, src) in slots.iter_mut().zip(ranges[b].clone()) {
                            self.route(src, &mut slot.outbox, w_end);
                        }
                    }
                }
                self.sort_routed();
                self.note_window(w_start, w_end);
                self.now = w_end;
            }
            drop(release);
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        if let Err(payload) = scope {
            std::panic::resume_unwind(payload);
        }

        // Reclaim the arenas and fold the per-shard tallies for the call.
        let slots = blocks.into_iter().flat_map(|block| {
            block
                .into_inner()
                .into_inner()
                .expect("a panic in a shard has already unwound out of run")
        });
        for (i, slot) in slots.enumerate() {
            self.bufs[i].inbox = slot.inbox;
            self.bufs[i].outbox = slot.outbox;
            self.note_events(i, slot.events, slot.stalls);
        }
        self.now = self.now.max(until);
        Ok(self.now)
    }

    fn check(&self, worlds: usize) -> Result<(), ShardError> {
        assert_eq!(worlds, self.bufs.len(), "shard count mismatch");
        if worlds > 1 && self.lookahead == SimDuration::ZERO {
            return Err(ShardError::ZeroLookahead { shards: worlds });
        }
        Ok(())
    }

    /// Compute the next window `[w_start, w_end)` given the earliest pending
    /// work across all shards, skipping idle gaps: the window opens at the
    /// earliest work, not at the cursor, so barrier rounds scale with *busy*
    /// windows rather than wall-to-wall lookahead quanta. Returns `None`
    /// when the run is complete.
    fn next_window(&mut self, earliest: SimTime, until: SimTime) -> Option<SimTime> {
        if self.now >= until {
            return None;
        }
        if earliest >= until {
            // Nothing due before the horizon: jump straight there.
            self.now = until;
            return None;
        }
        self.now = self.now.max(earliest);
        // A single shard has no cross-shard links: infinite lookahead, one
        // window to the horizon. This is what makes a pod run through the
        // sharded runner byte-identical to the legacy loop.
        if self.bufs.len() <= 1 {
            return Some(until);
        }
        Some((self.now + self.lookahead).min(until))
    }

    /// Barrier exchange: drain every outbox, stamp `(src, seq)`, and route
    /// into the destination's pending queue in `(at, src, seq)` order. Runs
    /// on the calling thread only — merge order is a pure function of
    /// shard contents, never of worker timing.
    fn exchange(&mut self, w_end: SimTime) {
        for src in 0..self.bufs.len() {
            if self.bufs[src].outbox.is_empty() {
                continue;
            }
            let mut outbox = std::mem::take(&mut self.bufs[src].outbox);
            self.route(src, &mut outbox, w_end);
            // Hand the drained (capacity-retaining) buffer back to the pool.
            self.bufs[src].outbox = outbox;
        }
        self.sort_routed();
    }

    /// Drain one source shard's outbox into the destinations' pending
    /// queues, stamping `(src, seq)`. Sources must be routed in ascending
    /// index order and followed by [`Self::sort_routed`].
    fn route(&mut self, src: usize, outbox: &mut Vec<Outgoing<M>>, w_end: SimTime) {
        let seq0 = self.seqs[src];
        self.seqs[src] += outbox.len() as u64;
        #[cfg(feature = "obs")]
        {
            self.stats.messages += outbox.len() as u64;
        }
        for (k, o) in outbox.drain(..).enumerate() {
            debug_assert!(
                o.at >= w_end,
                "conservative violation: msg for {:?} sent in window ending {:?}",
                o.at,
                w_end
            );
            self.routed[o.dst] = true;
            self.bufs[o.dst].pending.push(Envelope {
                at: o.at,
                src: src as u32,
                seq: seq0 + k as u64,
                msg: o.msg,
            });
        }
    }

    /// Restore `(at, src, seq)` order in every pending queue that
    /// [`Self::route`] appended to this window.
    fn sort_routed(&mut self) {
        for (buf, routed) in self.bufs.iter_mut().zip(&mut self.routed) {
            if *routed {
                *routed = false;
                // Unique (src, seq) pairs make the key a total order, so the
                // unstable sort is deterministic.
                buf.pending.sort_unstable_by_key(|e| (e.at, e.src, e.seq));
            }
        }
    }

    #[cfg(feature = "obs")]
    fn note_window(&mut self, w_start: SimTime, w_end: SimTime) {
        self.stats.windows += 1;
        self.stats.window_ns.record((w_end - w_start).as_nanos());
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_window(&mut self, _w_start: SimTime, _w_end: SimTime) {}

    /// Tally `events` processed by `shard` over some windows, `stalls` of
    /// which processed nothing.
    #[cfg(feature = "obs")]
    fn note_events(&mut self, shard: usize, events: u64, stalls: u64) {
        self.stats.shard_events[shard] += events;
        self.stats.barrier_stalls += stalls;
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_events(&mut self, _shard: usize, _events: u64, _stalls: u64) {}
}

/// A shard checked out to the parallel path for one `run` call. Aligned to
/// a cache line so the last slot of one block and the first of the next —
/// written by different workers every window — never share one.
#[repr(align(64))]
struct Slot<'w, W, M> {
    world: &'w mut W,
    inbox: Vec<Envelope<M>>,
    outbox: Vec<Outgoing<M>>,
    /// Events processed, and windows that processed none, over the call.
    events: u64,
    stalls: u64,
}

/// The contiguous run of shards one worker owns, behind a mutex its worker
/// holds while a window runs and the caller takes between windows. The
/// [`Rendezvous`] keeps the two apart, so the lock is bookkeeping that lets
/// safe code hand `&mut` shard state back and forth, never a wait. Padded
/// so neighbouring blocks' locks never share a cache line.
#[expect(clippy::disallowed_types, reason = "the block mutex described above")]
type Block<'w, W, M> = CachePadded<Mutex<Vec<Slot<'w, W, M>>>>;

/// Advance every shard of a block through the window ending at `w_end`.
/// Returns the earliest `next_time()` over the block afterwards and whether
/// the window left anything in an outbox.
fn run_block<W: ShardWorld>(slots: &mut [Slot<W, W::Msg>], w_end: SimTime) -> (SimTime, bool) {
    let (mut next, mut sent) = (SimTime::MAX, false);
    for slot in slots {
        let events = slot
            .world
            .run_window(w_end, &mut slot.inbox, &mut slot.outbox);
        slot.inbox.clear();
        slot.events += events;
        slot.stalls += u64::from(events == 0);
        next = next.min(slot.world.next_time());
        sent |= !slot.outbox.is_empty();
    }
    (next, sent)
}

#[expect(clippy::disallowed_types, reason = "the block mutex of a Block")]
fn lock<T>(block: &Mutex<T>) -> MutexGuard<'_, T> {
    block.lock().expect(
        "a block is only poisoned by a shard panic, which ends the run before the next lock",
    )
}

/// `yield_now` polls a waiter makes before it sleeps in `park`.
///
/// A waiter polls through `yield_now` rather than a `spin_loop` busy-wait.
/// With a core per thread the call returns in a third of a microsecond
/// (reference box), which is the whole cost: an idle window's rendezvous is
/// 0.8–1.2 µs either way, and on windows of pod work the two differ by 2 %.
/// Without one — more threads than cores, or two threads the kernel placed
/// on one core, as it did with the worker of 4 of 12 two-thread processes
/// here — the thread being waited for is not running, every spun round only
/// delays it, and threads that yield to each other every few microseconds
/// are always "cache hot" to the load balancer, which leaves them sharing
/// that core for tens of milliseconds. Measured with a 256-round (3 µs)
/// spin rung in front: 8.5 µs per idle window instead of 0.9 on such a
/// placement, 25–37 µs instead of 5 at eight threads on two cores. So the
/// spin budget is the constant zero.
///
/// The count is a constant too, not tuned to the run: one derived from
/// measured waits would make wall time depend on history. 1024 polls are
/// 0.3 ms when nothing else is runnable, longer than any wait between
/// windows of pod work (64 polls cost `fleet_traffic_t2` 10 %; 256 and 1024
/// measure alike), so only a wait that outlasts them — an idle worker beside
/// a long-busy one, a descheduled peer — pays `park`'s tens of microseconds
/// to wake.
const YIELD_ROUNDS: u32 = 1024;

/// The once-per-window meeting point of the parallel path.
///
/// The caller (worker 0) *opens* a window: it fills the inboxes, stores
/// `w_end_ns` and bumps `epoch`. Each other worker waits for the bump, runs
/// its block and stamps its [`Arrival`] with that epoch; the caller, after
/// running its own block, waits for every stamp and then owns every block
/// again.
#[expect(
    clippy::disallowed_types,
    reason = "the poison flag: Release-set by an unwinding worker, Acquire-read by waiters"
)]
struct Rendezvous {
    /// Written by the caller only; one line, so a worker that sees the new
    /// epoch already holds the rest.
    opened: CachePadded<Opened>,
    /// A worker is unwinding and will never arrive. Stored with `Release`,
    /// read with `Acquire` by every waiter; carries no data, only "stop
    /// waiting".
    poisoned: AtomicBool,
    /// One per spawned worker, each on its own cache line.
    arrivals: Vec<CachePadded<Arrival>>,
}

/// The caller's side of the [`Rendezvous`].
#[expect(
    clippy::disallowed_types,
    reason = "the window epoch and what it publishes"
)]
struct Opened {
    /// Windows opened so far, plus one for the shutdown bump. Stored with
    /// `Release` after everything a worker reads for the window (`w_end_ns`,
    /// `stop`, the inboxes); read by workers with `Acquire`. That pair is
    /// what publishes the window.
    epoch: AtomicU64,
    /// End of the open window. `Relaxed`: ordered by the `epoch` pair.
    w_end_ns: AtomicU64,
    /// Set before the last `epoch` bump to send workers home. `Relaxed`:
    /// ordered by the `epoch` pair.
    stop: AtomicBool,
}

/// What a spawned worker reports at the end of each window. The line moves
/// one way, worker to caller, and carries the block's summary with it, so
/// an idle block costs the caller this one line and nothing under the
/// block's mutex.
#[expect(
    clippy::disallowed_types,
    reason = "the arrival stamp and the block summary it publishes"
)]
struct Arrival {
    /// Epoch of the last window this worker finished. Stored with `Release`
    /// after the block's last write and after `next_ns` / `sent`; read by
    /// the caller with `Acquire` before it touches the block or the summary.
    /// That pair hands the block back.
    epoch: AtomicU64,
    /// [`run_block`]'s results. `Relaxed`: ordered by the `epoch` pair.
    next_ns: AtomicU64,
    sent: AtomicBool,
}

impl Arrival {
    /// Caller, after this arrival's epoch matched: the block's summary.
    fn summary(&self) -> (SimTime, bool) {
        (
            SimTime::from_nanos(self.next_ns.load(Ordering::Relaxed)),
            self.sent.load(Ordering::Relaxed),
        )
    }
}

impl Rendezvous {
    fn new(others: usize) -> Self {
        Rendezvous {
            opened: CachePadded::new(Opened {
                #[expect(
                    clippy::disallowed_types,
                    reason = "window epoch: caller Release-stores, workers Acquire-read, once per \
                              window"
                )]
                epoch: AtomicU64::new(0),
                #[expect(
                    clippy::disallowed_types,
                    reason = "window end, published by the epoch Release/Acquire pair"
                )]
                w_end_ns: AtomicU64::new(0),
                #[expect(
                    clippy::disallowed_types,
                    reason = "shutdown flag, published by the epoch Release/Acquire pair"
                )]
                stop: AtomicBool::new(false),
            }),
            #[expect(
                clippy::disallowed_types,
                reason = "panic flag: Release-set by an unwinding worker, Acquire-read by waiters"
            )]
            poisoned: AtomicBool::new(false),
            arrivals: (0..others)
                .map(|_| {
                    CachePadded::new(Arrival {
                        #[expect(
                            clippy::disallowed_types,
                            reason = "arrival stamp: worker Release-stores, caller Acquire-reads, \
                                      once per window"
                        )]
                        epoch: AtomicU64::new(0),
                        #[expect(
                            clippy::disallowed_types,
                            reason = "block summary, published by the arrival stamp's \
                                      Release/Acquire pair"
                        )]
                        next_ns: AtomicU64::new(0),
                        #[expect(
                            clippy::disallowed_types,
                            reason = "block summary, published by the arrival stamp's \
                                      Release/Acquire pair"
                        )]
                        sent: AtomicBool::new(false),
                    })
                })
                .collect(),
        }
    }

    /// Caller: publish window number `epoch`, ending at `w_end`, and wake
    /// every worker.
    fn open(&self, epoch: u64, w_end: SimTime, handles: &[ScopedJoinHandle<'_, ()>]) {
        self.opened
            .w_end_ns
            .store(w_end.as_nanos(), Ordering::Relaxed);
        self.bump(epoch, handles);
    }

    /// Caller: move the epoch on and unpark every worker. `unpark` leaves a
    /// token when its target is not parked, so a worker that checks the
    /// epoch, sees nothing and then parks cannot miss the wake-up.
    fn bump(&self, epoch: u64, handles: &[ScopedJoinHandle<'_, ()>]) {
        self.opened.epoch.store(epoch, Ordering::Release);
        for h in handles {
            h.thread().unpark();
        }
    }

    /// Caller: has every worker finished window `epoch`?
    fn all_arrived(&self, epoch: u64) -> bool {
        self.arrivals
            .iter()
            .all(|a| a.epoch.load(Ordering::Acquire) == epoch)
    }

    /// Block until `ready()` or until a worker panics; `false` means
    /// poisoned. Polls through `yield_now`, then sleeps in `park` (see
    /// [`YIELD_ROUNDS`]); whoever makes `ready()` true unparks the waiter
    /// afterwards.
    fn wait(&self, ready: impl Fn() -> bool) -> bool {
        let mut round = 0u32;
        loop {
            if ready() {
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            if round < YIELD_ROUNDS {
                round += 1;
                std::thread::yield_now();
            } else {
                std::thread::park();
            }
        }
    }

    /// A spawned worker's whole life: run `block` once per opened window
    /// until told to stop.
    fn work<W: ShardWorld>(&self, block: &Block<W, W::Msg>, arrival: &Arrival, caller: &Thread) {
        let _poison = PoisonOnPanic { rdv: self, caller };
        let mut seen = 0u64;
        loop {
            if !self.wait(|| self.opened.epoch.load(Ordering::Acquire) != seen) {
                return;
            }
            seen += 1;
            if self.opened.stop.load(Ordering::Relaxed) {
                return;
            }
            let w_end = SimTime::from_nanos(self.opened.w_end_ns.load(Ordering::Relaxed));
            let (next, sent) = run_block(&mut lock(block), w_end);
            arrival.next_ns.store(next.as_nanos(), Ordering::Relaxed);
            arrival.sent.store(sent, Ordering::Relaxed);
            arrival.epoch.store(seen, Ordering::Release);
            caller.unpark();
        }
    }
}

/// Held by each spawned worker: a panic in its block would otherwise leave
/// the caller waiting for an arrival that never comes.
struct PoisonOnPanic<'a> {
    rdv: &'a Rendezvous,
    caller: &'a Thread,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.rdv.poisoned.store(true, Ordering::Release);
            self.caller.unpark();
        }
    }
}

/// Held by the caller while workers exist: however the window loop ends —
/// horizon reached, a poisoned wait, a panic in the caller's own block or
/// in the merge — the workers are told to stop and woken, so the scope's
/// join cannot hang.
struct ReleaseWorkers<'a, 'scope> {
    rdv: &'a Rendezvous,
    handles: &'a [ScopedJoinHandle<'scope, ()>],
    /// The last window opened.
    epoch: u64,
}

impl Drop for ReleaseWorkers<'_, '_> {
    fn drop(&mut self) {
        self.rdv.opened.stop.store(true, Ordering::Relaxed);
        self.rdv.bump(self.epoch + 1, self.handles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, VecDeque};
    use std::thread::ThreadId;

    /// A minimal shard world: fires local events at fixed times, forwarding
    /// each one (and each received message, up to a hop budget) over one of
    /// its links after that link's latency. Logs every delivery so tests
    /// can assert on merge order and determinism.
    struct TestShard {
        /// `(destination shard, link latency)`; a message picks its link
        /// from its own contents, never from timing.
        links: Vec<(usize, SimDuration)>,
        hops: u64,
        local: VecDeque<SimTime>,
        log: Vec<(SimTime, u32, u64, u64)>,
        window_calls: u64,
        fired: u64,
        /// Panic on entering this (1-based) window.
        panic_in_window: Option<u64>,
        /// The thread each window ran on.
        ran_on: Vec<ThreadId>,
    }

    impl TestShard {
        fn new(dst: usize, latency_ns: u64, hops: u64, local: &[u64]) -> Self {
            Self::with_links(&[(dst, latency_ns)], hops, local)
        }

        fn with_links(links: &[(usize, u64)], hops: u64, local: &[u64]) -> Self {
            TestShard {
                links: links
                    .iter()
                    .map(|&(dst, ns)| (dst, SimDuration::from_nanos(ns)))
                    .collect(),
                hops,
                local: local.iter().map(|&t| SimTime::from_nanos(t)).collect(),
                log: Vec::new(),
                window_calls: 0,
                fired: 0,
                panic_in_window: None,
                ran_on: Vec::new(),
            }
        }

        fn send(&self, pick: u64, at: SimTime, msg: u64, outbox: &mut Vec<Outgoing<u64>>) {
            let (dst, latency) = self.links[(pick % self.links.len() as u64) as usize];
            outbox.push(Outgoing {
                dst,
                at: at + latency,
                msg,
            });
        }
    }

    impl ShardWorld for TestShard {
        type Msg = u64;

        fn next_time(&self) -> SimTime {
            self.local.front().copied().unwrap_or(SimTime::MAX)
        }

        fn run_window(
            &mut self,
            until: SimTime,
            inbox: &mut Vec<Envelope<u64>>,
            outbox: &mut Vec<Outgoing<u64>>,
        ) -> u64 {
            self.window_calls += 1;
            self.ran_on.push(std::thread::current().id());
            if self.panic_in_window == Some(self.window_calls) {
                panic!("test shard blew up in window {}", self.window_calls);
            }
            // Deliveries and local events interleave in time order (a
            // delivery first on a tie), so what a shard sends — and the
            // `seq` the runner stamps on it — does not depend on where the
            // window boundaries fall.
            let mut n = 0;
            let mut inbox = inbox.drain(..).peekable();
            loop {
                let local = self.local.front().copied().filter(|&t| t < until);
                if let Some(e) = inbox.next_if(|e| local.is_none_or(|t| e.at <= t)) {
                    assert!(e.at < until, "delivery past the window end");
                    self.log.push((e.at, e.src, e.seq, e.msg));
                    if e.msg < self.hops {
                        self.send(e.seq + e.msg, e.at, e.msg + 1, outbox);
                    }
                } else if let Some(t) = local {
                    self.local.pop_front();
                    self.fired += 1;
                    self.send(self.fired, t, 0, outbox);
                } else {
                    break;
                }
                n += 1;
            }
            n
        }
    }

    /// A 3-shard ring with staggered local events and multi-hop forwarding.
    fn ring() -> Vec<TestShard> {
        vec![
            TestShard::new(1, 100, 5, &[0, 40, 40, 1_000]),
            TestShard::new(2, 100, 5, &[70]),
            TestShard::new(0, 100, 5, &[250, 251]),
        ]
    }

    fn run_ring(threads: usize) -> Vec<Vec<(SimTime, u32, u64, u64)>> {
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), threads);
        runner
            .run(&mut worlds, SimTime::from_micros(10))
            .expect("ring run");
        worlds.into_iter().map(|w| w.log).collect()
    }

    #[test]
    fn byte_identical_at_any_thread_count() {
        let base = run_ring(1);
        assert!(base.iter().any(|l| !l.is_empty()), "ring exchanged nothing");
        for threads in [2, 3, 8] {
            assert_eq!(run_ring(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn stepped_run_matches_single_run() {
        // The Pod::run-in-a-loop pattern: many short horizons must land in
        // the same state as one long one.
        let one_shot = run_ring(1);
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), 2);
        for step in 1..=100u64 {
            runner
                .run(&mut worlds, SimTime::from_nanos(step * 100))
                .expect("stepped run");
        }
        let stepped: Vec<_> = worlds.into_iter().map(|w| w.log).collect();
        assert_eq!(stepped, one_shot);
    }

    #[test]
    fn zero_lookahead_is_a_deterministic_error() {
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::ZERO, 2);
        let err = runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect_err("zero lookahead must not run");
        assert_eq!(err, ShardError::ZeroLookahead { shards: 3 });
    }

    #[test]
    fn zero_lookahead_single_shard_is_fine() {
        // One shard has no cross-shard links, so zero lookahead is vacuous.
        // Its window spans the whole horizon, so (conservative) self-sends
        // must land past the horizon and deliver on the next run call.
        let mut worlds = vec![TestShard::new(0, 2_000, 0, &[10, 20])];
        let mut runner = ShardedRunner::new(1, SimDuration::ZERO, 4);
        runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect("single shard runs");
        assert_eq!(worlds[0].fired, 2);
        assert!(worlds[0].log.is_empty());
        runner
            .run(&mut worlds, SimTime::from_micros(4))
            .expect("second horizon");
        assert_eq!(worlds[0].log.len(), 2, "self-sends delivered next horizon");
    }

    #[test]
    fn boundary_events_merge_in_time_shard_seq_order() {
        // Shards 1 and 2 both deliver to shard 0 at exactly t=300ns (a
        // window boundary for lookahead=100): merge order must be
        // (time, src shard, seq) regardless of worker interleaving.
        for threads in [1, 4] {
            let mut worlds = vec![
                TestShard::new(0, 100, 0, &[]),
                TestShard::new(0, 100, 0, &[200, 200]),
                TestShard::new(0, 100, 0, &[200]),
            ];
            let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), threads);
            runner
                .run(&mut worlds, SimTime::from_micros(1))
                .expect("boundary run");
            let at = SimTime::from_nanos(300);
            assert_eq!(
                worlds[0].log,
                vec![(at, 1, 0, 0), (at, 1, 1, 0), (at, 2, 0, 0)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_shard_does_not_stall_the_barrier() {
        // Shard 1 never has local work; it must park at the barrier and let
        // the run finish, still receiving what is sent to it.
        let mut worlds = vec![
            TestShard::new(1, 100, 0, &[50]),
            TestShard::new(0, 100, 0, &[]),
        ];
        let mut runner = ShardedRunner::new(2, SimDuration::from_nanos(100), 2);
        let end = runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect("empty shard run");
        assert_eq!(end, SimTime::from_micros(1));
        assert_eq!(worlds[1].log, vec![(SimTime::from_nanos(150), 0, 0, 0)]);
    }

    #[test]
    fn idle_gaps_are_skipped_not_ground_through() {
        // Events at t=0 and t=1ms with 100ns lookahead: a naive runner would
        // grind ~10,000 windows; idle realignment needs a handful.
        let mut worlds = vec![
            TestShard::new(1, 100, 0, &[0, 1_000_000]),
            TestShard::new(0, 100, 0, &[]),
        ];
        let mut runner = ShardedRunner::new(2, SimDuration::from_nanos(100), 1);
        runner
            .run(&mut worlds, SimTime::from_millis(2))
            .expect("idle gap run");
        assert!(
            worlds[0].window_calls < 16,
            "expected idle skipping, got {} windows",
            worlds[0].window_calls
        );
        assert_eq!(worlds[1].log.len(), 2);
    }

    #[test]
    fn single_shard_runs_one_window_per_horizon() {
        let mut worlds = vec![TestShard::new(0, 5_000, 0, &[5, 15, 25])];
        let mut runner = ShardedRunner::new(1, SimDuration::from_nanos(10), 8);
        runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect("single shard");
        // All three local events batch into one full-horizon window.
        assert_eq!(worlds[0].window_calls, 1);
        assert_eq!(worlds[0].fired, 3);
    }

    #[test]
    fn parallel_run_uses_min_threads_shards_threads_with_fixed_blocks() {
        let me = std::thread::current().id();
        for (shards, threads) in [(3usize, 2usize), (3, 3), (3, 8), (8, 2), (8, 3)] {
            let mut worlds: Vec<TestShard> = (0..shards)
                .map(|i| TestShard::new((i + 1) % shards, 100, 4, &[10 * i as u64, 900]))
                .collect();
            let mut runner = ShardedRunner::new(shards, SimDuration::from_nanos(100), threads);
            runner
                .run(&mut worlds, SimTime::from_micros(5))
                .expect("ring run");
            let case = format!("shards={shards} threads={threads}");
            // Every shard stayed on one thread for the whole call...
            let owner: Vec<ThreadId> = worlds
                .iter()
                .map(|w| {
                    assert!(w.window_calls > 1, "{case}: too few windows to tell");
                    assert!(w.ran_on.iter().all(|&t| t == w.ran_on[0]), "{case}");
                    w.ran_on[0]
                })
                .collect();
            // ...exactly min(threads, shards) threads ran windows, the
            // caller (owning the first block) among them...
            let distinct: BTreeSet<String> = owner.iter().map(|t| format!("{t:?}")).collect();
            assert_eq!(distinct.len(), threads.min(shards), "{case}");
            assert_eq!(owner[0], me, "{case}: the caller is worker 0");
            // ...and each owns one contiguous block.
            let changes = owner.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(changes, distinct.len() - 1, "{case}: blocks not contiguous");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the run under test sits on a helper thread so a hang fails instead of blocking"
    )]
    fn a_panicking_shard_unwinds_out_of_run() {
        use std::sync::mpsc;
        use std::time::Duration;
        // Shard 0 is in the caller's block, shard 2 in a spawned worker's.
        for (threads, victim) in [(2, 0), (2, 2), (3, 0), (3, 2)] {
            let (tx, rx) = mpsc::channel();
            let helper = std::thread::spawn(move || {
                let mut worlds = ring();
                worlds[victim].panic_in_window = Some(3);
                let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), threads);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    runner.run(&mut worlds, SimTime::from_micros(10))
                }));
                let _ = tx.send(outcome.map(|_| ()).map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                }));
            });
            let case = format!("threads={threads} victim={victim}");
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(Err(msg)) => assert_eq!(msg, "test shard blew up in window 3", "{case}"),
                Ok(Ok(())) => panic!("{case}: run returned despite the shard panic"),
                Err(_) => panic!("{case}: run hung on a panicked shard"),
            }
            helper.join().expect("helper thread");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "a waiter thread and its poll counter are what the test observes"
    )]
    fn a_parked_waiter_wakes_on_ready_and_on_poison() {
        use std::sync::atomic::AtomicU32;
        use std::sync::mpsc;
        use std::time::Duration;
        for poison in [false, true] {
            let rdv = Rendezvous::new(0);
            let (polls, flag) = (AtomicU32::new(0), AtomicBool::new(false));
            let (tx, rx) = mpsc::channel();
            let woke = std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    let ready = || {
                        polls.fetch_add(1, Ordering::Relaxed);
                        flag.load(Ordering::Acquire)
                    };
                    let _ = tx.send(rdv.wait(ready));
                });
                // Past its last yield the waiter is parked, or about to be:
                // the wake-up below must reach it either way.
                while polls.load(Ordering::Relaxed) <= YIELD_ROUNDS {
                    std::thread::yield_now();
                }
                if poison {
                    rdv.poisoned.store(true, Ordering::Release);
                } else {
                    flag.store(true, Ordering::Release);
                }
                waiter.thread().unpark();
                let woke = rx.recv_timeout(Duration::from_secs(30));
                // Let a waiter that slept through that out, so the scope
                // ends and the assertion can fail.
                rdv.poisoned.store(true, Ordering::Release);
                waiter.thread().unpark();
                woke
            });
            assert_eq!(woke, Ok(!poison), "poison={poison}");
        }
    }

    /// One shard of a random message graph: its raw links `(dst before
    /// reduction modulo the shard count, latency above the lookahead)`, its
    /// local event times and its hop budget.
    type ShardSpec = (Vec<(u16, u64)>, Vec<u64>, u64);

    fn graph(spec: &[ShardSpec], lookahead_ns: u64) -> Vec<TestShard> {
        spec.iter()
            .map(|(links, local, hops)| {
                let links: Vec<(usize, u64)> = links
                    .iter()
                    .map(|&(dst, extra)| (dst as usize % spec.len(), lookahead_ns + extra))
                    .collect();
                let mut local = local.clone();
                local.sort_unstable();
                TestShard::with_links(&links, *hops, &local)
            })
            .collect()
    }

    type Logs = Vec<Vec<(SimTime, u32, u64, u64)>>;

    fn logs(worlds: Vec<TestShard>) -> Logs {
        worlds.into_iter().map(|w| w.log).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Differential oracle: on random message graphs, `run` at any
        /// thread count (8 oversubscribes the cores and reaches the park
        /// rung) and a stepped run deliver exactly what `run_seq` delivers,
        /// in the same order, to every shard.
        #[test]
        fn run_matches_run_seq_on_random_graphs(
            shards in 3usize..10,
            lookahead_ns in 20u64..200,
            step_ns in 30u64..700,
            raw in proptest::collection::vec(
                (
                    proptest::collection::vec((any::<u16>(), 0u64..400), 1..4),
                    proptest::collection::vec(0u64..6_000, 0..10),
                    0u64..7,
                ),
                9..10,
            ),
        ) {
            let spec = &raw[..shards];
            let lookahead = SimDuration::from_nanos(lookahead_ns);
            let horizon = SimTime::from_nanos(12_000);

            let mut worlds = graph(spec, lookahead_ns);
            ShardedRunner::new(shards, lookahead, 1)
                .run_seq(&mut worlds, horizon)
                .expect("oracle run");
            let oracle = logs(worlds);

            for threads in [1, 2, 3, 8] {
                let mut worlds = graph(spec, lookahead_ns);
                ShardedRunner::new(shards, lookahead, threads)
                    .run(&mut worlds, horizon)
                    .expect("run");
                prop_assert_eq!(&logs(worlds), &oracle, "threads={}", threads);
            }

            let mut worlds = graph(spec, lookahead_ns);
            let mut runner = ShardedRunner::new(shards, lookahead, 2);
            let mut t = 0;
            while t < horizon.as_nanos() {
                t += step_ns;
                runner.run(&mut worlds, SimTime::from_nanos(t)).expect("stepped run");
            }
            prop_assert_eq!(&logs(worlds), &oracle, "stepped by {} ns", step_ns);
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn stats_count_windows_events_and_stalls() {
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), 2);
        runner
            .run(&mut worlds, SimTime::from_micros(10))
            .expect("ring run");
        let stats = runner.stats().clone();
        assert!(stats.windows > 0);
        assert!(stats.messages > 0);
        let processed: u64 = worlds.iter().map(|w| w.log.len() as u64 + w.fired).sum();
        assert_eq!(stats.shard_events.iter().sum::<u64>(), processed);
        assert!(stats.window_ns.count() > 0);

        // Associative merge: stats from two half-runs fold into the same
        // totals as one full run.
        let mut a = ShardStats::default();
        a.merge(&stats);
        a.merge(&ShardStats::default());
        assert_eq!(a.windows, stats.windows);
        assert_eq!(a.shard_events, stats.shard_events);
        assert_eq!(a.messages, stats.messages);
    }
}
