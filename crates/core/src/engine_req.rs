//! The one request/response engine (§3.1, §3.4).
//!
//! Every pooled device that takes a command and answers with a completion
//! — SSDs, accelerators, whatever comes next — is served by the same
//! machine: a [`ReqFrontend`] per consuming host stages payloads in pool
//! buffers, sends 64 B command descriptors over a message channel, arms a
//! retry deadline per command and replays what was in flight after a host
//! restart; a [`ReqBackend`] per device feeds the device's queues, lets it
//! DMA payloads straight to and from the pool, and answers replays of
//! commands it already executed from a dedup cache, so execution is
//! exactly-once under at-least-once delivery. A device class supplies only
//! what differs, as a [`ReqClass`].
//!
//! The retry/replay and dedup decisions are plain state with pure
//! transitions ([`FeCore`], [`DedupCache`]): no pool, no channel, no
//! clock of their own, so they are property-tested against a model
//! (`tests/req_exactly_once.rs`). [`ReqPair`] co-simulates one frontend,
//! one backend and a device for tests and microbenchmarks.

use oasis_channel::{Receiver, RetryPolicy, RetryState, Sender, SeqWindow};
use oasis_cxl::dma::DmaMemory;
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator};
use oasis_net::nic::Nic;
use oasis_net::packet::Frame;
use oasis_sim::detmap::DetMap;
use oasis_sim::time::{SimDuration, SimTime};

use crate::config::OasisConfig;
use crate::datapath::{alloc_descriptor_channel, empty_round, BufferArea, Link, PoolDma};
use crate::engine::{DeviceEngine, EngineFault, EngineWorld, WireDescriptor};
use crate::instance::Instance;
use crate::park::IdleRound;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};

/// What a completion carries besides its ids, as on the wire: the status
/// byte and the result word (zero for classes that return none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Status byte of the encoded completion.
    pub status: u8,
    /// Result word echoed by the device.
    pub result: u64,
}

impl Outcome {
    /// An outcome with the given status byte and result word.
    pub const fn new(status: u8, result: u64) -> Self {
        Outcome { status, result }
    }
}

/// What one request/response device class supplies; everything else is
/// [`ReqFrontend`] / [`ReqBackend`].
pub trait ReqClass: Sized + 'static {
    /// Descriptor sent frontend → backend.
    type Command: WireDescriptor + Copy;
    /// Descriptor sent backend → frontend.
    type Completion: WireDescriptor + Copy;
    /// The device a backend drives.
    type Device;
    /// What the caller drains from the frontend.
    type Result;

    /// Class name: region and channel names, snapshot error labels.
    const NAME: &'static str;
    /// Exported metric names ([`crate::metrics`]): the six [`ReqFeStats`]
    /// counters, the frontend in-flight gauge and service-time histogram,
    /// then the four [`ReqBeStats`] counters.
    const METRICS: [&'static str; 12];
    /// How long a frontend waits for a completion before resubmitting, the
    /// backoff between attempts, and the attempt budget.
    const RETRY: RetryPolicy;
    /// Size of one pool buffer: the largest payload a command stages.
    const BUF_SIZE: u64;
    /// Pool buffers per consuming host.
    const BUFS_PER_HOST: u64;
    /// Status byte of success.
    const OK: u8;
    /// Status byte an injected fault window answers with; retrying may
    /// succeed. Never cached by the backend, so a retry re-runs the device.
    const TRANSIENT: u8;
    /// Status byte a backend bounces a command with when the device queue
    /// is full, and a frontend reports when the retry budget is spent.
    const FAILED: u8;
    /// Whether a transient completion burns an attempt and is resent at
    /// once, or is dropped and left to the armed deadline. Resending at
    /// once gets past a single bad operation in microseconds, but devices
    /// error in ~1 µs, so inside a longer fault window the whole budget
    /// burns before the window closes; the deadline paces retries with the
    /// backoff and outlasts it.
    const RESEND_TRANSIENT_AT_ONCE: bool;
    /// Whether completions carry a result word (eight more snapshot bytes
    /// per cached or undrained completion).
    const RESULT_WORD: bool;

    /// `(command id, frontend host)` of a command.
    fn cmd_ids(cmd: &Self::Command) -> (u16, u32);
    /// `(command id, frontend host, outcome)` of a completion.
    fn split(comp: &Self::Completion) -> (u16, u32, Outcome);
    /// The inverse of [`Self::split`].
    fn completion(cid: u16, frontend: u32, outcome: Outcome) -> Self::Completion;
    /// The pool buffers `cmd` owns as `(address, bytes in use)`, in the
    /// order they were allocated; flushed and freed when it finishes.
    fn buffers(cmd: &Self::Command) -> [Option<(u64, u64)>; 2];
    /// The range the device wrote that the caller gets back on success.
    fn readback(cmd: &Self::Command) -> Option<(u64, u64)>;
    /// Build the caller-facing result.
    fn result(cid: u16, outcome: Outcome, data: Option<Vec<u8>>) -> Self::Result;
    /// Take a result apart again (snapshots).
    fn result_parts(res: &Self::Result) -> (u16, Outcome, Option<&[u8]>);
    /// Queue `cmd` on the device; `false` when its submission queue is full.
    fn submit(dev: &mut Self::Device, now: SimTime, cmd: Self::Command) -> bool;
    /// Let the device work until `now`, DMAing through `dma`.
    fn process(dev: &mut Self::Device, now: SimTime, dma: &mut dyn DmaMemory);
    /// Completions the device has finished by `now`.
    fn poll_completions(dev: &mut Self::Device, now: SimTime) -> Vec<Self::Completion>;
    /// Earliest `now` at which [`Self::process`] or
    /// [`Self::poll_completions`] does anything, absent new submissions;
    /// `None` for a device with nothing queued, running or undrained. The
    /// default — always due — keeps a backend whose class cannot tell from
    /// ever being parked ([`DeviceEngine::idle_round`]).
    fn next_event(_dev: &Self::Device) -> Option<SimTime> {
        Some(SimTime::ZERO)
    }
}

fn put_outcome<C: ReqClass>(w: &mut SnapshotWriter, o: Outcome) {
    w.put_u8(o.status);
    if C::RESULT_WORD {
        w.put_u64(o.result);
    }
}

fn get_outcome<C: ReqClass>(r: &mut SnapshotReader<'_>) -> Result<Outcome, SnapshotError> {
    let status = r.u8(C::NAME)?;
    let result = if C::RESULT_WORD { r.u64(C::NAME)? } else { 0 };
    Ok(Outcome::new(status, result))
}

// ---------------------------------------------------------------------------
// The pure cores
// ---------------------------------------------------------------------------

/// One command a frontend has sent and not yet resolved.
pub struct Pending<C: ReqClass> {
    /// The full command, kept for retransmission. Buffer addresses and
    /// sizes are derived from it ([`ReqClass::buffers`]).
    pub cmd: C::Command,
    /// Target device (resubmission routing).
    pub dev: usize,
    /// Retry pacing.
    pub retry: RetryState,
    /// First submission time (service-time telemetry; retries keep it).
    pub issued: SimTime,
}

/// What the frontend shell must do after a [`FeCore`] transition.
pub enum FeAction<C: ReqClass> {
    /// Nothing: the completion was not ours, or the deadline will retry.
    Wait,
    /// Put the command back on the wire to the device.
    Resend(usize, C::Command),
    /// The command resolved with this outcome: hand it to the caller.
    Deliver(Pending<C>, Outcome),
    /// The retry budget is spent: fail it to the caller.
    Fail(Pending<C>),
}

/// The frontend's retry/replay state: which commands are in flight and
/// when each is next due. Transitions take the current time and return
/// what to do; they touch neither pool nor channel.
pub struct FeCore<C: ReqClass> {
    /// In-flight commands by id.
    pub pending: DetMap<u16, Pending<C>>,
    /// Next command id (wraps; the buffer pool bounds the in-flight window
    /// far below 2¹⁶, so in-flight ids never collide).
    pub next_cid: u16,
}

fn sorted(cids: impl Iterator<Item = u16>) -> Vec<u16> {
    let mut cids: Vec<u16> = cids.collect();
    cids.sort_unstable();
    cids
}

impl<C: ReqClass> Default for FeCore<C> {
    /// No commands in flight, ids starting at zero.
    fn default() -> Self {
        FeCore {
            pending: DetMap::default(),
            next_cid: 0,
        }
    }
}

impl<C: ReqClass> FeCore<C> {
    /// Allocate a command id. It stays burnt if the send then fails.
    pub fn take_cid(&mut self) -> u16 {
        let cid = self.next_cid;
        self.next_cid = cid.wrapping_add(1);
        cid
    }

    /// `cmd` went on the wire to `dev` at `now`: arm its first deadline.
    pub fn submitted(&mut self, cmd: C::Command, dev: usize, now: SimTime) {
        let p = Pending {
            cmd,
            dev,
            retry: RetryState::armed(&C::RETRY, now),
            issued: now,
        };
        self.pending.insert(C::cmd_ids(&cmd).0, p);
    }

    /// A completion for `cid` arrived. Duplicates and strangers are
    /// ignored; a transient outcome is retried while budget remains.
    pub fn on_completion(&mut self, cid: u16, outcome: Outcome, now: SimTime) -> FeAction<C> {
        let Some(mut p) = self.pending.remove(&cid) else {
            return FeAction::Wait;
        };
        if outcome.status != C::TRANSIENT || !p.retry.can_retry(&C::RETRY) {
            return FeAction::Deliver(p, outcome);
        }
        let action = if C::RESEND_TRANSIENT_AT_ONCE {
            p.retry.rearm(&C::RETRY, now);
            FeAction::Resend(p.dev, p.cmd)
        } else {
            FeAction::Wait
        };
        self.pending.insert(cid, p);
        action
    }

    /// Ids of all in-flight commands, ascending.
    pub fn in_flight(&self) -> Vec<u16> {
        sorted(self.pending.keys().copied())
    }

    /// Earliest completion deadline among the in-flight commands.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.retry.deadline).min()
    }

    /// Ids whose completion deadline has passed at `now`, ascending.
    pub fn expired(&self, now: SimTime) -> Vec<u16> {
        let due = self.pending.iter().filter(|(_, p)| p.retry.expired(now));
        sorted(due.map(|(cid, _)| *cid))
    }

    /// The deadline of `cid` fired (a device in a fault window swallows
    /// commands whole): resend with backoff, or fail once the budget is
    /// spent. Resubmission is safe even when the original is merely slow —
    /// the backend deduplicates.
    pub fn on_expiry(&mut self, cid: u16, now: SimTime) -> FeAction<C> {
        match self.pending.get_mut(&cid) {
            Some(p) if p.retry.can_retry(&C::RETRY) => {
                p.retry.rearm(&C::RETRY, now);
                FeAction::Resend(p.dev, p.cmd)
            }
            Some(_) => self
                .pending
                .remove(&cid)
                .map_or(FeAction::Wait, FeAction::Fail),
            None => FeAction::Wait,
        }
    }

    /// The host restarted with `cid` in flight: the submission intent
    /// survived (it lives here), completions delivered into the lost cache
    /// did not. Resend on a fresh budget.
    pub fn on_replay(&mut self, cid: u16, now: SimTime) -> FeAction<C> {
        let Some(p) = self.pending.get_mut(&cid) else {
            return FeAction::Wait;
        };
        p.retry = RetryState::armed(&C::RETRY, now);
        FeAction::Resend(p.dev, p.cmd)
    }
}

/// How many completed command ids each frontend link remembers for replay
/// deduplication. Far larger than the in-flight window a frontend can
/// have, so a replayed id is always still remembered.
const DEDUP_WINDOW: usize = 1024;

/// The backend's exactly-once memory for one frontend link: recently
/// completed command ids and the outcome each finished with.
pub struct DedupCache<C: ReqClass> {
    /// Remembered ids, FIFO.
    pub seen: SeqWindow,
    /// Outcome per remembered id, evicted in lockstep with `seen`.
    pub done: DetMap<u16, Outcome>,
    class: std::marker::PhantomData<C>,
}

impl<C: ReqClass> DedupCache<C> {
    /// A cache remembering the last `capacity` completed ids.
    pub fn new(capacity: usize) -> Self {
        DedupCache {
            seen: SeqWindow::new(capacity),
            done: DetMap::default(),
            class: std::marker::PhantomData,
        }
    }

    /// The outcome `cid` already finished with, if it is a replay (the
    /// frontend timed out or restarted before seeing the completion).
    pub fn lookup(&self, cid: u16) -> Option<Outcome> {
        self.done.get(&cid).copied()
    }

    /// The device completed `cid`. Terminal outcomes are remembered;
    /// transient ones are not, so a retry of the same id re-runs the
    /// device.
    pub fn record(&mut self, cid: u16, outcome: Outcome) {
        if outcome.status == C::TRANSIENT {
            return;
        }
        let (_, evicted) = self.seen.insert_evicting(cid);
        if let Some(old) = evicted {
            self.done.remove(&old);
        }
        self.done.insert(cid, outcome);
    }
}

// ---------------------------------------------------------------------------
// Frontend
// ---------------------------------------------------------------------------

/// Frontend counters.
#[derive(Clone, Debug, Default)]
pub struct ReqFeStats {
    /// Commands submitted.
    pub submitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Completions with error status.
    pub errors: u64,
    /// Submissions refused (no buffer / channel full).
    pub refused: u64,
    /// Commands resubmitted after a completion timeout, a transient error
    /// or a host restart (§3.4 recovery).
    pub retries: u64,
    /// Commands failed to the caller after exhausting the retry budget.
    pub retry_exhausted: u64,
}

impl ReqFeStats {
    /// Every counter, in snapshot and metric-table order.
    fn fields(&mut self) -> [&mut u64; 6] {
        [
            &mut self.submitted,
            &mut self.completed,
            &mut self.errors,
            &mut self.refused,
            &mut self.retries,
            &mut self.retry_exhausted,
        ]
    }
}

/// The frontend driver of a request/response class: one busy-polling core
/// per consuming host (§3.4), the interface instances submit through.
pub struct ReqFrontend<C: ReqClass> {
    /// Host this frontend runs on.
    pub host: usize,
    /// The polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: ReqFeStats,
    /// In-flight commands and their retry timers.
    pub state: FeCore<C>,
    driver_loop_ns: u64,
    links: Vec<Link>,
    data_area: BufferArea,
    done: Vec<C::Result>,
    /// Testing knob for the sanitizer regression harness: skip the
    /// invalidation in [`Self::release`], reintroducing the stale-read bug
    /// the release flush fixed.
    skip_release_invalidate: bool,
    /// Submit-to-completion latency, retries included (nanoseconds).
    #[cfg(feature = "obs")]
    service_ns: oasis_obs::ObsHistogram,
}

impl<C: ReqClass> ReqFrontend<C> {
    /// Create a frontend with its payload buffer area in pool memory.
    pub fn new(host: usize, core: HostCtx, cfg: &OasisConfig, data_area: BufferArea) -> Self {
        ReqFrontend {
            host,
            core,
            stats: ReqFeStats::default(),
            state: FeCore::default(),
            driver_loop_ns: cfg.driver_loop_ns,
            links: Vec::new(),
            data_area,
            done: Vec::new(),
            skip_release_invalidate: false,
            #[cfg(feature = "obs")]
            service_ns: oasis_obs::ObsHistogram::new(),
        }
    }

    /// Reintroduce the pre-fix buffer-release behaviour (no invalidation)
    /// so the sanitizer regression harness can prove it re-detects the
    /// stale-read bug. A test mutant, not a configuration.
    #[doc(hidden)]
    pub fn set_skip_release_invalidate(&mut self, skip: bool) {
        self.skip_release_invalidate = skip;
    }

    /// Wire a channel pair to the backend of device `dev`.
    pub fn add_link(&mut self, dev: usize, to: Sender, from: Receiver) {
        self.links.push(Link {
            peer: dev,
            to,
            from,
        });
    }

    /// Size of one payload buffer.
    pub fn buf_size(&self) -> u64 {
        self.data_area.buf_size()
    }

    fn refuse(&mut self) -> Option<u16> {
        self.stats.refused += 1;
        None
    }

    /// The submit path under every class's wrappers. The command owns
    /// `bufs` (≤ 2) pool buffers; `stage` is copied into the first and
    /// written back so the device's DMA sees it (§3.2.1); `build` makes
    /// the command from its id, this host and the buffer addresses.
    /// `admissible` is the class's own payload-size check. Returns the
    /// command id, or `None` when there is no link to `dev` or the
    /// submission is refused (inadmissible, no buffers, channel full) —
    /// the caller retries on a later tick.
    pub fn submit(
        &mut self,
        pool: &mut CxlPool,
        dev: usize,
        admissible: bool,
        bufs: usize,
        stage: Option<&[u8]>,
        build: impl FnOnce(u16, u32, [u64; 2]) -> C::Command,
    ) -> Option<u16> {
        let li = Link::find(&self.links, dev)?;
        if !admissible {
            return self.refuse();
        }
        let mut addr = [0u64; 2];
        let mut got = 0;
        while got < bufs {
            let Some(a) = self.data_area.alloc() else {
                self.free_rev(&addr[..got]);
                return self.refuse();
            };
            addr[got] = a;
            got += 1;
        }
        if let Some(data) = stage {
            let len = data.len() as u64;
            self.core.write(pool, addr[0], data);
            self.core.clwb_range(pool, addr[0], len);
            self.core.publish(pool, addr[0], len);
        }
        let cid = self.state.take_cid();
        let cmd = build(cid, self.host as u32, addr);
        if !self.links[li].send(&mut self.core, pool, &cmd) {
            self.free_rev(&addr[..bufs]);
            return self.refuse();
        }
        self.stats.submitted += 1;
        self.state.submitted(cmd, dev, self.core.clock);
        Some(cid)
    }

    /// Return buffers in reverse allocation order, restoring the free
    /// list's LIFO order exactly.
    fn free_rev(&mut self, addrs: &[u64]) {
        for &a in addrs.iter().rev() {
            self.data_area.free(a);
        }
    }

    /// Copy the `readback` range out of the pool, then invalidate a
    /// finished command's buffer lines and return the buffers for reuse.
    /// The device DMA'd the result into the pool, so any line of it still
    /// cached here is stale by definition; and the next user's data arrives
    /// the same way, so any line left cached — in particular the clean
    /// copies `clwb` keeps after staging — would read back stale (§3.2.1
    /// software coherence).
    fn release(
        &mut self,
        pool: &mut CxlPool,
        cmd: &C::Command,
        readback: Option<(u64, u64)>,
    ) -> Option<Vec<u8>> {
        let invalidate = !self.skip_release_invalidate;
        let mut bufs = C::buffers(cmd).into_iter().flatten().peekable();
        let data = readback.map(|(addr, len)| {
            self.core.expect_fresh(pool, addr, len);
            let mut out = vec![0u8; len as usize];
            if invalidate && bufs.peek() == Some(&(addr, len)) {
                // The buffer read back is the first one flushed (a storage
                // read's only one): copying and invalidating it in one call
                // leaves every flush in its place.
                self.core.read_flush(pool, addr, &mut out);
                self.data_area.free(addr);
                bufs.next();
            } else {
                self.core.read_stream(pool, addr, &mut out);
            }
            out
        });
        for (addr, len) in bufs {
            if invalidate {
                self.core.clflushopt_range(pool, addr, len);
            }
            self.data_area.free(addr);
        }
        data
    }

    /// Carry out one [`FeCore`] decision.
    fn apply(&mut self, pool: &mut CxlPool, action: FeAction<C>) {
        let (p, outcome, exhausted) = match action {
            FeAction::Wait => return,
            FeAction::Resend(dev, cmd) => {
                self.stats.retries += 1;
                // A full channel is fine: the armed deadline fires again.
                if let Some(li) = Link::find(&self.links, dev) {
                    self.links[li].send(&mut self.core, pool, &cmd);
                }
                return;
            }
            FeAction::Deliver(p, outcome) => (p, outcome, false),
            FeAction::Fail(p) => (p, Outcome::new(C::FAILED, 0), true),
        };
        let ok = outcome.status == C::OK;
        let data = self.release(pool, &p.cmd, C::readback(&p.cmd).filter(|_| ok));
        self.stats.completed += 1;
        #[cfg(feature = "obs")]
        self.service_ns
            .record((self.core.clock - p.issued).as_nanos());
        self.stats.errors += u64::from(!ok);
        self.stats.retry_exhausted += u64::from(exhausted);
        let cid = C::cmd_ids(&p.cmd).0;
        self.done.push(C::result(cid, outcome, data));
    }

    /// One polling round: drain completion channels, then let expired
    /// retry deadlines resubmit or fail their commands.
    pub fn step(&mut self, pool: &mut CxlPool) {
        self.core.advance(self.driver_loop_ns);
        for li in 0..self.links.len() {
            while let Some(got) = self.links[li].recv::<C::Completion>(&mut self.core, pool) {
                let Some(comp) = got else { continue };
                let (cid, _, outcome) = C::split(&comp);
                let action = self.state.on_completion(cid, outcome, self.core.clock);
                self.apply(pool, action);
            }
            self.links[li].from.publish_consumed(&mut self.core, pool);
        }
        let now = self.core.clock;
        for cid in self.state.expired(now) {
            let action = self.state.on_expiry(cid, now);
            self.apply(pool, action);
        }
    }

    /// After a host restart, rearm and resubmit every in-flight command.
    /// The backend's dedup cache answers already-executed replays, so none
    /// of them runs twice.
    pub fn replay_pending(&mut self, pool: &mut CxlPool) {
        let now = self.core.clock;
        for cid in self.state.in_flight() {
            let action = self.state.on_replay(cid, now);
            self.apply(pool, action);
        }
    }

    /// Take the results completed since the last call.
    pub fn take_completions(&mut self) -> Vec<C::Result> {
        std::mem::take(&mut self.done)
    }

    /// Commands still in flight.
    pub fn in_flight(&self) -> usize {
        self.state.pending.len()
    }
}

impl<C: ReqClass> Snapshottable for ReqFrontend<C> {
    /// In-flight commands serialize as their full wire descriptor plus
    /// routing and retry state. The `issued` slot is written
    /// unconditionally (zero without the `obs` feature) so the byte format
    /// is feature-independent. The service histogram is a pure observer
    /// and is excluded.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        for v in self.stats.clone().fields() {
            w.put_u64(*v);
        }
        w.put_u16(self.state.next_cid);
        let cids = self.state.in_flight();
        w.put_u64(cids.len() as u64);
        let mut wire = [0u8; 64];
        for (cid, p) in cids
            .iter()
            .filter_map(|c| Some((c, self.state.pending.get(c)?)))
        {
            w.put_u16(*cid);
            p.cmd.encode_into(&mut wire);
            w.put_bytes(&wire[..C::Command::WIRE_SIZE]);
            w.put_u64(p.dev as u64);
            let (attempts, deadline, wait) = p.retry.to_parts();
            w.put_u32(attempts);
            w.put_u64(deadline.as_nanos());
            w.put_u64(wait.as_nanos());
            let issued = p.issued.as_nanos();
            w.put_u64(if cfg!(feature = "obs") { issued } else { 0 });
        }
        w.put_u64(self.done.len() as u64);
        for res in &self.done {
            let (cid, outcome, data) = C::result_parts(res);
            w.put_u16(cid);
            put_outcome::<C>(w, outcome);
            w.put_bool(data.is_some());
            if let Some(data) = data {
                w.put_bytes(data);
            }
        }
        self.data_area.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.core.clock = SimTime(r.u64(C::NAME)?);
        for v in self.stats.fields() {
            *v = r.u64(C::NAME)?;
        }
        self.state.next_cid = r.u16(C::NAME)?;
        self.state.pending.clear();
        for _ in 0..r.u64(C::NAME)? {
            let cid = r.u16(C::NAME)?;
            let blob = r.bytes(C::NAME)?;
            let cmd = (blob.len() == C::Command::WIRE_SIZE)
                .then(|| C::Command::decode_from(blob))
                .flatten()
                .filter(|cmd| C::cmd_ids(cmd).0 == cid)
                .ok_or(SnapshotError::Corrupt("pending command"))?;
            let dev = r.u64(C::NAME)? as usize;
            let attempts = r.u32(C::NAME)?;
            let deadline = SimTime(r.u64(C::NAME)?);
            let wait = SimDuration::from_nanos(r.u64(C::NAME)?);
            let retry = RetryState::from_parts(attempts, deadline, wait);
            let issued = SimTime(r.u64(C::NAME)?);
            let p = Pending {
                cmd,
                dev,
                retry,
                issued,
            };
            self.state.pending.insert(cid, p);
        }
        self.done.clear();
        for _ in 0..r.u64(C::NAME)? {
            let cid = r.u16(C::NAME)?;
            let outcome = get_outcome::<C>(r)?;
            let data = if r.bool(C::NAME)? {
                Some(r.bytes(C::NAME)?.to_vec())
            } else {
                None
            };
            self.done.push(C::result(cid, outcome, data));
        }
        self.data_area.restore_state(r)
    }
}

impl<C: ReqClass> DeviceEngine for ReqFrontend<C> {
    fn host(&self) -> usize {
        self.host
    }
    fn core(&self) -> &HostCtx {
        &self.core
    }
    fn core_mut(&mut self) -> &mut HostCtx {
        &mut self.core
    }
    fn poll(&mut self, world: &mut EngineWorld) -> Vec<(SimTime, Frame)> {
        self.step(world.pool);
        Vec::new()
    }
    /// One empty poll per completion channel; the retry deadlines of the
    /// commands in flight are the timers.
    fn idle_round(&self, pool: &CxlPool, _: &[Nic], _: &[Instance]) -> Option<IdleRound> {
        let channels = Link::channels(&self.links);
        let due = self.state.next_deadline().unwrap_or(SimTime::MAX);
        empty_round(&self.core, pool, self.driver_loop_ns, channels, due)
    }
    fn polled(&mut self, each: &mut dyn FnMut(&mut Receiver)) {
        self.links.iter_mut().map(|l| &mut l.from).for_each(each);
    }
    fn on_fault(&mut self, fault: EngineFault, pool: &mut CxlPool) {
        // §3.4: after a host restart, commands that were in flight when the
        // host crashed are replayed.
        if fault == EngineFault::HostRestart {
            self.replay_pending(pool);
        }
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        let t = self.host as u32;
        for (name, v) in C::METRICS.into_iter().zip(self.stats.clone().fields()) {
            sink.set(name, t, *v);
        }
        sink.set(C::METRICS[6], t, self.in_flight() as u64);
        #[cfg(feature = "obs")]
        sink.merge_hist(C::METRICS[7], t, &self.service_ns);
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

/// Backend counters.
#[derive(Clone, Debug, Default)]
pub struct ReqBeStats {
    /// Commands forwarded to the device.
    pub forwarded: u64,
    /// Commands refused by a full submission queue and bounced with an
    /// error.
    pub sq_full: u64,
    /// Completions returned to frontends.
    pub completions: u64,
    /// Replayed commands answered from the completion cache instead of
    /// being re-executed.
    pub replays_answered: u64,
}

impl ReqBeStats {
    /// Every counter, in snapshot and metric-table order.
    fn fields(&mut self) -> [&mut u64; 4] {
        [
            &mut self.forwarded,
            &mut self.sq_full,
            &mut self.completions,
            &mut self.replays_answered,
        ]
    }
}

/// The backend driver of a request/response class: runs only on the host
/// its device is attached to (§3.4), one dedicated polling core operating
/// the device's queues through the native driver.
pub struct ReqBackend<C: ReqClass> {
    /// Index of the device among the pod's devices of this class.
    pub dev_id: usize,
    /// The host the device is attached to.
    pub host: usize,
    /// The polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: ReqBeStats,
    /// The device.
    pub device: C::Device,
    driver_loop_ns: u64,
    links: Vec<Link>,
    /// Exactly-once memory per frontend link, parallel to `links`.
    caches: Vec<DedupCache<C>>,
}

impl<C: ReqClass> ReqBackend<C> {
    /// Create the backend driving `device`, attached to `host`.
    pub fn new(
        dev_id: usize,
        host: usize,
        core: HostCtx,
        cfg: &OasisConfig,
        device: C::Device,
    ) -> Self {
        ReqBackend {
            dev_id,
            host,
            core,
            stats: ReqBeStats::default(),
            device,
            driver_loop_ns: cfg.driver_loop_ns,
            links: Vec::new(),
            caches: Vec::new(),
        }
    }

    /// Wire a channel pair to the frontend on `fe_host`.
    pub fn add_link(&mut self, fe_host: usize, to: Sender, from: Receiver) {
        self.links.push(Link {
            peer: fe_host,
            to,
            from,
        });
        self.caches.push(DedupCache::new(DEDUP_WINDOW));
    }

    fn send_completion(&mut self, pool: &mut CxlPool, comp: C::Completion) {
        if let Some(li) = Link::find(&self.links, C::split(&comp).1 as usize) {
            if self.links[li].send(&mut self.core, pool, &comp) {
                self.stats.completions += 1;
            }
        }
    }

    /// One polling round: commands in, completions out. The backend never
    /// touches payload buffers — the device DMAs them directly (§3.2.1).
    pub fn step(&mut self, pool: &mut CxlPool) {
        self.core.advance(self.driver_loop_ns);

        // Frontend commands → device submission queue.
        for li in 0..self.links.len() {
            while let Some(got) = self.links[li].recv::<C::Command>(&mut self.core, pool) {
                let Some(cmd) = got else { continue };
                let (cid, frontend) = C::cmd_ids(&cmd);
                if let Some(outcome) = self.caches[li].lookup(cid) {
                    // Already executed: answer from the cache, never
                    // re-execute.
                    self.stats.replays_answered += 1;
                    self.send_completion(pool, C::completion(cid, frontend, outcome));
                } else if C::submit(&mut self.device, self.core.clock, cmd) {
                    self.stats.forwarded += 1;
                } else {
                    // Bounce with an error so the frontend can retry.
                    self.stats.sq_full += 1;
                    let bounce = C::completion(cid, frontend, Outcome::new(C::FAILED, 0));
                    self.send_completion(pool, bounce);
                }
            }
        }

        // Drive the device.
        let clock = self.core.clock;
        C::process(&mut self.device, clock, &mut PoolDma::new(pool, &self.core));

        // Device completions → frontends (including error statuses from a
        // failed device, which the engine simply propagates, §3.4).
        for comp in C::poll_completions(&mut self.device, self.core.clock) {
            let (cid, frontend, outcome) = C::split(&comp);
            if let Some(li) = Link::find(&self.links, frontend as usize) {
                self.caches[li].record(cid, outcome);
            }
            self.send_completion(pool, comp);
        }

        for link in &mut self.links {
            link.from.publish_consumed(&mut self.core, pool);
        }
    }
}

impl<C: ReqClass> Snapshottable for ReqBackend<C> {
    /// The exactly-once substrate serializes per frontend link: the dedup
    /// window (as its eviction-ordered id list) and the completion cache
    /// answering replays, sorted by command id for byte stability.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        for v in self.stats.clone().fields() {
            w.put_u64(*v);
        }
        w.put_u64(self.links.len() as u64);
        for (link, cache) in self.links.iter().zip(&self.caches) {
            w.put_u64(link.peer as u64);
            let (capacity, order, dup_hits) = cache.seen.to_parts();
            w.put_u64(capacity as u64);
            w.put_u64(order.len() as u64);
            for seq in order {
                w.put_u16(seq);
            }
            w.put_u64(dup_hits);
            w.put_u64(cache.done.len() as u64);
            for cid in sorted(cache.done.keys().copied()) {
                w.put_u16(cid);
                put_outcome::<C>(w, cache.done[&cid]);
            }
        }
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.core.clock = SimTime(r.u64(C::NAME)?);
        for v in self.stats.fields() {
            *v = r.u64(C::NAME)?;
        }
        if r.u64(C::NAME)? != self.links.len() as u64 {
            return Err(SnapshotError::Corrupt("backend link count"));
        }
        for (link, cache) in self.links.iter().zip(&mut self.caches) {
            if r.u64(C::NAME)? != link.peer as u64 {
                return Err(SnapshotError::Corrupt("backend link identity"));
            }
            // The window capacity is construction-time config: it must
            // match the identically built target, which also bounds the
            // allocation below against a corrupted length field.
            let capacity = cache.seen.capacity();
            if r.u64(C::NAME)? != capacity as u64 {
                return Err(SnapshotError::Corrupt("dedup window capacity"));
            }
            let order_len = r.u64(C::NAME)?;
            if order_len > capacity as u64 {
                return Err(SnapshotError::Corrupt("dedup window length"));
            }
            let mut order = Vec::with_capacity(order_len as usize);
            for _ in 0..order_len {
                order.push(r.u16(C::NAME)?);
            }
            cache.seen = SeqWindow::from_parts(capacity, &order, r.u64(C::NAME)?);
            cache.done.clear();
            for _ in 0..r.u64(C::NAME)? {
                let cid = r.u16(C::NAME)?;
                cache.done.insert(cid, get_outcome::<C>(r)?);
            }
        }
        Ok(())
    }
}

impl<C: ReqClass> DeviceEngine for ReqBackend<C> {
    fn host(&self) -> usize {
        self.host
    }
    fn core(&self) -> &HostCtx {
        &self.core
    }
    fn core_mut(&mut self) -> &mut HostCtx {
        &mut self.core
    }
    fn poll(&mut self, world: &mut EngineWorld) -> Vec<(SimTime, Frame)> {
        self.step(world.pool);
        Vec::new()
    }
    /// One empty poll per command channel; the device's next start,
    /// retirement or drainable completion is the timer.
    fn idle_round(&self, pool: &CxlPool, _: &[Nic], _: &[Instance]) -> Option<IdleRound> {
        let channels = Link::channels(&self.links);
        let due = C::next_event(&self.device).unwrap_or(SimTime::MAX);
        empty_round(&self.core, pool, self.driver_loop_ns, channels, due)
    }
    fn polled(&mut self, each: &mut dyn FnMut(&mut Receiver)) {
        self.links.iter_mut().map(|l| &mut l.from).for_each(each);
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        let t = self.dev_id as u32;
        let names = C::METRICS[8..].iter().copied();
        for (name, v) in names.zip(self.stats.clone().fields()) {
            sink.set(name, t, *v);
        }
        // Duplicate completions the per-link dedup windows rejected.
        let drops = self.caches.iter().map(|c| c.seen.dup_hits).sum();
        sink.set(oasis_channel::metrics::DEDUP_DROPS, t, drops);
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}

// ---------------------------------------------------------------------------
// Two-core harness
// ---------------------------------------------------------------------------

/// A minimal two-host pod for tests and microbenchmarks: instances on host
/// 0 reach a device attached to host 1 through one frontend and one
/// backend of class `C`.
pub struct ReqPair<C: ReqClass> {
    /// Shared pool.
    pub pool: CxlPool,
    /// Frontend driver (host 0).
    pub frontend: ReqFrontend<C>,
    /// Backend driver (host 1), owning the device.
    pub backend: ReqBackend<C>,
}

impl<C: ReqClass> ReqPair<C> {
    /// Build the pair around `device`. `data_buf_size` bounds the largest
    /// single payload; the frontend gets 64 such buffers.
    pub fn new(cfg: OasisConfig, device: C::Device, data_buf_size: u64) -> Self {
        let mut pool = CxlPool::new(32 << 20, 2);
        let mut ra = RegionAllocator::new(&pool);
        let name = format!("{}.fe0.data", C::NAME);
        let data = ra.alloc(&mut pool, name, data_buf_size * 64, TrafficClass::Payload);
        let cmd = alloc_descriptor_channel::<C::Command>(&mut pool, &mut ra, "fe0->be0.cmd", 1024);
        let cpl =
            alloc_descriptor_channel::<C::Completion>(&mut pool, &mut ra, "be0->fe0.cpl", 1024);

        let area = BufferArea::new(data, data_buf_size);
        let mut frontend = ReqFrontend::new(0, HostCtx::new(PortId(0), 0), &cfg, area);
        frontend.add_link(0, cmd.sender, cpl.receiver);
        let mut backend = ReqBackend::new(0, 1, HostCtx::new(PortId(1), 0), &cfg, device);
        backend.add_link(0, cpl.sender, cmd.receiver);
        ReqPair {
            pool,
            frontend,
            backend,
        }
    }

    /// Co-simulate until both cores pass `until`.
    pub fn run(&mut self, until: SimTime) {
        loop {
            let fe = self.frontend.core.clock;
            let be = self.backend.core.clock;
            if fe >= until && be >= until {
                break;
            }
            if fe <= be && fe < until {
                self.frontend.step(&mut self.pool);
            } else {
                self.backend.step(&mut self.pool);
            }
        }
    }

    /// Run until `n` completions have arrived (with a simulated-time cap).
    pub fn run_until_completions(&mut self, n: usize, cap: SimTime) -> Vec<C::Result> {
        let mut out = Vec::new();
        while out.len() < n {
            assert!(
                self.frontend.core.clock < cap,
                "{} pair stalled waiting for completions ({}/{n})",
                C::NAME,
                out.len()
            );
            let next =
                self.frontend.core.clock.max(self.backend.core.clock) + SimDuration::from_micros(5);
            self.run(next);
            out.extend(self.frontend.take_completions());
        }
        out
    }
}
