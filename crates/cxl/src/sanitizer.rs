//! Coherence sanitizer: shadow-state tracking of every memory operation.
//!
//! The pool is *non-coherent by design* (§3.2): a host that skips a
//! `clflushopt`/`mfence` really reads stale data, and the only thing
//! standing between the datapath and silent corruption is the software
//! coherence discipline the drivers follow. Chaos testing found exactly one
//! such bug (PR 2: reused DMA buffers keeping clean cached lines) — by
//! chance. This module catches that class of bug systematically.
//!
//! A pool runs one when it is built with [`crate::CxlPool::sanitized`]
//! (a pod asks for it with `PodBuilder::sanitize`). The [`Sanitizer`] then
//! lives inside [`crate::CxlPool`] and observes every [`crate::HostCtx`]
//! operation (read/write/clwb/clflushopt/mfence/prefetch), every posted
//! write-back, every DMA transfer, and every polling round a parked engine
//! is charged in closed form instead of running. It is a **pure
//! observer**: it never touches host clocks, link meters, or pool memory,
//! so simulation results are bit-identical with it on or off — only
//! wall-clock time changes. Off, each hook is one untaken branch.
//!
//! ## Shadow state
//!
//! Per 64 B line the sanitizer keeps a *version* (a global epoch counter
//! bumped whenever new data becomes visible in pool memory: a write-back
//! applying, or a device DMA write), the identity of the writer, and the
//! line's still-in-flight posted write-backs. Per (line, host) it keeps the
//! version the host's cached snapshot reflects and the host's last
//! operation on the line; per host it keeps flush/fence ordering counters.
//! Presence and dirtiness are never mirrored — they are queried live from
//! the real [`crate::HostCache`] at the annotation points, so the shadow
//! can not drift from the cache it describes.
//!
//! ## Detectors
//!
//! Two kinds of check sites exist. *Implicit* sites fire on the ops
//! themselves: double-flush waste and no-op fences. *Annotated* sites fire
//! where driver code declares its coherence intent via
//! [`crate::HostCtx::publish`] / [`crate::HostCtx::publish_fenced`] /
//! [`crate::HostCtx::expect_fresh`]: unflushed publishes, missing fences
//! before doorbells, cross-host stale reads, and reads of torn/in-flight
//! write-back lines. Polling reads (channel receivers spinning on an epoch
//! bit) are *not* annotated — reading a stale line and retrying is the
//! protocol working as designed, so only declared acquire points are
//! checked for staleness.
//!
//! Parked polling rounds are the one exception: nobody runs them, so the
//! sanitizer checks the parking proof's claim (DESIGN.md §7.3) that they
//! would have found the line as the poller last fetched it
//! ([`Sanitizer::on_charged_polls`]).

use oasis_sim::detmap::DetMap;
use oasis_sim::time::SimTime;

use crate::line_base;
use crate::pool::PortId;

/// What a diagnostic is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReportKind {
    /// An annotated acquire point read a present cache line whose snapshot
    /// predates the current pool contents (or whose dirty local data masks
    /// a newer remote write).
    StaleRead,
    /// An annotated acquire point read a line with another host's
    /// write-back still in flight: the bytes observed are about to change.
    TornRead,
    /// A device DMA read covered a line with a CPU write-back still in
    /// flight — the device sees pre-write-back data.
    TornDmaRead,
    /// An annotated publish point covered a line still dirty in the
    /// publishing host's cache: receivers/devices can never see the data.
    UnflushedPublish,
    /// A fenced publish point (doorbell) was reached with a flush not yet
    /// covered by an `mfence`: the doorbell can overtake the data.
    MissingFence,
    /// A flush (`clwb`/`clflushopt`) of a line that the same kind of flush
    /// already cleaned, with no intervening access — wasted CPU.
    DoubleFlush,
    /// An `mfence` with no flush issued since the last fence and no own
    /// write-backs in flight — wasted CPU.
    NoopFence,
    /// A parked poller was charged empty polls of a line that changed
    /// since it last fetched it, by a post that did not wake it: a real
    /// poll would have read the new bytes, so the engine slept through its
    /// input.
    ParkedMissedWrite,
}

impl ReportKind {
    /// Stable label used in rendered reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ReportKind::StaleRead => "stale-read",
            ReportKind::TornRead => "torn-read",
            ReportKind::TornDmaRead => "torn-dma-read",
            ReportKind::UnflushedPublish => "unflushed-publish",
            ReportKind::MissingFence => "missing-fence",
            ReportKind::DoubleFlush => "double-flush",
            ReportKind::NoopFence => "noop-fence",
            ReportKind::ParkedMissedWrite => "parked-missed-write",
        }
    }

    /// Errors are coherence-protocol violations; warnings are wasted work.
    pub(crate) fn severity(self) -> Severity {
        match self {
            ReportKind::StaleRead
            | ReportKind::TornRead
            | ReportKind::TornDmaRead
            | ReportKind::UnflushedPublish
            | ReportKind::MissingFence
            | ReportKind::ParkedMissedWrite => Severity::Error,
            ReportKind::DoubleFlush | ReportKind::NoopFence => Severity::Warning,
        }
    }
}

/// Report severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A coherence violation: some agent observed (or published) wrong
    /// bytes relative to the declared protocol intent.
    Error,
    /// Wasted work (correct but needlessly slow).
    Warning,
}

/// One diagnostic, carrying everything needed to localize the bug.
#[derive(Clone, Debug)]
pub struct Report {
    /// Detector that fired.
    pub kind: ReportKind,
    /// Error or warning.
    pub severity: Severity,
    /// Host (CXL port) whose operation triggered the report.
    pub port: PortId,
    /// Pool address (line base) involved.
    pub addr: u64,
    /// Name of the region the address falls in, if registered.
    pub region: Option<String>,
    /// Simulated time of the triggering operation (the host's local clock).
    pub time: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} host{} addr={:#x} region={} t={}ns: {}",
            match self.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "warn",
            },
            self.kind.label(),
            self.port.0,
            self.addr,
            self.region.as_deref().unwrap_or("?"),
            self.time.as_nanos(),
            self.detail
        )
    }
}

/// The last thing a host did to a line (shadow granularity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum LastOp {
    #[default]
    None,
    /// Demand or RFO fill, streaming fill.
    Fill,
    /// Asynchronous prefetch fill.
    Prefetch,
    /// Cached read hit.
    Read,
    /// Local store.
    Write,
    /// `clwb` (line kept cached).
    Clwb,
    /// `clflushopt` (line evicted).
    Clflush,
}

/// Who last made pool memory at a line visible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Writer {
    /// Initial zeroed memory (or test `poke`).
    Init,
    /// A CPU write-back from this port applied.
    Host(PortId),
    /// A device DMA write through this port.
    Dma(PortId),
}

/// Per-(line, host) shadow entry. Slots whose `gen` predates the host's
/// current generation (bumped on crash/restart cache drops) are treated as
/// empty.
#[derive(Clone, Copy, Debug, Default)]
struct PortSnap {
    gen: u32,
    /// Line version the host's cached snapshot reflects.
    snap: u64,
    /// Last op this host performed on the line.
    last_op: LastOp,
    /// Host op-sequence number of the last flush of this line.
    flush_op: u64,
    /// Line version the host last fetched, whatever became of the copy
    /// since: what its pollers know the line holds. Survives a crash.
    seen: u64,
}

/// Per-line shadow state.
struct LineShadow {
    /// Version of the bytes currently visible in pool memory.
    ver: u64,
    /// Whether their post woke the line's watcher
    /// ([`Sanitizer::on_watched_post`]).
    announced: bool,
    /// Who produced them.
    writer: Writer,
    /// Posted write-backs not yet visible: (posting port, visible_at,
    /// announced).
    pending: Vec<(PortId, SimTime, bool)>,
    /// Per-port snapshot info, indexed by port number.
    snaps: Vec<PortSnap>,
}

impl LineShadow {
    fn new(ports: usize) -> Self {
        LineShadow {
            ver: 0,
            announced: false,
            writer: Writer::Init,
            pending: Vec::new(),
            snaps: vec![PortSnap::default(); ports],
        }
    }
}

/// Per-host ordering counters.
#[derive(Clone, Debug, Default)]
struct HostShadow {
    /// Monotone per-host operation counter (orders flushes vs fences).
    op_seq: u64,
    /// `op_seq` at the last `mfence`.
    last_fence_op: u64,
    /// Flushes issued since the last fence.
    flushes_since_fence: u64,
    /// Generation; bumped when the host's cache is dropped (crash) so stale
    /// per-line snapshots are ignored.
    gen: u32,
}

/// Cap on stored reports; repeats of an already-seen (kind, port, line) key
/// and anything past the cap are counted but not stored.
const MAX_REPORTS: usize = 1024;

/// The shadow-state tracker. Owned by a [`crate::CxlPool`] built
/// [`crate::CxlPool::sanitized`].
pub struct Sanitizer {
    ports: usize,
    lines: DetMap<u64, LineShadow>,
    hosts: Vec<HostShadow>,
    /// Region name registry: (base, end, name), sorted by base, disjoint.
    regions: Vec<(u64, u64, String)>,
    /// Global visibility epoch counter.
    next_ver: u64,
    reports: Vec<Report>,
    /// (kind, port, line) keys already reported (dedup).
    seen: DetMap<(ReportKind, usize, u64), u64>,
    errors: u64,
    warnings: u64,
    /// Reports dropped past [`MAX_REPORTS`] (still counted above).
    dropped: u64,
    /// Empty polls charged to parked engines and checked.
    charged_polls: u64,
}

impl Sanitizer {
    /// Tracker for a pool with `ports` host ports.
    pub fn new(ports: usize) -> Self {
        Sanitizer {
            ports,
            lines: DetMap::default(),
            hosts: vec![HostShadow::default(); ports],
            regions: Vec::new(),
            next_ver: 0,
            reports: Vec::new(),
            seen: DetMap::default(),
            errors: 0,
            warnings: 0,
            dropped: 0,
            charged_polls: 0,
        }
    }

    // -- registry -----------------------------------------------------------

    /// Record a region name for diagnostics (called on region allocation;
    /// reused ranges are re-registered under their new name).
    pub(crate) fn note_region(&mut self, base: u64, end: u64, name: &str) {
        // Drop anything overlapping the new range (reuse renames it).
        self.regions.retain(|&(b, e, _)| e <= base || b >= end);
        let idx = self.regions.partition_point(|&(b, _, _)| b < base);
        self.regions.insert(idx, (base, end, name.to_string()));
    }

    fn region_of(&self, addr: u64) -> Option<String> {
        let idx = self.regions.partition_point(|&(b, _, _)| b <= addr);
        let (_, e, name) = self.regions.get(idx.checked_sub(1)?)?;
        (addr < *e).then(|| name.clone())
    }

    // -- report plumbing ----------------------------------------------------

    fn report(&mut self, kind: ReportKind, port: PortId, addr: u64, time: SimTime, detail: String) {
        match kind.severity() {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
        }
        let key = (kind, port.0, line_base(addr));
        let n = self.seen.entry(key).or_insert(0);
        *n += 1;
        if *n > 1 || self.reports.len() >= MAX_REPORTS {
            self.dropped += 1;
            return;
        }
        let region = self.region_of(addr);
        self.reports.push(Report {
            kind,
            severity: kind.severity(),
            port,
            addr,
            region,
            time,
            detail,
        });
    }

    /// Stored reports (deduplicated by (kind, host, line), capped).
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Total error-severity findings (including deduplicated repeats).
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// Total warning-severity findings (including deduplicated repeats).
    pub fn warning_count(&self) -> u64 {
        self.warnings
    }

    /// Empty polls charged to parked engines and checked so far
    /// ([`Self::on_charged_polls`]).
    pub fn charged_polls(&self) -> u64 {
        self.charged_polls
    }

    /// Findings of one kind stored so far.
    pub fn count_of(&self, kind: ReportKind) -> u64 {
        self.seen
            .iter()
            .filter(|((k, _, _), _)| *k == kind)
            .map(|(_, n)| *n)
            .sum()
    }

    /// One-line summary for harness logs.
    pub fn summary(&self) -> String {
        format!(
            "sanitizer: {} error(s), {} warning(s), {} report(s) stored, {} deduplicated",
            self.errors,
            self.warnings,
            self.reports.len(),
            self.dropped
        )
    }

    fn line_mut(&mut self, la: u64) -> &mut LineShadow {
        let ports = self.ports;
        self.lines
            .entry(la)
            .or_insert_with(|| LineShadow::new(ports))
    }

    fn snap_mut<'a>(
        sh: &'a mut LineShadow,
        hosts: &[HostShadow],
        port: PortId,
    ) -> &'a mut PortSnap {
        let s = &mut sh.snaps[port.0];
        if s.gen != hosts[port.0].gen {
            *s = PortSnap {
                gen: hosts[port.0].gen,
                seen: s.seen,
                ..PortSnap::default()
            };
        }
        s
    }

    // -- op hooks (called from HostCtx / CxlPool) ---------------------------

    /// A demand/RFO/stream fill installed fresh pool bytes in `port`'s
    /// cache.
    pub(crate) fn on_fill(&mut self, port: PortId, la: u64) {
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        let ver = sh.ver;
        let s = Self::snap_mut(sh, &hosts, port);
        s.snap = ver;
        s.seen = ver;
        s.last_op = LastOp::Fill;
        self.hosts = hosts;
    }

    /// An asynchronous prefetch fill (same snapshot semantics as a fill).
    pub(crate) fn on_prefetch_fill(&mut self, port: PortId, la: u64) {
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        let ver = sh.ver;
        let s = Self::snap_mut(sh, &hosts, port);
        s.snap = ver;
        s.seen = ver;
        s.last_op = LastOp::Prefetch;
        self.hosts = hosts;
    }

    /// A cached read hit.
    pub(crate) fn on_read_hit(&mut self, port: PortId, la: u64) {
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        Self::snap_mut(sh, &hosts, port).last_op = LastOp::Read;
        self.hosts = hosts;
    }

    /// A local store into the cache.
    pub(crate) fn on_write(&mut self, port: PortId, la: u64) {
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        Self::snap_mut(sh, &hosts, port).last_op = LastOp::Write;
        self.hosts = hosts;
    }

    /// A `clwb`. `was_dirty` is the line's dirtiness before the write-back.
    pub(crate) fn on_clwb(&mut self, port: PortId, la: u64, was_dirty: bool, now: SimTime) {
        self.hosts[port.0].op_seq += 1;
        self.hosts[port.0].flushes_since_fence += 1;
        let op = self.hosts[port.0].op_seq;
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        let s = Self::snap_mut(sh, &hosts, port);
        let double = !was_dirty && s.last_op == LastOp::Clwb;
        s.last_op = LastOp::Clwb;
        s.flush_op = op;
        self.hosts = hosts;
        if double {
            self.report(
                ReportKind::DoubleFlush,
                port,
                la,
                now,
                "clwb of a clean line already written back, no access in between".into(),
            );
        }
    }

    /// A `clflushopt`. `was_present`/`was_dirty` describe the line before.
    pub(crate) fn on_clflush(
        &mut self,
        port: PortId,
        la: u64,
        was_present: bool,
        was_dirty: bool,
        now: SimTime,
    ) {
        self.hosts[port.0].op_seq += 1;
        self.hosts[port.0].flushes_since_fence += 1;
        let op = self.hosts[port.0].op_seq;
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        let s = Self::snap_mut(sh, &hosts, port);
        let double = (!was_present || !was_dirty) && s.last_op == LastOp::Clflush;
        s.last_op = LastOp::Clflush;
        s.flush_op = op;
        s.snap = 0;
        self.hosts = hosts;
        if double {
            self.report(
                ReportKind::DoubleFlush,
                port,
                la,
                now,
                "clflushopt of a line the previous clflushopt already evicted".into(),
            );
        }
    }

    /// An `mfence`. `had_inflight` is whether the host had own posted
    /// write-backs not yet visible when the fence was issued.
    pub(crate) fn on_fence(&mut self, port: PortId, had_inflight: bool, now: SimTime) {
        let h = &mut self.hosts[port.0];
        h.op_seq += 1;
        let noop = h.flushes_since_fence == 0 && !had_inflight;
        h.last_fence_op = h.op_seq;
        h.flushes_since_fence = 0;
        if noop {
            self.report(
                ReportKind::NoopFence,
                port,
                0,
                now,
                "mfence with no flush since the last fence and no write-backs in flight".into(),
            );
        }
    }

    /// A write-back was posted (clwb/clflushopt/eviction).
    pub(crate) fn on_post_writeback(&mut self, port: PortId, la: u64, visible_at: SimTime) {
        self.line_mut(la).pending.push((port, visible_at, false));
    }

    /// `port`'s write-back just posted into `[start, end)` woke the range's
    /// watcher, a parked poller ([`crate::CxlPool::watch`]): the versions
    /// it lands are announced to the poller.
    pub(crate) fn on_watched_post(&mut self, port: PortId, start: u64, end: u64) {
        for la in crate::lines_covering(start, end - start) {
            let Some(sh) = self.lines.get_mut(&la) else {
                continue;
            };
            if let Some(p) = sh.pending.iter_mut().rev().find(|p| p.0 == port) {
                p.2 = true;
            }
        }
    }

    /// A posted write-back reached visibility and was applied to memory.
    pub(crate) fn on_apply_writeback(&mut self, port: PortId, la: u64) {
        self.next_ver += 1;
        let ver = self.next_ver;
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        sh.announced = match sh.pending.iter().position(|&(p, _, _)| p == port) {
            Some(i) => sh.pending.remove(i).2,
            None => false,
        };
        sh.ver = ver;
        sh.writer = Writer::Host(port);
        // The applied bytes are the poster's own: its cached copy (if it
        // still holds one) now matches pool memory.
        let s = Self::snap_mut(sh, &hosts, port);
        s.snap = ver;
        s.seen = ver;
        self.hosts = hosts;
    }

    /// A device DMA write made new bytes visible on `[addr, addr+len)`.
    pub(crate) fn on_dma_write(&mut self, port: PortId, addr: u64, len: u64) {
        for la in crate::lines_covering(addr, len) {
            self.next_ver += 1;
            let ver = self.next_ver;
            let sh = self.line_mut(la);
            sh.ver = ver;
            sh.announced = false;
            sh.writer = Writer::Dma(port);
        }
    }

    /// `n` empty polls of line `la` by `port`, fetching at `first_at`,
    /// `first_at + every_ns`, …, charged to a parked engine instead of run.
    /// They read what the port last fetched unless the line changed since;
    /// a change is reported unless its post woke the poller, whose charged
    /// rounds then end where the post was made. Versions decide, not
    /// instants: a landing is visible to every later fetch in dispatch
    /// order, whatever that fetch's clock says (DESIGN.md §7.3 *(c)*).
    pub(crate) fn on_charged_polls(
        &mut self,
        port: PortId,
        la: u64,
        n: u64,
        first_at: SimTime,
        every_ns: u64,
    ) {
        self.charged_polls += n;
        let Some(sh) = self.lines.get(&la) else {
            return; // never written
        };
        let seen = sh.snaps[port.0].seen;
        if n > 0 && sh.ver != seen && !sh.announced {
            let detail = format!(
                "{n} empty poll(s) from {}ns every {every_ns}ns, but v{} ({}) replaced the \
                 v{seen} last fetched without waking the poller",
                first_at.as_nanos(),
                sh.ver,
                writer_str(sh.writer),
            );
            self.report(ReportKind::ParkedMissedWrite, port, la, first_at, detail);
        }
    }

    /// A device DMA read of `[addr, addr+len)` at `now`: flag lines whose
    /// posted write-backs have not reached visibility (the device observes
    /// pre-write-back bytes that are about to change underneath it).
    pub(crate) fn on_dma_read(&mut self, port: PortId, addr: u64, len: u64, now: SimTime) {
        if self.lines.is_empty() {
            return;
        }
        for la in crate::lines_covering(addr, len) {
            let Some(sh) = self.lines.get(&la) else {
                continue;
            };
            if let Some(&(wport, at, _)) = sh.pending.iter().find(|&&(_, at, _)| at > now) {
                let detail = format!(
                    "DMA read observes line before host{}'s write-back lands at {}ns",
                    wport.0,
                    at.as_nanos()
                );
                self.report(ReportKind::TornDmaRead, port, la, now, detail);
            }
        }
    }

    /// The host's CPU cache was dropped wholesale (crash). Invalidate all
    /// its per-line shadow snapshots via a generation bump.
    pub(crate) fn on_host_reset(&mut self, port: PortId) {
        let h = &mut self.hosts[port.0];
        h.gen = h.gen.wrapping_add(1);
        h.flushes_since_fence = 0;
    }

    // -- annotated check points --------------------------------------------

    /// Publish point: lines in the range must not be dirty in the
    /// publisher's cache. `dirty` reports the line's live cache state
    /// (None = absent).
    pub(crate) fn on_publish(&mut self, port: PortId, la: u64, dirty: Option<bool>, now: SimTime) {
        if dirty == Some(true) {
            self.report(
                ReportKind::UnflushedPublish,
                port,
                la,
                now,
                "published line is still dirty in the publisher's cache".into(),
            );
        }
    }

    /// Fenced publish point (doorbell): in addition to the dirty check, the
    /// last flush of each line must be covered by an `mfence`.
    pub(crate) fn on_publish_fenced(
        &mut self,
        port: PortId,
        la: u64,
        dirty: Option<bool>,
        now: SimTime,
    ) {
        if dirty == Some(true) {
            self.report(
                ReportKind::UnflushedPublish,
                port,
                la,
                now,
                "doorbell published a line still dirty in the publisher's cache".into(),
            );
            return;
        }
        let hosts = std::mem::take(&mut self.hosts);
        let sh = self.line_mut(la);
        let s = Self::snap_mut(sh, &hosts, port);
        let unfenced = s.flush_op > hosts[port.0].last_fence_op;
        self.hosts = hosts;
        if unfenced {
            self.report(
                ReportKind::MissingFence,
                port,
                la,
                now,
                "doorbell rung with the line's flush not yet covered by an mfence".into(),
            );
        }
    }

    /// Acquire point: a read the driver declares must observe current pool
    /// bytes. `dirty` is the line's live cache state (None = absent).
    pub(crate) fn on_expect_fresh(
        &mut self,
        port: PortId,
        la: u64,
        dirty: Option<bool>,
        now: SimTime,
    ) {
        let Some(sh) = self.lines.get(&la) else {
            return; // never written: zeroed memory is trivially fresh
        };
        match dirty {
            Some(d) => {
                let s = sh.snaps[port.0];
                let valid = s.gen == self.hosts[port.0].gen;
                let snap = if valid { s.snap } else { 0 };
                if snap < sh.ver {
                    let detail = if d {
                        format!(
                            "dirty local line (snapshot v{}) masks newer pool data v{} ({})",
                            snap,
                            sh.ver,
                            writer_str(sh.writer)
                        )
                    } else {
                        format!(
                            "cached snapshot v{} is stale; pool has v{} ({})",
                            snap,
                            sh.ver,
                            writer_str(sh.writer)
                        )
                    };
                    self.report(ReportKind::StaleRead, port, la, now, detail);
                }
            }
            None => {
                // Absent: the read fetches from the pool. Another host's
                // in-flight write-back means the fetched bytes are torn.
                if let Some(&(wport, at, _)) =
                    sh.pending.iter().find(|&&(p, at, _)| p != port && at > now)
                {
                    let detail = format!(
                        "fetch observes line before host{}'s write-back lands at {}ns",
                        wport.0,
                        at.as_nanos()
                    );
                    self.report(ReportKind::TornRead, port, la, now, detail);
                }
            }
        }
    }
}

fn writer_str(w: Writer) -> String {
    match w {
        Writer::Init => "initial memory".to_string(),
        Writer::Host(p) => format!("written back by host{}", p.0),
        Writer::Dma(p) => format!("DMA-written via port{}", p.0),
    }
}
