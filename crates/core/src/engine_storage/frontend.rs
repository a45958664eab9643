//! Storage-engine frontend driver: the block-device interface instances
//! see.

use oasis_channel::{Receiver, RetryPolicy, RetryState, Sender};
use oasis_cxl::{CxlPool, HostCtx};
use oasis_sim::detmap::DetMap;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
use oasis_storage::BLOCK_SIZE;

use crate::config::OasisConfig;
use crate::datapath::BufferArea;
use crate::snapshot::Snapshottable;

/// A completed block I/O returned to the caller.
#[derive(Clone, Debug)]
pub struct IoResult {
    /// The command id returned at submit time.
    pub cid: u16,
    /// Completion status (drive failures surface here, §3.4).
    pub status: NvmeStatus,
    /// For reads: the data, copied out of shared CXL memory.
    pub data: Option<Vec<u8>>,
}

struct PendingIo {
    op: NvmeOpcode,
    buf: u64,
    bytes: u64,
    /// Target SSD (for resubmission routing).
    ssd: usize,
    /// The full command, kept for retransmission.
    cmd: NvmeCommand,
    /// Retry pacing for this command.
    retry: RetryState,
    /// First submission time (service-time telemetry; retries keep it).
    #[cfg(feature = "obs")]
    issued: oasis_sim::time::SimTime,
}

/// One channel link to a storage backend.
struct SsdLink {
    ssd: usize,
    to: Sender,
    from: Receiver,
}

/// Frontend counters.
#[derive(Clone, Debug, Default)]
pub struct StorageFeStats {
    /// Commands submitted.
    pub submitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Completions with error status.
    pub errors: u64,
    /// Submissions refused (no buffer / channel full).
    pub refused: u64,
    /// Commands resubmitted after a completion timeout or transient media
    /// error (§3.4 recovery).
    pub retries: u64,
    /// Commands failed to the caller after exhausting the retry budget.
    pub retry_exhausted: u64,
}

/// The storage frontend driver (one busy-polling core per host, §3.4).
pub struct StorageFrontend {
    /// Host this frontend runs on.
    pub host: usize,
    /// The polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: StorageFeStats,
    cfg: OasisConfig,
    links: Vec<SsdLink>,
    data_area: BufferArea,
    pending: DetMap<u16, PendingIo>,
    done: Vec<IoResult>,
    next_cid: u16,
    /// Testing knob for the sanitizer regression harness: skip the
    /// invalidation in [`Self::release_buf`], reintroducing the stale-read
    /// bug the release flush fixed.
    #[cfg(feature = "sanitize")]
    skip_release_invalidate: bool,
    /// Submit-to-completion latency, retries included (nanoseconds).
    #[cfg(feature = "obs")]
    service_ns: oasis_obs::ObsHistogram,
}

impl StorageFrontend {
    /// Create a frontend with its I/O data buffer area in pool memory.
    pub fn new(host: usize, core: HostCtx, cfg: OasisConfig, data_area: BufferArea) -> Self {
        StorageFrontend {
            host,
            core,
            stats: StorageFeStats::default(),
            cfg,
            links: Vec::new(),
            data_area,
            pending: DetMap::default(),
            done: Vec::new(),
            next_cid: 0,
            #[cfg(feature = "sanitize")]
            skip_release_invalidate: false,
            #[cfg(feature = "obs")]
            service_ns: oasis_obs::ObsHistogram::new(),
        }
    }

    /// Reintroduce the pre-fix buffer-release behaviour (no invalidation)
    /// so the sanitizer regression harness can prove it re-detects the
    /// stale-read bug. Test-only; exists only with the `sanitize` feature.
    #[cfg(feature = "sanitize")]
    pub fn set_skip_release_invalidate(&mut self, skip: bool) {
        self.skip_release_invalidate = skip;
    }

    /// Wire a channel pair to an SSD's backend.
    pub fn add_ssd_link(&mut self, ssd: usize, to: Sender, from: Receiver) {
        self.links.push(SsdLink { ssd, to, from });
    }

    fn link_idx(&self, ssd: usize) -> Option<usize> {
        self.links.iter().position(|l| l.ssd == ssd)
    }

    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            timeout: self.cfg.storage_retry_timeout,
            backoff: self.cfg.storage_retry_backoff,
            max_attempts: self.cfg.storage_retry_max_attempts,
        }
    }

    /// Invalidate a finished command's buffer lines and return the buffer
    /// for reuse. The next user's data arrives by device DMA straight into
    /// pool memory, so any line left cached here — in particular the clean
    /// copies `clwb` keeps after staging a write — would read back stale
    /// (§3.2.1 software coherence).
    fn release_buf(&mut self, pool: &mut CxlPool, p: &PendingIo) {
        if p.op == NvmeOpcode::Flush {
            return;
        }
        #[cfg(feature = "sanitize")]
        if self.skip_release_invalidate {
            self.data_area.free(p.buf);
            return;
        }
        self.core.clflushopt_range(pool, p.buf, p.bytes);
        self.data_area.free(p.buf);
    }

    /// Put `cmd` back on the wire to `ssd`. A full channel is fine: the
    /// armed deadline fires again later.
    fn resend(&mut self, pool: &mut CxlPool, ssd: usize, cmd: &NvmeCommand) {
        if let Some(li) = self.link_idx(ssd) {
            let link = &mut self.links[li];
            if link
                .to
                .try_send(&mut self.core, pool, &cmd.encode())
                .unwrap_or(false)
            {
                link.to.flush(&mut self.core, pool);
            }
        }
    }

    fn submit(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        op: NvmeOpcode,
        lba: u64,
        nlb: u32,
        data: Option<&[u8]>,
    ) -> Option<u16> {
        let li = self.link_idx(ssd)?;
        let bytes = nlb as u64 * BLOCK_SIZE;
        let buf = if op == NvmeOpcode::Flush {
            0
        } else {
            if bytes > self.data_area.buf_size() {
                self.stats.refused += 1;
                return None;
            }
            match self.data_area.alloc() {
                Some(b) => b,
                None => {
                    self.stats.refused += 1;
                    return None;
                }
            }
        };
        // For writes, stage the data in shared CXL memory and write it back
        // so the SSD's DMA sees it (§3.2.1).
        if let Some(data) = data {
            debug_assert_eq!(data.len() as u64, bytes);
            self.core.write(pool, buf, data);
            self.core.clwb_range(pool, buf, bytes);
            self.core.publish(pool, buf, bytes);
        }
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        let cmd = NvmeCommand {
            opcode: op,
            cid,
            nsid: 1,
            data_ptr: buf,
            slba: lba,
            nlb,
            frontend: self.host as u32,
        };
        let link = &mut self.links[li];
        if !link
            .to
            .try_send(&mut self.core, pool, &cmd.encode())
            .unwrap_or(false)
        {
            if op != NvmeOpcode::Flush {
                self.data_area.free(buf);
            }
            self.stats.refused += 1;
            return None;
        }
        link.to.flush(&mut self.core, pool);
        self.stats.submitted += 1;
        let retry = RetryState::armed(&self.retry_policy(), self.core.clock);
        self.pending.insert(
            cid,
            PendingIo {
                op,
                buf,
                bytes,
                ssd,
                cmd,
                retry,
                #[cfg(feature = "obs")]
                issued: self.core.clock,
            },
        );
        Some(cid)
    }

    /// Submit a write of whole blocks starting at `lba`.
    pub fn submit_write(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        lba: u64,
        data: &[u8],
    ) -> Option<u16> {
        assert_eq!(data.len() as u64 % BLOCK_SIZE, 0, "whole blocks only");
        let nlb = (data.len() as u64 / BLOCK_SIZE) as u32;
        self.submit(pool, ssd, NvmeOpcode::Write, lba, nlb, Some(data))
    }

    /// Submit a read of `nlb` blocks starting at `lba`.
    pub fn submit_read(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        lba: u64,
        nlb: u32,
    ) -> Option<u16> {
        self.submit(pool, ssd, NvmeOpcode::Read, lba, nlb, None)
    }

    /// Submit a flush.
    pub fn submit_flush(&mut self, pool: &mut CxlPool, ssd: usize) -> Option<u16> {
        self.submit(pool, ssd, NvmeOpcode::Flush, 0, 0, None)
    }

    /// One polling round: drain completion channels, then resubmit any
    /// command whose completion deadline has passed (an SSD in a fault
    /// window swallows commands whole; the backend deduplicates replays,
    /// so resubmission is safe even when the original is merely slow).
    pub fn step(&mut self, pool: &mut CxlPool) {
        self.core.advance(self.cfg.driver_loop_ns);
        let policy = self.retry_policy();
        let mut buf = [0u8; 64];
        for li in 0..self.links.len() {
            loop {
                let got = self.links[li].from.try_recv(&mut self.core, pool, &mut buf);
                if !got {
                    break;
                }
                let Some(comp) = NvmeCompletion::decode(&buf) else {
                    continue;
                };
                let Some(mut p) = self.pending.remove(&comp.cid) else {
                    continue;
                };
                if comp.status == NvmeStatus::MediaError && p.retry.can_retry(&policy) {
                    // Transient read error (injected fault window): burn an
                    // attempt and resubmit instead of surfacing it.
                    p.retry.rearm(&policy, self.core.clock);
                    self.stats.retries += 1;
                    let (ssd, cmd) = (p.ssd, p.cmd);
                    self.pending.insert(comp.cid, p);
                    self.resend(pool, ssd, &cmd);
                    continue;
                }
                let data = if p.op == NvmeOpcode::Read && comp.status.is_ok() {
                    // Copy the data out of shared memory. The SSD DMA'd it
                    // into the pool; any line of the buffer still cached
                    // here is stale by definition.
                    self.core.expect_fresh(pool, p.buf, p.bytes);
                    let mut out = vec![0u8; p.bytes as usize];
                    self.core.read_stream(pool, p.buf, &mut out);
                    Some(out)
                } else {
                    None
                };
                self.release_buf(pool, &p);
                self.stats.completed += 1;
                #[cfg(feature = "obs")]
                self.service_ns
                    .record((self.core.clock - p.issued).as_nanos());
                if !comp.status.is_ok() {
                    self.stats.errors += 1;
                }
                self.done.push(IoResult {
                    cid: comp.cid,
                    status: comp.status,
                    data,
                });
            }
            self.links[li].from.publish_consumed(&mut self.core, pool);
        }

        // Retry timers: resubmit expired commands, fail exhausted ones.
        let now = self.core.clock;
        let mut expired: Vec<u16> = self
            .pending
            .iter()
            .filter(|(_, p)| p.retry.expired(now))
            .map(|(cid, _)| *cid)
            .collect();
        expired.sort_unstable();
        for cid in expired {
            let can = self
                .pending
                .get(&cid)
                .is_some_and(|p| p.retry.can_retry(&policy));
            if can {
                let Some(p) = self.pending.get_mut(&cid) else {
                    continue;
                };
                p.retry.rearm(&policy, now);
                let (ssd, cmd) = (p.ssd, p.cmd);
                self.stats.retries += 1;
                self.resend(pool, ssd, &cmd);
            } else {
                let Some(p) = self.pending.remove(&cid) else {
                    continue;
                };
                self.release_buf(pool, &p);
                self.stats.completed += 1;
                #[cfg(feature = "obs")]
                self.service_ns
                    .record((self.core.clock - p.issued).as_nanos());
                self.stats.errors += 1;
                self.stats.retry_exhausted += 1;
                self.done.push(IoResult {
                    cid,
                    status: NvmeStatus::DeviceFailure,
                    data: None,
                });
            }
        }
    }

    /// After a host restart, rearm and resubmit every in-flight command:
    /// the submission intent survives the crash (it lives in this driver's
    /// state), but completions delivered into the lost cache did not. The
    /// backend's dedup window answers already-executed replays from its
    /// completion cache, so none of them runs twice.
    pub fn replay_pending(&mut self, pool: &mut CxlPool) {
        let policy = self.retry_policy();
        let now = self.core.clock;
        let mut cids: Vec<u16> = self.pending.keys().copied().collect();
        cids.sort_unstable();
        for cid in cids {
            let Some(p) = self.pending.get_mut(&cid) else {
                continue;
            };
            p.retry = RetryState::armed(&policy, now);
            let (ssd, cmd) = (p.ssd, p.cmd);
            self.stats.retries += 1;
            self.resend(pool, ssd, &cmd);
        }
    }

    /// Take completed I/Os.
    pub fn take_completions(&mut self) -> Vec<IoResult> {
        std::mem::take(&mut self.done)
    }

    /// I/Os still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Submit-to-completion service-time histogram (telemetry export).
    #[cfg(feature = "obs")]
    pub fn service_hist(&self) -> &oasis_obs::ObsHistogram {
        &self.service_ns
    }
}

impl Snapshottable for StorageFrontend {
    /// In-flight commands serialize as their full 64 B wire descriptor plus
    /// routing and retry state; `op`/`buf`/`bytes` are derived fields and
    /// rebuilt from the descriptor on restore. The `issued` timestamp slot
    /// is written unconditionally (zero without the `obs` feature) so the
    /// byte format is feature-independent. The service histogram is a pure
    /// observer and is excluded.
    fn snapshot_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        let s = &self.stats;
        for v in [
            s.submitted,
            s.completed,
            s.errors,
            s.refused,
            s.retries,
            s.retry_exhausted,
        ] {
            w.put_u64(v);
        }
        w.put_u16(self.next_cid);
        let mut cids: Vec<u16> = self.pending.keys().copied().collect();
        cids.sort_unstable();
        w.put_u64(cids.len() as u64);
        for cid in cids {
            if let Some(p) = self.pending.get(&cid) {
                w.put_u16(cid);
                w.put_bytes(&p.cmd.encode());
                w.put_u64(p.ssd as u64);
                let (attempts, deadline, wait) = p.retry.to_parts();
                w.put_u32(attempts);
                w.put_u64(deadline.as_nanos());
                w.put_u64(wait.as_nanos());
                #[cfg(feature = "obs")]
                w.put_u64(p.issued.as_nanos());
                #[cfg(not(feature = "obs"))]
                w.put_u64(0);
            }
        }
        w.put_u64(self.done.len() as u64);
        for res in &self.done {
            w.put_u16(res.cid);
            w.put_u8(res.status.to_byte());
            match &res.data {
                Some(data) => {
                    w.put_bool(true);
                    w.put_bytes(data);
                }
                None => w.put_bool(false),
            }
        }
        self.data_area.snapshot_state(w);
    }

    fn restore_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        self.core.clock = SimTime(r.u64("storage-fe clock")?);
        self.stats.submitted = r.u64("storage-fe submitted")?;
        self.stats.completed = r.u64("storage-fe completed")?;
        self.stats.errors = r.u64("storage-fe errors")?;
        self.stats.refused = r.u64("storage-fe refused")?;
        self.stats.retries = r.u64("storage-fe retries")?;
        self.stats.retry_exhausted = r.u64("storage-fe retry_exhausted")?;
        self.next_cid = r.u16("storage-fe next cid")?;
        let n = r.u64("storage-fe pending count")?;
        self.pending.clear();
        for _ in 0..n {
            let cid = r.u16("storage-fe pending cid")?;
            let blob = r.bytes("storage-fe pending cmd")?;
            let arr: [u8; 64] = blob
                .try_into()
                .map_err(|_| SnapshotError::Corrupt("storage-fe pending cmd"))?;
            let cmd = NvmeCommand::decode(&arr)
                .ok_or(SnapshotError::Corrupt("storage-fe pending cmd"))?;
            if cmd.cid != cid {
                return Err(SnapshotError::Corrupt("storage-fe pending cid"));
            }
            let ssd = r.u64("storage-fe pending ssd")? as usize;
            let attempts = r.u32("storage-fe pending attempts")?;
            let deadline = SimTime(r.u64("storage-fe pending deadline")?);
            let wait = SimDuration::from_nanos(r.u64("storage-fe pending wait")?);
            let _issued_ns = r.u64("storage-fe pending issued")?;
            self.pending.insert(
                cid,
                PendingIo {
                    op: cmd.opcode,
                    buf: cmd.data_ptr,
                    bytes: cmd.nlb as u64 * BLOCK_SIZE,
                    ssd,
                    cmd,
                    retry: RetryState::from_parts(attempts, deadline, wait),
                    #[cfg(feature = "obs")]
                    issued: SimTime(_issued_ns),
                },
            );
        }
        let n = r.u64("storage-fe done count")?;
        self.done.clear();
        for _ in 0..n {
            let cid = r.u16("storage-fe done cid")?;
            let status = NvmeStatus::from_byte(r.u8("storage-fe done status")?);
            let data = if r.bool("storage-fe done data flag")? {
                Some(r.bytes("storage-fe done data")?.to_vec())
            } else {
                None
            };
            self.done.push(IoResult { cid, status, data });
        }
        self.data_area.restore_state(r)?;
        Ok(())
    }
}
