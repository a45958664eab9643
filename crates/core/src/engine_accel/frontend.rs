//! Accel-engine frontend driver: the job-submission interface instances
//! see.

use oasis_accel::{AccelCommand, AccelCompletion, AccelOp, AccelStatus};
use oasis_channel::{Receiver, RetryPolicy, RetryState, Sender};
use oasis_cxl::{CxlPool, HostCtx};
use oasis_sim::detmap::DetMap;
use oasis_sim::time::{SimDuration, SimTime};

use crate::config::OasisConfig;
use crate::datapath::BufferArea;
use crate::engine::{DeviceEngine, EngineFault, EngineFrontend, EngineWorld};
use crate::snapshot::Snapshottable;

/// A completed offload job returned to the caller.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The command id returned at submit time.
    pub cid: u16,
    /// Completion status (device failures surface here, §3.4).
    pub status: AccelStatus,
    /// The operation result echoed by the device (checksum digest).
    pub result: u64,
    /// The output bytes, copied out of shared CXL memory.
    pub output: Option<Vec<u8>>,
}

struct PendingJob {
    /// Input buffer (freed on completion).
    in_buf: u64,
    /// Output buffer (read back and freed on completion).
    out_buf: u64,
    /// Bytes the device writes to the output buffer.
    out_bytes: u64,
    /// Target accelerator (for resubmission routing).
    dev: usize,
    /// The full command, kept for retransmission.
    cmd: AccelCommand,
    /// Retry pacing for this job.
    retry: RetryState,
    /// First submission time (service-time telemetry; retries keep it).
    #[cfg(feature = "obs")]
    issued: oasis_sim::time::SimTime,
}

/// One channel link to an accel backend.
struct DevLink {
    dev: usize,
    to: Sender,
    from: Receiver,
}

/// Frontend counters.
#[derive(Clone, Debug, Default)]
pub struct AccelFeStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Completions with error status.
    pub errors: u64,
    /// Submissions refused (no buffer / channel full).
    pub refused: u64,
    /// Jobs resubmitted after a completion timeout or transient compute
    /// error.
    pub retries: u64,
    /// Jobs failed to the caller after exhausting the retry budget.
    pub retry_exhausted: u64,
}

/// The accel frontend driver (one busy-polling core per host).
pub struct AccelFrontend {
    /// Host this frontend runs on.
    pub host: usize,
    /// The polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: AccelFeStats,
    cfg: OasisConfig,
    links: Vec<DevLink>,
    data_area: BufferArea,
    pending: DetMap<u16, PendingJob>,
    done: Vec<JobResult>,
    next_cid: u16,
    /// Submit-to-completion latency, retries included (nanoseconds).
    #[cfg(feature = "obs")]
    service_ns: oasis_obs::ObsHistogram,
}

impl AccelFrontend {
    /// Create a frontend with its job buffer area in pool memory.
    pub fn new(host: usize, core: HostCtx, cfg: OasisConfig, data_area: BufferArea) -> Self {
        AccelFrontend {
            host,
            core,
            stats: AccelFeStats::default(),
            cfg,
            links: Vec::new(),
            data_area,
            pending: DetMap::default(),
            done: Vec::new(),
            next_cid: 0,
            #[cfg(feature = "obs")]
            service_ns: oasis_obs::ObsHistogram::new(),
        }
    }

    /// Wire a channel pair to an accelerator's backend.
    pub fn add_accel_link(&mut self, dev: usize, to: Sender, from: Receiver) {
        self.links.push(DevLink { dev, to, from });
    }

    fn link_idx(&self, dev: usize) -> Option<usize> {
        self.links.iter().position(|l| l.dev == dev)
    }

    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            timeout: self.cfg.accel_retry_timeout,
            backoff: self.cfg.accel_retry_backoff,
            max_attempts: self.cfg.accel_retry_max_attempts,
        }
    }

    /// Invalidate a finished job's buffer lines and return both buffers for
    /// reuse (same §3.2.1 software-coherence discipline as storage: the
    /// next occupant's data arrives by device DMA, so stale cached lines
    /// must go).
    fn release_bufs(&mut self, pool: &mut CxlPool, p: &PendingJob) {
        self.core
            .clflushopt_range(pool, p.in_buf, p.cmd.input_len as u64);
        self.data_area.free(p.in_buf);
        self.core.clflushopt_range(pool, p.out_buf, p.out_bytes);
        self.data_area.free(p.out_buf);
    }

    /// Put `cmd` back on the wire to `dev`. A full channel is fine: the
    /// armed deadline fires again later.
    fn resend(&mut self, pool: &mut CxlPool, dev: usize, cmd: &AccelCommand) {
        if let Some(li) = self.link_idx(dev) {
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

    /// Bytes the device writes for `op` over an `input_len`-byte input.
    fn output_bytes(op: AccelOp, input_len: u32) -> u64 {
        match op {
            AccelOp::Checksum => 8,
            AccelOp::Scale => input_len as u64,
        }
    }

    /// Submit an offload job. Returns the command id, or `None` when
    /// backpressured (no buffers / channel full) — the caller retries on a
    /// later tick.
    pub fn submit_job(
        &mut self,
        pool: &mut CxlPool,
        dev: usize,
        op: AccelOp,
        arg: u32,
        input: &[u8],
    ) -> Option<u16> {
        let li = self.link_idx(dev)?;
        let bytes = input.len() as u64;
        if bytes == 0 || bytes > self.data_area.buf_size() {
            self.stats.refused += 1;
            return None;
        }
        let Some(in_buf) = self.data_area.alloc() else {
            self.stats.refused += 1;
            return None;
        };
        let Some(out_buf) = self.data_area.alloc() else {
            self.data_area.free(in_buf);
            self.stats.refused += 1;
            return None;
        };
        // Stage the input in shared CXL memory and write it back so the
        // device's DMA sees it (§3.2.1).
        self.core.write(pool, in_buf, input);
        self.core.clwb_range(pool, in_buf, bytes);
        self.core.publish(pool, in_buf, bytes);
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        let cmd = AccelCommand {
            op,
            cid,
            arg,
            input_ptr: in_buf,
            output_ptr: out_buf,
            input_len: input.len() as u32,
            frontend: self.host as u32,
        };
        let link = &mut self.links[li];
        if !link
            .to
            .try_send(&mut self.core, pool, &cmd.encode())
            .unwrap_or(false)
        {
            self.data_area.free(out_buf);
            self.data_area.free(in_buf);
            self.stats.refused += 1;
            return None;
        }
        link.to.flush(&mut self.core, pool);
        self.stats.submitted += 1;
        let retry = RetryState::armed(&self.retry_policy(), self.core.clock);
        self.pending.insert(
            cid,
            PendingJob {
                in_buf,
                out_buf,
                out_bytes: Self::output_bytes(op, cmd.input_len),
                dev,
                cmd,
                retry,
                #[cfg(feature = "obs")]
                issued: self.core.clock,
            },
        );
        Some(cid)
    }

    /// One polling round: drain completion channels, then resubmit any job
    /// whose completion deadline has passed (a device in a fault window
    /// swallows jobs whole; the backend deduplicates replays, so
    /// resubmission is safe even when the original is merely slow).
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
                let Some(comp) = AccelCompletion::decode(&buf) else {
                    continue;
                };
                let Some(p) = self.pending.remove(&comp.cid) else {
                    continue;
                };
                if comp.status == AccelStatus::ComputeError && p.retry.can_retry(&policy) {
                    // Transient compute fault (injected fault window): drop
                    // the errored completion and let the armed retry
                    // deadline resubmit with backoff. Resending immediately
                    // would hammer the device — errors complete in ~1 µs,
                    // so the whole budget burns inside the fault window.
                    self.pending.insert(comp.cid, p);
                    continue;
                }
                let output = if comp.status.is_ok() {
                    // Copy the result out of shared memory. The device DMA'd
                    // it into the pool; cached lines of this buffer are
                    // stale by definition.
                    self.core.expect_fresh(pool, p.out_buf, p.out_bytes);
                    let mut out = vec![0u8; p.out_bytes as usize];
                    self.core.read_stream(pool, p.out_buf, &mut out);
                    Some(out)
                } else {
                    None
                };
                self.release_bufs(pool, &p);
                self.stats.completed += 1;
                #[cfg(feature = "obs")]
                self.service_ns
                    .record((self.core.clock - p.issued).as_nanos());
                if !comp.status.is_ok() {
                    self.stats.errors += 1;
                }
                self.done.push(JobResult {
                    cid: comp.cid,
                    status: comp.status,
                    result: comp.result,
                    output,
                });
            }
            self.links[li].from.publish_consumed(&mut self.core, pool);
        }

        // Retry timers: resubmit expired jobs, fail exhausted ones.
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
                let (dev, cmd) = (p.dev, p.cmd);
                self.stats.retries += 1;
                self.resend(pool, dev, &cmd);
            } else {
                let Some(p) = self.pending.remove(&cid) else {
                    continue;
                };
                self.release_bufs(pool, &p);
                self.stats.completed += 1;
                #[cfg(feature = "obs")]
                self.service_ns
                    .record((self.core.clock - p.issued).as_nanos());
                self.stats.errors += 1;
                self.stats.retry_exhausted += 1;
                self.done.push(JobResult {
                    cid,
                    status: AccelStatus::DeviceFailure,
                    result: 0,
                    output: None,
                });
            }
        }
    }

    /// After a host restart, rearm and resubmit every in-flight job — same
    /// recovery protocol as the storage engine: the submission intent
    /// survives in driver state, lost completions are replayed, and the
    /// backend's dedup window keeps execution exactly-once.
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
            let (dev, cmd) = (p.dev, p.cmd);
            self.stats.retries += 1;
            self.resend(pool, dev, &cmd);
        }
    }

    /// Take completed jobs.
    pub fn take_completions(&mut self) -> Vec<JobResult> {
        std::mem::take(&mut self.done)
    }

    /// Jobs still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

impl Snapshottable for AccelFrontend {
    /// Same layout discipline as the storage frontend: in-flight jobs as
    /// their full 64 B wire descriptor plus routing/retry state (buffer
    /// pointers and output size are derived and rebuilt on restore), the
    /// completed-job queue, then the data-area free list. The `issued` slot
    /// is written unconditionally so the byte format is feature-independent.
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
                w.put_u64(p.dev as u64);
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
            w.put_u64(res.result);
            match &res.output {
                Some(output) => {
                    w.put_bool(true);
                    w.put_bytes(output);
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
        self.core.clock = SimTime(r.u64("accel-fe clock")?);
        self.stats.submitted = r.u64("accel-fe submitted")?;
        self.stats.completed = r.u64("accel-fe completed")?;
        self.stats.errors = r.u64("accel-fe errors")?;
        self.stats.refused = r.u64("accel-fe refused")?;
        self.stats.retries = r.u64("accel-fe retries")?;
        self.stats.retry_exhausted = r.u64("accel-fe retry_exhausted")?;
        self.next_cid = r.u16("accel-fe next cid")?;
        let n = r.u64("accel-fe pending count")?;
        self.pending.clear();
        for _ in 0..n {
            let cid = r.u16("accel-fe pending cid")?;
            let blob = r.bytes("accel-fe pending cmd")?;
            let arr: [u8; 64] = blob
                .try_into()
                .map_err(|_| SnapshotError::Corrupt("accel-fe pending cmd"))?;
            let cmd =
                AccelCommand::decode(&arr).ok_or(SnapshotError::Corrupt("accel-fe pending cmd"))?;
            if cmd.cid != cid {
                return Err(SnapshotError::Corrupt("accel-fe pending cid"));
            }
            let dev = r.u64("accel-fe pending dev")? as usize;
            let attempts = r.u32("accel-fe pending attempts")?;
            let deadline = SimTime(r.u64("accel-fe pending deadline")?);
            let wait = SimDuration::from_nanos(r.u64("accel-fe pending wait")?);
            let _issued_ns = r.u64("accel-fe pending issued")?;
            self.pending.insert(
                cid,
                PendingJob {
                    in_buf: cmd.input_ptr,
                    out_buf: cmd.output_ptr,
                    out_bytes: Self::output_bytes(cmd.op, cmd.input_len),
                    dev,
                    cmd,
                    retry: RetryState::from_parts(attempts, deadline, wait),
                    #[cfg(feature = "obs")]
                    issued: SimTime(_issued_ns),
                },
            );
        }
        let n = r.u64("accel-fe done count")?;
        self.done.clear();
        for _ in 0..n {
            let cid = r.u16("accel-fe done cid")?;
            let status = AccelStatus::from_byte(r.u8("accel-fe done status")?);
            let result = r.u64("accel-fe done result")?;
            let output = if r.bool("accel-fe done output flag")? {
                Some(r.bytes("accel-fe done output")?.to_vec())
            } else {
                None
            };
            self.done.push(JobResult {
                cid,
                status,
                result,
                output,
            });
        }
        self.data_area.restore_state(r)?;
        Ok(())
    }
}

impl DeviceEngine for AccelFrontend {
    fn host(&self) -> usize {
        self.host
    }
    fn core(&self) -> &HostCtx {
        &self.core
    }
    fn core_mut(&mut self) -> &mut HostCtx {
        &mut self.core
    }
    fn poll(
        &mut self,
        world: &mut EngineWorld,
    ) -> Vec<(oasis_sim::time::SimTime, oasis_net::packet::Frame)> {
        self.step(world.pool);
        Vec::new()
    }
    fn on_fault(&mut self, fault: EngineFault, pool: &mut CxlPool) {
        if fault == EngineFault::HostRestart {
            self.replay_pending(pool);
        }
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        use crate::metrics as m;
        let t = self.host as u32;
        sink.set(m::ACCEL_FE_SUBMITTED, t, self.stats.submitted);
        sink.set(m::ACCEL_FE_COMPLETED, t, self.stats.completed);
        sink.set(m::ACCEL_FE_ERRORS, t, self.stats.errors);
        sink.set(m::ACCEL_FE_REFUSED, t, self.stats.refused);
        sink.set(m::ACCEL_FE_RETRIES, t, self.stats.retries);
        sink.set(m::ACCEL_FE_RETRY_EXHAUSTED, t, self.stats.retry_exhausted);
        sink.set(m::ACCEL_FE_INFLIGHT, t, self.pending.len() as u64);
        #[cfg(feature = "obs")]
        sink.merge_hist(m::ACCEL_FE_SERVICE_NS, t, &self.service_ns);
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}

impl EngineFrontend for AccelFrontend {
    type Command = AccelCommand;
    type Completion = AccelCompletion;
    const ENGINE: &'static str = "accel";
}
