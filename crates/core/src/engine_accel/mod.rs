//! The Oasis compute-offload engine.
//!
//! The third engine, built to prove the frontend/backend split generalizes:
//! a frontend driver per host gives local instances a job-submission
//! interface to pooled accelerators; a backend driver runs only on hosts
//! with local accelerators and operates their queues through the native
//! driver. Frontend and backend exchange **64 B job descriptors** over
//! Oasis channels; job inputs and outputs live in I/O buffers in shared CXL
//! memory that the device DMAs directly (the backend never inspects them,
//! §3.2.1).
//!
//! Failure semantics mirror the storage engine (§3.4): swallowed jobs are
//! retried after a timeout, the backend deduplicates replays through a
//! completion cache so no job executes twice, and a dead device propagates
//! an error to the guest — no transparent failover for stateful devices.
//!
//! The drivers are the generic [`crate::engine_req`] pair; this module is
//! what is particular to offload jobs ([`AccelClass`]) and the submit call.

use oasis_accel::{AccelCommand, AccelCompletion, AccelDevice, AccelOp, AccelStatus};
use oasis_channel::RetryPolicy;
use oasis_cxl::dma::DmaMemory;
use oasis_cxl::CxlPool;
use oasis_sim::time::{SimDuration, SimTime};

use crate::engine_req::{Outcome, ReqClass, ReqFrontend};
use crate::metrics as m;

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

/// Bytes the device writes for `cmd`'s output.
fn output_bytes(cmd: &AccelCommand) -> u64 {
    match cmd.op {
        AccelOp::Checksum => 8,
        AccelOp::Scale => cmd.input_len as u64,
    }
}

/// Compute offload as a request/response device class.
pub struct AccelClass;

impl ReqClass for AccelClass {
    type Command = AccelCommand;
    type Completion = AccelCompletion;
    type Device = AccelDevice;
    type Result = JobResult;

    const NAME: &'static str = "accel";
    const METRICS: [&'static str; 12] = [
        m::ACCEL_FE_SUBMITTED,
        m::ACCEL_FE_COMPLETED,
        m::ACCEL_FE_ERRORS,
        m::ACCEL_FE_REFUSED,
        m::ACCEL_FE_RETRIES,
        m::ACCEL_FE_RETRY_EXHAUSTED,
        m::ACCEL_FE_INFLIGHT,
        m::ACCEL_FE_SERVICE_NS,
        m::ACCEL_BE_FORWARDED,
        m::ACCEL_BE_SQ_FULL,
        m::ACCEL_BE_COMPLETIONS,
        m::ACCEL_BE_REPLAYS_ANSWERED,
    ];
    /// 1 ms covers setup + DMA latency of the largest job with wide
    /// margin; six attempts doubling from there give up after 63 ms.
    const RETRY: RetryPolicy = RetryPolicy {
        timeout: SimDuration::from_millis(1),
        backoff: 2,
        max_attempts: 6,
    };
    /// The largest single job input or output.
    const BUF_SIZE: u64 = 64 * 1024;
    const BUFS_PER_HOST: u64 = 32;
    const OK: u8 = AccelStatus::Success.to_byte();
    const TRANSIENT: u8 = AccelStatus::ComputeError.to_byte();
    const FAILED: u8 = AccelStatus::DeviceFailure.to_byte();
    /// A compute error is dropped and the armed deadline resubmits with
    /// backoff: errors complete in ~1 µs, so immediate resends would burn
    /// the whole budget inside the fault window.
    const RESEND_TRANSIENT_AT_ONCE: bool = false;
    const RESULT_WORD: bool = true;

    fn cmd_ids(cmd: &AccelCommand) -> (u16, u32) {
        (cmd.cid, cmd.frontend)
    }
    fn split(comp: &AccelCompletion) -> (u16, u32, Outcome) {
        let outcome = Outcome::new(comp.status.to_byte(), comp.result);
        (comp.cid, comp.frontend, outcome)
    }
    fn completion(cid: u16, frontend: u32, outcome: Outcome) -> AccelCompletion {
        AccelCompletion {
            cid,
            status: AccelStatus::from_byte(outcome.status),
            result: outcome.result,
            frontend,
        }
    }
    /// An input buffer and an output buffer.
    fn buffers(cmd: &AccelCommand) -> [Option<(u64, u64)>; 2] {
        [
            Some((cmd.input_ptr, cmd.input_len as u64)),
            Some((cmd.output_ptr, output_bytes(cmd))),
        ]
    }
    fn readback(cmd: &AccelCommand) -> Option<(u64, u64)> {
        Some((cmd.output_ptr, output_bytes(cmd)))
    }
    fn result(cid: u16, outcome: Outcome, output: Option<Vec<u8>>) -> JobResult {
        JobResult {
            cid,
            status: AccelStatus::from_byte(outcome.status),
            result: outcome.result,
            output,
        }
    }
    fn result_parts(res: &JobResult) -> (u16, Outcome, Option<&[u8]>) {
        let outcome = Outcome::new(res.status.to_byte(), res.result);
        (res.cid, outcome, res.output.as_deref())
    }
    fn submit(dev: &mut AccelDevice, now: SimTime, cmd: AccelCommand) -> bool {
        dev.submit(now, cmd)
    }
    fn process(dev: &mut AccelDevice, now: SimTime, dma: &mut dyn DmaMemory) {
        dev.process(now, dma);
    }
    fn poll_completions(dev: &mut AccelDevice, now: SimTime) -> Vec<AccelCompletion> {
        dev.poll_completions(now)
    }
    fn next_event(dev: &AccelDevice) -> Option<SimTime> {
        dev.next_event()
    }
}

impl ReqFrontend<AccelClass> {
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
        let fits = !input.is_empty() && input.len() as u64 <= self.buf_size();
        self.submit(pool, dev, fits, 2, Some(input), |cid, frontend, bufs| {
            AccelCommand {
                op,
                cid,
                arg,
                input_ptr: bufs[0],
                output_ptr: bufs[1],
                input_len: input.len() as u32,
                frontend,
            }
        })
    }
}
