//! The Oasis storage engine (§3.4).
//!
//! Mirrors the network engine's structure: a frontend driver per host gives
//! local instances a block-device interface; a backend driver runs only on
//! hosts with local SSDs and operates their submission/completion queues
//! through the native driver. Frontend and backend exchange **64 B
//! messages that mirror NVMe commands** over Oasis channels; data moves
//! through I/O buffers in shared CXL memory that the SSD DMAs directly
//! (the backend never inspects them, §3.2.1).
//!
//! The paper designs this engine but does not implement it; we implement it
//! fully, including the §3.4 failure semantics: a failed drive completes
//! I/O with an error status that propagates to the guest — there is no
//! transparent failover for stateful devices.
//!
//! The drivers are the generic [`crate::engine_req`] pair; this module is
//! what is particular to block storage ([`StorageClass`]) and the block
//! submit calls. [`StoragePod`] co-simulates a frontend host, a backend
//! host, and an SSD for the integration tests and the storage benchmarks.

use oasis_channel::RetryPolicy;
use oasis_cxl::dma::DmaMemory;
use oasis_cxl::CxlPool;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
use oasis_storage::ssd::Ssd;
use oasis_storage::BLOCK_SIZE;

use crate::engine_req::{Outcome, ReqClass, ReqFrontend, ReqPair};
use crate::metrics as m;

/// A two-host storage pod: host 0's frontend reaches the SSD on host 1.
pub type StoragePod = ReqPair<StorageClass>;

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

/// Block storage as a request/response device class.
pub struct StorageClass;

impl ReqClass for StorageClass {
    type Command = NvmeCommand;
    type Completion = NvmeCompletion;
    type Device = Ssd;
    type Result = IoResult;

    const NAME: &'static str = "storage";
    const METRICS: [&'static str; 12] = [
        m::STORAGE_FE_SUBMITTED,
        m::STORAGE_FE_COMPLETED,
        m::STORAGE_FE_ERRORS,
        m::STORAGE_FE_REFUSED,
        m::STORAGE_FE_RETRIES,
        m::STORAGE_FE_RETRY_EXHAUSTED,
        m::STORAGE_FE_INFLIGHT,
        m::STORAGE_FE_SERVICE_NS,
        m::STORAGE_BE_FORWARDED,
        m::STORAGE_BE_SQ_FULL,
        m::STORAGE_BE_COMPLETIONS,
        m::STORAGE_BE_REPLAYS_ANSWERED,
    ];
    /// 2 ms covers the ~100 µs device latency with wide margin; six
    /// attempts doubling from there give up after 126 ms.
    const RETRY: RetryPolicy = RetryPolicy {
        timeout: SimDuration::from_millis(2),
        backoff: 2,
        max_attempts: 6,
    };
    /// The largest single block I/O: 32 blocks.
    const BUF_SIZE: u64 = 32 * BLOCK_SIZE;
    const BUFS_PER_HOST: u64 = 64;
    const OK: u8 = NvmeStatus::Success.to_byte();
    const TRANSIENT: u8 = NvmeStatus::MediaError.to_byte();
    const FAILED: u8 = NvmeStatus::DeviceFailure.to_byte();
    /// A media error burns an attempt and is re-read at once: one bad read
    /// costs microseconds instead of the 2 ms deadline, and a read-error
    /// window longer than six such reads surfaces to the guest as a media
    /// error — the behaviour the chaos outputs pin.
    const RESEND_TRANSIENT_AT_ONCE: bool = true;
    const RESULT_WORD: bool = false;

    fn cmd_ids(cmd: &NvmeCommand) -> (u16, u32) {
        (cmd.cid, cmd.frontend)
    }
    fn split(comp: &NvmeCompletion) -> (u16, u32, Outcome) {
        let outcome = Outcome::new(comp.status.to_byte(), 0);
        (comp.cid, comp.frontend, outcome)
    }
    fn completion(cid: u16, frontend: u32, outcome: Outcome) -> NvmeCompletion {
        let status = NvmeStatus::from_byte(outcome.status);
        NvmeCompletion {
            cid,
            status,
            frontend,
        }
    }
    /// One data buffer, except for a flush.
    fn buffers(cmd: &NvmeCommand) -> [Option<(u64, u64)>; 2] {
        let data = (cmd.opcode != NvmeOpcode::Flush).then(|| (cmd.data_ptr, cmd.transfer_bytes()));
        [data, None]
    }
    fn readback(cmd: &NvmeCommand) -> Option<(u64, u64)> {
        (cmd.opcode == NvmeOpcode::Read).then(|| (cmd.data_ptr, cmd.transfer_bytes()))
    }
    fn result(cid: u16, outcome: Outcome, data: Option<Vec<u8>>) -> IoResult {
        let status = NvmeStatus::from_byte(outcome.status);
        IoResult { cid, status, data }
    }
    fn result_parts(res: &IoResult) -> (u16, Outcome, Option<&[u8]>) {
        let outcome = Outcome::new(res.status.to_byte(), 0);
        (res.cid, outcome, res.data.as_deref())
    }
    fn submit(ssd: &mut Ssd, _now: SimTime, cmd: NvmeCommand) -> bool {
        ssd.submit(cmd)
    }
    fn process(ssd: &mut Ssd, now: SimTime, dma: &mut dyn DmaMemory) {
        ssd.process(now, dma);
    }
    fn poll_completions(ssd: &mut Ssd, now: SimTime) -> Vec<NvmeCompletion> {
        ssd.poll_completions(now)
    }
    fn next_event(ssd: &Ssd) -> Option<SimTime> {
        ssd.next_event()
    }
}

impl ReqFrontend<StorageClass> {
    fn submit_io(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        opcode: NvmeOpcode,
        (slba, nlb): (u64, u32),
        data: Option<&[u8]>,
    ) -> Option<u16> {
        let flush = opcode == NvmeOpcode::Flush;
        let fits = flush || nlb as u64 * BLOCK_SIZE <= self.buf_size();
        let bufs = usize::from(!flush);
        self.submit(
            pool,
            ssd,
            fits,
            bufs,
            data,
            |cid, frontend, [data_ptr, _]| NvmeCommand {
                opcode,
                cid,
                nsid: 1,
                data_ptr,
                slba,
                nlb,
                frontend,
            },
        )
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
        self.submit_io(pool, ssd, NvmeOpcode::Write, (lba, nlb), Some(data))
    }

    /// Submit a read of `nlb` blocks starting at `lba`.
    pub fn submit_read(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        lba: u64,
        nlb: u32,
    ) -> Option<u16> {
        self.submit_io(pool, ssd, NvmeOpcode::Read, (lba, nlb), None)
    }

    /// Submit a flush.
    pub fn submit_flush(&mut self, pool: &mut CxlPool, ssd: usize) -> Option<u16> {
        self.submit_io(pool, ssd, NvmeOpcode::Flush, (0, 0), None)
    }
}
