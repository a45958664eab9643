//! The accelerator device model.
//!
//! Jobs are submitted to a bounded submission queue; the device DMAs the
//! input out of CXL pool memory, runs the fixed-function kernel, DMAs the
//! result back, and posts a completion the backend driver polls. Latency is
//! a per-job setup cost plus a bandwidth term, with internal execution-lane
//! parallelism so queue depth buys throughput — the same latency shape as
//! the SSD model, deliberately, so the pooling economics of §4 transfer.

use std::collections::VecDeque;

use oasis_cxl::dma::{DmaMemory, MemRef};
use oasis_sim::time::{SimDuration, SimTime};

use crate::command::{fnv1a, AccelCommand, AccelCompletion, AccelOp, AccelStatus};

/// Accelerator timing and shape configuration.
#[derive(Clone, Debug)]
pub struct AccelConfig {
    /// Per-job setup latency (descriptor fetch + kernel launch).
    pub setup_ns: u64,
    /// Sustained compute/DMA bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Internal execution-lane parallelism (concurrent jobs).
    pub channels: usize,
    /// Submission queue depth.
    pub sq_depth: usize,
    /// Largest input a single job may name, in bytes.
    pub max_job_bytes: u32,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            setup_ns: 20_000,
            bandwidth: 8e9,
            channels: 4,
            sq_depth: 128,
            max_job_bytes: 1 << 20,
        }
    }
}

/// Device counters.
#[derive(Clone, Debug, Default)]
pub struct AccelStats {
    /// Jobs completed successfully.
    pub jobs: u64,
    /// Input bytes processed.
    pub bytes_in: u64,
    /// Jobs failed (any status other than success).
    pub errors: u64,
    /// Jobs rejected because the submission queue was full.
    pub sq_rejected: u64,
    /// Jobs silently swallowed by an injected timeout window.
    pub swallowed: u64,
    /// Jobs completed with an injected compute error.
    pub compute_errors: u64,
    /// Retire time of the latest job to finish on any lane. Benchmarks use
    /// this as the exact end of a batch's device-side span, free of driver
    /// polling-cadence quantization.
    pub last_done_at: SimTime,
}

struct InFlight {
    completion: AccelCompletion,
    done_at: SimTime,
}

/// The simulated pooled accelerator.
pub struct AccelDevice {
    cfg: AccelConfig,
    /// Submitted jobs with their arrival times. Jobs start retroactively at
    /// `max(lane_free, arrival)`, so lanes never idle between driver polls
    /// while work is queued.
    sq: VecDeque<(SimTime, AccelCommand)>,
    in_flight: Vec<InFlight>,
    cq: VecDeque<InFlight>,
    channel_free: Vec<SimTime>,
    failed: bool,
    /// Injected fault window: jobs started before this time are silently
    /// swallowed (never complete), exercising the frontend's retry path.
    fault_timeout_until: SimTime,
    /// Injected fault window: jobs started before this time complete with
    /// [`AccelStatus::ComputeError`] and no output DMA.
    fault_compute_error_until: SimTime,
    /// Staging for one job's input and output, reused across jobs.
    scratch: Vec<u8>,
    /// Device counters.
    pub stats: AccelStats,
}

impl AccelDevice {
    /// A healthy accelerator.
    pub fn new(cfg: AccelConfig) -> Self {
        let channels = cfg.channels;
        AccelDevice {
            cfg,
            sq: VecDeque::new(),
            in_flight: Vec::new(),
            cq: VecDeque::new(),
            channel_free: vec![SimTime::ZERO; channels],
            failed: false,
            fault_timeout_until: SimTime::ZERO,
            fault_compute_error_until: SimTime::ZERO,
            scratch: Vec::new(),
            stats: AccelStats::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Mark the device failed (or repaired). A failed accelerator completes
    /// every job with [`AccelStatus::DeviceFailure`]; like a failed SSD, the
    /// error propagates to the guest (§3.4).
    pub fn set_failed(&mut self, failed: bool) {
        self.failed = failed;
    }

    /// Has the device been failed?
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Open an injected timeout window until `until`: jobs *started* while
    /// it is open are accepted and then silently swallowed — no completion
    /// is ever posted, so the submitter's retry timeout must fire.
    pub fn inject_timeout_until(&mut self, until: SimTime) {
        self.fault_timeout_until = until;
    }

    /// Open an injected compute-error window until `until`: jobs started
    /// while it is open complete with [`AccelStatus::ComputeError`].
    pub fn inject_compute_errors_until(&mut self, until: SimTime) {
        self.fault_compute_error_until = until;
    }

    /// Is an injected fault window currently open at `now`?
    pub fn fault_window_open(&self, now: SimTime) -> bool {
        now < self.fault_timeout_until || now < self.fault_compute_error_until
    }

    /// Submit a job arriving at `now`. Returns `false` if the submission
    /// queue is full.
    pub fn submit(&mut self, now: SimTime, cmd: AccelCommand) -> bool {
        if self.sq.len() >= self.cfg.sq_depth {
            self.stats.sq_rejected += 1;
            return false;
        }
        self.sq.push_back((now, cmd));
        true
    }

    /// Occupancy of the submission queue.
    pub fn sq_len(&self) -> usize {
        self.sq.len()
    }

    fn validate(&self, cmd: &AccelCommand) -> AccelStatus {
        if self.failed {
            return AccelStatus::DeviceFailure;
        }
        if cmd.input_len == 0 {
            return AccelStatus::InvalidField;
        }
        if cmd.input_len > self.cfg.max_job_bytes {
            return AccelStatus::LenOutOfRange;
        }
        AccelStatus::Success
    }

    /// Execute queued jobs and retire finished ones up to `now`.
    ///
    /// Jobs start *retroactively*: a job that arrived at `arrival` starts
    /// on the earliest lane at `max(lane_free, arrival)`, not at the poll
    /// instant. Without this, every lane freed between two driver polls
    /// sat idle until the next poll, so past ~4 hosts the polling cadence
    /// — not lane parallelism — bounded throughput and aggregate
    /// goodput *fell* as hosts were added.
    pub fn process(&mut self, now: SimTime, dma: &mut dyn DmaMemory) {
        // Start jobs in arrival order on free execution lanes.
        while let Some(&(arrival, _)) = self.sq.front() {
            // Earliest-free lane; ties resolve to the lowest index, same
            // as the old free-lane filter, keeping the timeline
            // deterministic.
            let Some(ch) = (0..self.channel_free.len()).min_by_key(|&c| self.channel_free[c])
            else {
                break;
            };
            let start = self.channel_free[ch].max(arrival);
            if start > now {
                break;
            }
            let Some((_, cmd)) = self.sq.pop_front() else {
                break;
            };
            if start < self.fault_timeout_until {
                // Injected timeout: the job vanishes inside the device. No
                // completion will ever be posted for this cid.
                self.stats.swallowed += 1;
                continue;
            }
            let mut status = self.validate(&cmd);
            if status.is_ok() && start < self.fault_compute_error_until {
                status = AccelStatus::ComputeError;
                self.stats.compute_errors += 1;
            }
            let bytes = cmd.transfer_bytes();
            let service = if status.is_ok() {
                self.cfg.setup_ns + (bytes as f64 / self.cfg.bandwidth * 1e9) as u64
            } else {
                1_000 // errors complete fast
            };
            let dma_ns = dma.dma_latency_ns(MemRef::Pool(cmd.input_ptr));
            let done_at = start + SimDuration::from_nanos(service + dma_ns);
            self.channel_free[ch] = done_at;
            self.stats.last_done_at = self.stats.last_done_at.max(done_at);

            let mut result = 0u64;
            if status.is_ok() {
                if self.scratch.len() < bytes as usize {
                    self.scratch.resize(bytes as usize, 0);
                }
                let input = &mut self.scratch[..bytes as usize];
                dma.dma_read(start, MemRef::Pool(cmd.input_ptr), input);
                match cmd.op {
                    AccelOp::Checksum => {
                        result = fnv1a(input);
                        dma.dma_write(start, MemRef::Pool(cmd.output_ptr), &result.to_le_bytes());
                    }
                    AccelOp::Scale => {
                        let k = cmd.arg as u8;
                        for b in input.iter_mut() {
                            *b = b.wrapping_mul(k);
                        }
                        dma.dma_write(start, MemRef::Pool(cmd.output_ptr), input);
                    }
                }
                self.stats.jobs += 1;
                self.stats.bytes_in += bytes;
            } else {
                self.stats.errors += 1;
            }
            self.in_flight.push(InFlight {
                completion: AccelCompletion {
                    cid: cmd.cid,
                    status,
                    result,
                    frontend: cmd.frontend,
                },
                done_at,
            });
        }

        // Retire to the completion queue in completion-time order.
        self.in_flight.sort_by_key(|f| f.done_at);
        while let Some(f) = self.in_flight.first() {
            if f.done_at > now {
                break;
            }
            let f = self.in_flight.remove(0);
            self.cq.push_back(f);
        }
    }

    /// Drain completions that finished by `now`.
    pub fn poll_completions(&mut self, now: SimTime) -> Vec<AccelCompletion> {
        let mut out = Vec::new();
        while self.cq.front().is_some_and(|f| f.done_at <= now) {
            if let Some(f) = self.cq.pop_front() {
                out.push(f.completion);
            }
        }
        out
    }

    /// Jobs started but not yet retired.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Earliest `now` at which [`Self::process`] or
    /// [`Self::poll_completions`] does anything, absent new submissions: the
    /// head job can start on a lane, a started one retires, or a retired
    /// one can be drained. `None` when the device is empty.
    pub fn next_event(&self) -> Option<SimTime> {
        let lane = self.channel_free.iter().min();
        let start = self
            .sq
            .front()
            .zip(lane)
            .map(|(&(arrival, _), &free)| free.max(arrival));
        let retire = self.in_flight.iter().map(|f| f.done_at).min();
        let drain = self.cq.front().map(|f| f.done_at);
        [start, retire, drain].into_iter().flatten().min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_cxl::dma::FlatMem;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn job(cid: u16, op: AccelOp, arg: u32, inp: u64, out: u64, len: u32) -> AccelCommand {
        AccelCommand {
            op,
            cid,
            arg,
            input_ptr: inp,
            output_ptr: out,
            input_len: len,
            frontend: 0,
        }
    }

    #[test]
    fn checksum_matches_host_fnv() {
        let mut dev = AccelDevice::new(AccelConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        mem.mem[..5].copy_from_slice(b"oasis");
        dev.submit(t(0), job(1, AccelOp::Checksum, 0, 0, 4096, 5));
        dev.process(t(0), &mut mem);
        dev.process(t(1_000_000), &mut mem);
        let comps = dev.poll_completions(t(1_000_000));
        assert_eq!(comps.len(), 1);
        assert!(comps[0].status.is_ok());
        assert_eq!(comps[0].result, fnv1a(b"oasis"));
        // Digest is also DMA'd to the output buffer.
        assert_eq!(&mem.mem[4096..4104], &fnv1a(b"oasis").to_le_bytes());
    }

    #[test]
    fn scale_transforms_bytes() {
        let mut dev = AccelDevice::new(AccelConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        mem.mem[..4].copy_from_slice(&[1, 2, 3, 100]);
        dev.submit(t(0), job(1, AccelOp::Scale, 3, 0, 4096, 4));
        dev.process(t(0), &mut mem);
        dev.process(t(1_000_000), &mut mem);
        assert!(dev.poll_completions(t(1_000_000))[0].status.is_ok());
        assert_eq!(&mem.mem[4096..4100], &[3, 6, 9, 44]); // 100*3 = 300 % 256
    }

    #[test]
    fn latency_is_setup_plus_bandwidth() {
        let mut dev = AccelDevice::new(AccelConfig::default());
        let mut mem = FlatMem {
            mem: vec![0; 1 << 17],
        };
        dev.submit(t(0), job(1, AccelOp::Checksum, 0, 0, 65536, 65536));
        dev.process(t(0), &mut mem);
        // 20us setup + 64KiB/8GBps ~ 8.2us + 850ns dma ~ 29us.
        assert!(dev.poll_completions(t(25_000)).is_empty());
        dev.process(t(35_000), &mut mem);
        assert_eq!(dev.poll_completions(t(35_000)).len(), 1);
    }

    #[test]
    fn zero_length_and_oversize_jobs_fail() {
        let cfg = AccelConfig {
            max_job_bytes: 4096,
            ..Default::default()
        };
        let mut dev = AccelDevice::new(cfg);
        let mut mem = FlatMem {
            mem: vec![0; 16384],
        };
        dev.submit(t(0), job(1, AccelOp::Checksum, 0, 0, 64, 0));
        dev.submit(t(0), job(2, AccelOp::Checksum, 0, 0, 64, 8192));
        dev.process(t(0), &mut mem);
        dev.process(t(1_000_000), &mut mem);
        let comps = dev.poll_completions(t(1_000_000));
        assert_eq!(comps.len(), 2);
        let zero = comps.iter().find(|c| c.cid == 1).unwrap();
        let big = comps.iter().find(|c| c.cid == 2).unwrap();
        assert_eq!(zero.status, AccelStatus::InvalidField);
        assert_eq!(big.status, AccelStatus::LenOutOfRange);
        assert_eq!(dev.stats.errors, 2);
    }

    #[test]
    fn failed_device_errors_every_job() {
        let mut dev = AccelDevice::new(AccelConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        dev.set_failed(true);
        dev.submit(t(0), job(1, AccelOp::Checksum, 0, 0, 4096, 64));
        dev.process(t(0), &mut mem);
        dev.process(t(1_000_000), &mut mem);
        assert_eq!(
            dev.poll_completions(t(1_000_000))[0].status,
            AccelStatus::DeviceFailure
        );
        // Repair and retry.
        dev.set_failed(false);
        dev.submit(t(1_000_000), job(2, AccelOp::Checksum, 0, 0, 4096, 64));
        dev.process(t(1_000_000), &mut mem);
        dev.process(t(2_000_000), &mut mem);
        assert!(dev.poll_completions(t(2_000_000))[0].status.is_ok());
    }

    #[test]
    fn lane_parallelism_overlaps_jobs() {
        let cfg = AccelConfig {
            channels: 4,
            ..Default::default()
        };
        let mut dev = AccelDevice::new(cfg);
        let mut mem = FlatMem {
            mem: vec![0; 64 * 1024],
        };
        for i in 0..4 {
            dev.submit(
                t(0),
                job(i, AccelOp::Checksum, 0, (i as u64) * 4096, 60_000, 4096),
            );
        }
        dev.process(t(0), &mut mem);
        // All four run concurrently: all complete by ~22us, not 4x that.
        dev.process(t(30_000), &mut mem);
        assert_eq!(dev.poll_completions(t(30_000)).len(), 4);
    }

    #[test]
    fn sq_depth_enforced() {
        let cfg = AccelConfig {
            sq_depth: 2,
            ..Default::default()
        };
        let mut dev = AccelDevice::new(cfg);
        assert!(dev.submit(t(0), job(0, AccelOp::Checksum, 0, 0, 64, 64)));
        assert!(dev.submit(t(0), job(1, AccelOp::Checksum, 0, 0, 64, 64)));
        assert!(!dev.submit(t(0), job(2, AccelOp::Checksum, 0, 0, 64, 64)));
        assert_eq!(dev.stats.sq_rejected, 1);
    }

    #[test]
    fn timeout_window_swallows_jobs() {
        let mut dev = AccelDevice::new(AccelConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        dev.inject_timeout_until(t(1_000_000));
        assert!(dev.fault_window_open(t(0)));
        dev.submit(t(0), job(1, AccelOp::Checksum, 0, 0, 4096, 64));
        dev.process(t(0), &mut mem);
        assert_eq!(dev.in_flight(), 0, "swallowed, never started");
        dev.process(t(10_000_000), &mut mem);
        assert!(dev.poll_completions(t(10_000_000)).is_empty());
        assert_eq!(dev.stats.swallowed, 1);
        // Past the window (a resubmission) the job completes normally.
        assert!(!dev.fault_window_open(t(2_000_000)));
        dev.submit(t(2_000_000), job(1, AccelOp::Checksum, 0, 0, 4096, 64));
        dev.process(t(2_000_000), &mut mem);
        dev.process(t(3_000_000), &mut mem);
        let comps = dev.poll_completions(t(3_000_000));
        assert_eq!(comps.len(), 1);
        assert!(comps[0].status.is_ok());
    }

    #[test]
    fn compute_error_window_is_transient() {
        let mut dev = AccelDevice::new(AccelConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        dev.inject_compute_errors_until(t(1_000_000));
        dev.submit(t(0), job(1, AccelOp::Checksum, 0, 0, 4096, 64));
        dev.process(t(0), &mut mem);
        dev.process(t(10_000_000), &mut mem);
        let comps = dev.poll_completions(t(10_000_000));
        assert_eq!(comps[0].status, AccelStatus::ComputeError);
        assert_eq!(dev.stats.compute_errors, 1);
        // No output DMA happened.
        assert!(mem.mem[4096..4104].iter().all(|&b| b == 0));
        // Retry after the window succeeds.
        dev.submit(t(10_000_000), job(2, AccelOp::Checksum, 0, 0, 4096, 64));
        dev.process(t(10_000_000), &mut mem);
        dev.process(t(20_000_000), &mut mem);
        assert!(dev.poll_completions(t(20_000_000))[0].status.is_ok());
    }
}
