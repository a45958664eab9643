//! The SSD device model.
//!
//! Commands are submitted to a bounded submission queue; the device executes
//! them against in-memory namespaces, DMA-ing data directly between flash
//! and the buffer in CXL pool memory (or host DRAM), and posts completions
//! to a completion queue the backend driver polls. Latency follows Table 1's
//! datacenter-SSD numbers (≈ 100 µs random read, 5 GB/s, 0.5 MOp/s), with
//! internal channel parallelism so queue depth buys throughput the way it
//! does on real drives.

use std::collections::VecDeque;

use oasis_cxl::dma::{DmaMemory, MemRef};
use oasis_sim::time::{SimDuration, SimTime};

use crate::command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
use crate::BLOCK_SIZE;

/// SSD timing and shape configuration.
#[derive(Clone, Debug)]
pub struct SsdConfig {
    /// Blocks per namespace.
    pub blocks_per_ns: u64,
    /// Number of namespaces.
    pub namespaces: u32,
    /// Base read latency (flash array access).
    pub read_latency_ns: u64,
    /// Base write latency (to the write cache).
    pub write_latency_ns: u64,
    /// Sustained bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Internal channel parallelism (concurrent commands).
    pub channels: usize,
    /// Submission queue depth.
    pub sq_depth: usize,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            blocks_per_ns: 4096, // 16 MiB per namespace in simulation
            namespaces: 1,
            read_latency_ns: 85_000,
            write_latency_ns: 15_000,
            bandwidth: 5e9,
            channels: 8,
            sq_depth: 256,
        }
    }
}

/// Device counters.
#[derive(Clone, Debug, Default)]
pub struct SsdStats {
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Flushes completed.
    pub flushes: u64,
    /// Bytes read from media.
    pub bytes_read: u64,
    /// Bytes written to media.
    pub bytes_written: u64,
    /// Commands failed (any status other than success).
    pub errors: u64,
    /// Commands rejected because the submission queue was full.
    pub sq_rejected: u64,
    /// Commands silently swallowed by an injected timeout window.
    pub swallowed: u64,
    /// Reads completed with an injected media error.
    pub media_errors: u64,
}

struct InFlight {
    completion: NvmeCompletion,
    done_at: SimTime,
}

/// The simulated SSD.
pub struct Ssd {
    cfg: SsdConfig,
    /// Flat media: namespace `n`, block `b` lives at `(n * blocks + b) *
    /// BLOCK_SIZE`.
    media: Vec<u8>,
    sq: VecDeque<NvmeCommand>,
    in_flight: Vec<InFlight>,
    cq: VecDeque<InFlight>,
    channel_free: Vec<SimTime>,
    failed: bool,
    /// Injected fault window: commands started before this time are
    /// silently swallowed (never complete), exercising the frontend's
    /// retry/timeout path.
    fault_timeout_until: SimTime,
    /// Injected fault window: reads started before this time complete with
    /// [`NvmeStatus::MediaError`].
    fault_read_error_until: SimTime,
    /// Device counters.
    pub stats: SsdStats,
}

impl Ssd {
    /// A healthy SSD with zeroed media.
    pub fn new(cfg: SsdConfig) -> Self {
        let media = vec![0u8; (cfg.blocks_per_ns * cfg.namespaces as u64 * BLOCK_SIZE) as usize];
        let channels = cfg.channels;
        Ssd {
            cfg,
            media,
            sq: VecDeque::new(),
            in_flight: Vec::new(),
            cq: VecDeque::new(),
            channel_free: vec![SimTime::ZERO; channels],
            failed: false,
            fault_timeout_until: SimTime::ZERO,
            fault_read_error_until: SimTime::ZERO,
            stats: SsdStats::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Mark the drive failed (or repaired). A failed drive completes every
    /// command with [`NvmeStatus::DeviceFailure`]; the Oasis storage engine
    /// propagates that error to the guest (§3.4).
    pub fn set_failed(&mut self, failed: bool) {
        self.failed = failed;
    }

    /// Has the drive been failed?
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Open an injected timeout window until `until`: commands *started*
    /// while it is open are accepted and then silently swallowed — no
    /// completion is ever posted, so the submitter's retry timeout must
    /// fire. Mirrors a firmware hiccup rather than a dead drive.
    pub fn inject_timeout_until(&mut self, until: SimTime) {
        self.fault_timeout_until = until;
    }

    /// Open an injected media-error window until `until`: reads started
    /// while it is open complete with [`NvmeStatus::MediaError`] (writes
    /// and flushes are unaffected).
    pub fn inject_read_errors_until(&mut self, until: SimTime) {
        self.fault_read_error_until = until;
    }

    /// Is an injected fault window currently open at `now`?
    pub fn fault_window_open(&self, now: SimTime) -> bool {
        now < self.fault_timeout_until || now < self.fault_read_error_until
    }

    /// Submit a command. Returns `false` if the submission queue is full.
    pub fn submit(&mut self, cmd: NvmeCommand) -> bool {
        if self.sq.len() >= self.cfg.sq_depth {
            self.stats.sq_rejected += 1;
            return false;
        }
        self.sq.push_back(cmd);
        true
    }

    /// Occupancy of the submission queue.
    pub fn sq_len(&self) -> usize {
        self.sq.len()
    }

    fn validate(&self, cmd: &NvmeCommand) -> NvmeStatus {
        if self.failed {
            return NvmeStatus::DeviceFailure;
        }
        if cmd.nsid == 0 || cmd.nsid > self.cfg.namespaces {
            return NvmeStatus::InvalidField;
        }
        if cmd.opcode != NvmeOpcode::Flush && cmd.slba + cmd.nlb as u64 > self.cfg.blocks_per_ns {
            return NvmeStatus::LbaOutOfRange;
        }
        NvmeStatus::Success
    }

    fn media_offset(&self, cmd: &NvmeCommand) -> usize {
        (((cmd.nsid as u64 - 1) * self.cfg.blocks_per_ns + cmd.slba) * BLOCK_SIZE) as usize
    }

    /// Execute queued commands and retire finished ones up to `now`.
    pub fn process(&mut self, now: SimTime, dma: &mut dyn DmaMemory) {
        // Start commands on free channels.
        while !self.sq.is_empty() {
            let Some(ch) = (0..self.channel_free.len())
                .filter(|&c| self.channel_free[c] <= now)
                .min_by_key(|&c| self.channel_free[c])
            else {
                break;
            };
            let Some(cmd) = self.sq.pop_front() else {
                break;
            };
            if now < self.fault_timeout_until {
                // Injected timeout: the command vanishes inside the device.
                // No completion will ever be posted for this cid.
                self.stats.swallowed += 1;
                continue;
            }
            let mut status = self.validate(&cmd);
            if status.is_ok() && cmd.opcode == NvmeOpcode::Read && now < self.fault_read_error_until
            {
                status = NvmeStatus::MediaError;
                self.stats.media_errors += 1;
            }
            let bytes = cmd.transfer_bytes();
            let service = if status.is_ok() {
                let base = match cmd.opcode {
                    NvmeOpcode::Read => self.cfg.read_latency_ns,
                    NvmeOpcode::Write => self.cfg.write_latency_ns,
                    NvmeOpcode::Flush => self.cfg.write_latency_ns,
                };
                base + (bytes as f64 / self.cfg.bandwidth * 1e9) as u64
            } else {
                1_000 // errors complete fast
            };
            let dma_ns = dma.dma_latency_ns(MemRef::Pool(cmd.data_ptr));
            let done_at = now + SimDuration::from_nanos(service + dma_ns);
            self.channel_free[ch] = done_at;

            if status.is_ok() {
                let off = self.media_offset(&cmd);
                match cmd.opcode {
                    NvmeOpcode::Read => {
                        self.stats.reads += 1;
                        self.stats.bytes_read += bytes;
                        let data = self.media[off..off + bytes as usize].to_vec();
                        dma.dma_write(now, MemRef::Pool(cmd.data_ptr), &data);
                    }
                    NvmeOpcode::Write => {
                        self.stats.writes += 1;
                        self.stats.bytes_written += bytes;
                        let mut buf = vec![0u8; bytes as usize];
                        dma.dma_read(now, MemRef::Pool(cmd.data_ptr), &mut buf);
                        self.media[off..off + bytes as usize].copy_from_slice(&buf);
                    }
                    NvmeOpcode::Flush => {
                        self.stats.flushes += 1;
                    }
                }
            } else {
                self.stats.errors += 1;
            }
            self.in_flight.push(InFlight {
                completion: NvmeCompletion {
                    cid: cmd.cid,
                    status,
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
    pub fn poll_completions(&mut self, now: SimTime) -> Vec<NvmeCompletion> {
        let mut out = Vec::new();
        while self.cq.front().is_some_and(|f| f.done_at <= now) {
            if let Some(f) = self.cq.pop_front() {
                out.push(f.completion);
            }
        }
        out
    }

    /// Commands started but not yet retired.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Earliest `now` at which [`Self::process`] or
    /// [`Self::poll_completions`] does anything, absent new submissions: a
    /// queued command finds a free channel, a started one retires, or a
    /// retired one can be drained. `None` when the drive is empty.
    pub fn next_event(&self) -> Option<SimTime> {
        let start = self
            .channel_free
            .iter()
            .min()
            .filter(|_| !self.sq.is_empty());
        let retire = self.in_flight.iter().map(|f| &f.done_at).min();
        let drain = self.cq.front().map(|f| &f.done_at);
        [start, retire, drain].into_iter().flatten().min().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlatMem {
        mem: Vec<u8>,
    }

    impl DmaMemory for FlatMem {
        fn dma_read(&mut self, _now: SimTime, mem: MemRef, out: &mut [u8]) {
            let MemRef::Pool(a) = mem else { panic!() };
            out.copy_from_slice(&self.mem[a as usize..a as usize + out.len()]);
        }
        fn dma_write(&mut self, _now: SimTime, mem: MemRef, data: &[u8]) {
            let MemRef::Pool(a) = mem else { panic!() };
            self.mem[a as usize..a as usize + data.len()].copy_from_slice(data);
        }
        fn dma_latency_ns(&self, _mem: MemRef) -> u64 {
            850
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn write_cmd(cid: u16, slba: u64, nlb: u32, ptr: u64) -> NvmeCommand {
        NvmeCommand {
            opcode: NvmeOpcode::Write,
            cid,
            nsid: 1,
            data_ptr: ptr,
            slba,
            nlb,
            frontend: 0,
        }
    }

    fn read_cmd(cid: u16, slba: u64, nlb: u32, ptr: u64) -> NvmeCommand {
        NvmeCommand {
            opcode: NvmeOpcode::Read,
            ..write_cmd(cid, slba, nlb, ptr)
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem {
            mem: vec![0; 64 * 1024],
        };
        mem.mem[..5].copy_from_slice(b"oasis");
        ssd.submit(write_cmd(1, 10, 1, 0));
        ssd.process(t(0), &mut mem);
        let done = t(10_000_000);
        ssd.process(done, &mut mem);
        let comps = ssd.poll_completions(done);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].status.is_ok());
        // Read it back into a different buffer.
        ssd.submit(read_cmd(2, 10, 1, 8192));
        ssd.process(done, &mut mem);
        ssd.process(t(20_000_000), &mut mem);
        let comps = ssd.poll_completions(t(20_000_000));
        assert_eq!(comps.len(), 1);
        assert_eq!(&mem.mem[8192..8197], b"oasis");
    }

    #[test]
    fn read_latency_near_100us() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        ssd.submit(read_cmd(1, 0, 1, 0));
        ssd.process(t(0), &mut mem);
        // 85us flash + 4096B/5GBps ~ 819ns + 850ns dma ~ 86.7us.
        assert!(ssd.poll_completions(t(80_000)).is_empty());
        ssd.process(t(90_000), &mut mem);
        assert_eq!(ssd.poll_completions(t(90_000)).len(), 1);
    }

    #[test]
    fn lba_out_of_range_fails() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem { mem: vec![0; 64] };
        let blocks = ssd.config().blocks_per_ns;
        ssd.submit(read_cmd(1, blocks, 1, 0));
        ssd.process(t(0), &mut mem);
        ssd.process(t(1_000_000), &mut mem);
        let comps = ssd.poll_completions(t(1_000_000));
        assert_eq!(comps[0].status, NvmeStatus::LbaOutOfRange);
        assert_eq!(ssd.stats.errors, 1);
    }

    #[test]
    fn invalid_namespace_fails() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem { mem: vec![0; 64] };
        let mut cmd = read_cmd(1, 0, 1, 0);
        cmd.nsid = 9;
        ssd.submit(cmd);
        ssd.process(t(0), &mut mem);
        ssd.process(t(1_000_000), &mut mem);
        assert_eq!(
            ssd.poll_completions(t(1_000_000))[0].status,
            NvmeStatus::InvalidField
        );
    }

    #[test]
    fn failed_device_errors_every_command() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        ssd.set_failed(true);
        ssd.submit(read_cmd(1, 0, 1, 0));
        ssd.process(t(0), &mut mem);
        ssd.process(t(1_000_000), &mut mem);
        let comps = ssd.poll_completions(t(1_000_000));
        assert_eq!(comps[0].status, NvmeStatus::DeviceFailure);
        // Repair and retry.
        ssd.set_failed(false);
        ssd.submit(read_cmd(2, 0, 1, 0));
        ssd.process(t(1_000_000), &mut mem);
        ssd.process(t(2_000_000), &mut mem);
        assert!(ssd.poll_completions(t(2_000_000))[0].status.is_ok());
    }

    #[test]
    fn channel_parallelism_overlaps_commands() {
        let cfg = SsdConfig {
            channels: 4,
            ..Default::default()
        };
        let mut ssd = Ssd::new(cfg);
        let mut mem = FlatMem {
            mem: vec![0; 64 * 1024],
        };
        for i in 0..4 {
            ssd.submit(read_cmd(i, i as u64, 1, (i as u64) * 4096));
        }
        ssd.process(t(0), &mut mem);
        // All four run concurrently: all complete by ~87us, not 4x that.
        ssd.process(t(95_000), &mut mem);
        assert_eq!(ssd.poll_completions(t(95_000)).len(), 4);
    }

    #[test]
    fn sq_depth_enforced() {
        let cfg = SsdConfig {
            sq_depth: 2,
            ..Default::default()
        };
        let mut ssd = Ssd::new(cfg);
        assert!(ssd.submit(read_cmd(0, 0, 1, 0)));
        assert!(ssd.submit(read_cmd(1, 0, 1, 0)));
        assert!(!ssd.submit(read_cmd(2, 0, 1, 0)));
        assert_eq!(ssd.stats.sq_rejected, 1);
    }

    #[test]
    fn timeout_window_swallows_commands() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        ssd.inject_timeout_until(t(1_000_000));
        assert!(ssd.fault_window_open(t(0)));
        ssd.submit(read_cmd(1, 0, 1, 0));
        ssd.process(t(0), &mut mem);
        assert_eq!(ssd.in_flight(), 0, "swallowed, never started");
        ssd.process(t(10_000_000), &mut mem);
        assert!(ssd.poll_completions(t(10_000_000)).is_empty());
        assert_eq!(ssd.stats.swallowed, 1);
        // Past the window (a resubmission) the command completes normally.
        assert!(!ssd.fault_window_open(t(2_000_000)));
        ssd.submit(read_cmd(1, 0, 1, 0));
        ssd.process(t(2_000_000), &mut mem);
        ssd.process(t(3_000_000), &mut mem);
        let comps = ssd.poll_completions(t(3_000_000));
        assert_eq!(comps.len(), 1);
        assert!(comps[0].status.is_ok());
    }

    #[test]
    fn read_error_window_fails_reads_only() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        ssd.inject_read_errors_until(t(1_000_000));
        ssd.submit(read_cmd(1, 0, 1, 0));
        ssd.submit(write_cmd(2, 0, 1, 4096));
        ssd.process(t(0), &mut mem);
        ssd.process(t(10_000_000), &mut mem);
        let comps = ssd.poll_completions(t(10_000_000));
        assert_eq!(comps.len(), 2);
        let read = comps.iter().find(|c| c.cid == 1).unwrap();
        let write = comps.iter().find(|c| c.cid == 2).unwrap();
        assert_eq!(read.status, NvmeStatus::MediaError);
        assert!(write.status.is_ok(), "writes unaffected");
        assert_eq!(ssd.stats.media_errors, 1);
        // Retry after the window succeeds.
        ssd.submit(read_cmd(3, 0, 1, 0));
        ssd.process(t(10_000_000), &mut mem);
        ssd.process(t(20_000_000), &mut mem);
        assert!(ssd.poll_completions(t(20_000_000))[0].status.is_ok());
    }

    #[test]
    fn flush_completes_without_transfer() {
        let mut ssd = Ssd::new(SsdConfig::default());
        let mut mem = FlatMem { mem: vec![0; 64] };
        ssd.submit(NvmeCommand {
            opcode: NvmeOpcode::Flush,
            cid: 9,
            nsid: 1,
            data_ptr: 0,
            slba: 0,
            nlb: 0,
            frontend: 0,
        });
        ssd.process(t(0), &mut mem);
        ssd.process(t(1_000_000), &mut mem);
        let comps = ssd.poll_completions(t(1_000_000));
        assert!(comps[0].status.is_ok());
        assert_eq!(ssd.stats.flushes, 1);
        assert_eq!(ssd.stats.bytes_read + ssd.stats.bytes_written, 0);
    }
}
