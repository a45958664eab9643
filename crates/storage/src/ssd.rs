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

const BLOCK: usize = BLOCK_SIZE as usize;

/// One block of media.
type Block = Box<[u8; BLOCK]>;

struct InFlight {
    completion: NvmeCompletion,
    done_at: SimTime,
}

/// The simulated SSD.
pub struct Ssd {
    cfg: SsdConfig,
    /// Sparse media, one slot per block: namespace `n`, block `b` is slot
    /// `n * blocks + b`. A block is allocated on its first write; a block
    /// never written reads as zeros.
    media: Vec<Option<Block>>,
    /// Staging for one command's transfer, reused across commands.
    scratch: Vec<u8>,
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
        let media = vec![None; (cfg.blocks_per_ns * cfg.namespaces as u64) as usize];
        let channels = cfg.channels;
        Ssd {
            cfg,
            media,
            scratch: Vec::new(),
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

    /// Media slot of the command's first block.
    fn first_block(&self, cmd: &NvmeCommand) -> usize {
        ((cmd.nsid as u64 - 1) * self.cfg.blocks_per_ns + cmd.slba) as usize
    }

    /// Blocks from slot `first` on into `out`; unwritten blocks read as zeros.
    fn read_media(&self, first: usize, out: &mut [u8]) {
        for (chunk, block) in out.chunks_mut(BLOCK).zip(&self.media[first..]) {
            match block {
                Some(b) => chunk.copy_from_slice(&b[..chunk.len()]),
                None => chunk.fill(0),
            }
        }
    }

    /// `data` into the blocks from slot `first` on, allocating each on its
    /// first write.
    fn write_media(&mut self, first: usize, data: &[u8]) {
        for (chunk, block) in data.chunks(BLOCK).zip(&mut self.media[first..]) {
            block.get_or_insert_with(|| Box::new([0; BLOCK]))[..chunk.len()].copy_from_slice(chunk);
        }
    }

    /// Blocks holding media (written at least once).
    #[cfg(test)]
    fn resident_blocks(&self) -> usize {
        self.media.iter().filter(|b| b.is_some()).count()
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
                let first = self.first_block(&cmd);
                let mut buf = std::mem::take(&mut self.scratch);
                if buf.len() < bytes as usize {
                    buf.resize(bytes as usize, 0);
                }
                let data = &mut buf[..bytes as usize];
                match cmd.opcode {
                    NvmeOpcode::Read => {
                        self.stats.reads += 1;
                        self.stats.bytes_read += bytes;
                        self.read_media(first, data);
                        dma.dma_write(now, MemRef::Pool(cmd.data_ptr), data);
                    }
                    NvmeOpcode::Write => {
                        self.stats.writes += 1;
                        self.stats.bytes_written += bytes;
                        dma.dma_read(now, MemRef::Pool(cmd.data_ptr), data);
                        self.write_media(first, data);
                    }
                    NvmeOpcode::Flush => {
                        self.stats.flushes += 1;
                    }
                }
                self.scratch = buf;
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
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// Run one command to completion at `*now` and return its status.
    fn run_one(ssd: &mut Ssd, mem: &mut FlatMem, now: &mut u64, cmd: NvmeCommand) -> NvmeStatus {
        assert!(ssd.submit(cmd));
        ssd.process(t(*now), mem);
        *now += 1_000_000;
        ssd.process(t(*now), mem);
        let comps = ssd.poll_completions(t(*now));
        assert_eq!(comps.len(), 1);
        comps[0].status
    }

    proptest! {
        /// Sparse media against a flat byte model through random 1- and
        /// 8-block reads and writes over two small namespaces: every read
        /// returns the model's bytes (zeros where never written, the last
        /// LBA included), and exactly one block is resident per distinct
        /// LBA written.
        #[test]
        fn sparse_media_matches_flat_model(
            ops in proptest::collection::vec(
                (
                    any::<bool>(),
                    1u32..3,
                    prop_oneof![0u64..64, Just(63u64), Just(56u64)],
                    prop_oneof![Just(1u32), Just(8)],
                    any::<u8>(),
                ),
                1..40,
            ),
        ) {
            const BLOCKS: u64 = 64;
            let cfg = SsdConfig { blocks_per_ns: BLOCKS, namespaces: 2, ..Default::default() };
            let mut ssd = Ssd::new(cfg);
            let mut model = vec![0u8; (2 * BLOCKS * BLOCK_SIZE) as usize];
            let mut mem = FlatMem { mem: vec![0; 8 * BLOCK] };
            let mut written = BTreeSet::new();
            let mut now = 0;
            for (cid, (write, nsid, lba, nlb, tag)) in ops.into_iter().enumerate() {
                let lba = lba.min(BLOCKS - nlb as u64);
                let first = ((nsid as u64 - 1) * BLOCKS + lba) as usize;
                let range = first * BLOCK..(first + nlb as usize) * BLOCK;
                let len = range.len();
                let cmd = NvmeCommand { nsid, ..read_cmd(cid as u16, lba, nlb, 0) };
                if write {
                    for (i, b) in mem.mem[..len].iter_mut().enumerate() {
                        *b = (i as u8).wrapping_mul(31) ^ tag;
                    }
                    let cmd = NvmeCommand { opcode: NvmeOpcode::Write, ..cmd };
                    prop_assert!(run_one(&mut ssd, &mut mem, &mut now, cmd).is_ok());
                    model[range.clone()].copy_from_slice(&mem.mem[..len]);
                    written.extend(first..first + nlb as usize);
                } else {
                    // Garbage first, so a never-written block must be zeroed.
                    mem.mem.fill(0xa5);
                    prop_assert!(run_one(&mut ssd, &mut mem, &mut now, cmd).is_ok());
                }
                prop_assert_eq!(&mem.mem[..len], &model[range]);
                prop_assert_eq!(ssd.resident_blocks(), written.len());
            }
            let mut all = vec![0u8; model.len()];
            ssd.read_media(0, &mut all);
            prop_assert!(all == model, "media differs from the model");
        }
    }
}
