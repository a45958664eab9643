//! `pod_devices_rw` — closed loop. The `pod_echo` pod plus one SSD and one
//! accelerator on each device host; four tenants, each with one volume
//! driven at queue depth 16: 60 % reads, 30 % writes (half 4 KiB, half
//! 32 KiB, seeded LBAs) and 10 % 64 KiB checksum jobs. Every read is
//! compared with what was written, every digest with the input's.
//!
//! Why: the same cache model, channels and scheduler as `pod_echo`, used
//! differently — bulk payload DMA and 64 B NVMe-style descriptors instead
//! of small packets, writes beside reads — and the storage and accel
//! engines, which `pod_echo` never enters. The NIC, switch and apps idle.

use std::time::Instant;

use oasis_accel::{AccelConfig, AccelOp};
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{Pod, PodBuilder, VolumeHandle};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

use super::{check, Latency, Rep, Scale};
use crate::rng::{Fnv, Rng};
use crate::stats::percentile_grouped;
use crate::tracer::Tracer;

pub const TENANTS: usize = 4;
/// Operations each tenant keeps in flight (one per slot).
pub const QUEUE_DEPTH: usize = 16;
/// Operations per slot in a full repetition (×16 slots ×4 tenants).
pub const FULL_OPS_PER_SLOT: usize = 500;
/// Blocks of the volume each slot owns. A slot has one operation in
/// flight, so a block is never written twice at once and every read has
/// exactly one right answer.
pub const SLOT_BLOCKS: u64 = 32;
pub const JOB_BYTES: usize = 64 * 1024;
/// Distinct job inputs; their digests are computed during set-up so the
/// timed region compares one `u64` per job.
const JOB_INPUTS: usize = 8;
/// The loop submits and reaps at these simulated instants, as a guest
/// polling its completion queues would.
pub const POLL_QUANTUM: SimDuration = SimDuration::from_micros(2);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read { lba: u64, nlb: u32 },
    Write { lba: u64, nlb: u32 },
    Job { input: usize },
}

pub struct Inputs {
    /// `ops[tenant][slot]` is that slot's operation sequence; LBAs are
    /// relative to the volume.
    pub ops: Vec<Vec<Vec<Op>>>,
    pub job_inputs: Vec<Vec<u8>>,
    pub job_digests: Vec<u64>,
}

pub fn generate(seed: u64) -> Inputs {
    let ops = (0..TENANTS)
        .map(|t| {
            (0..QUEUE_DEPTH)
                .map(|s| {
                    let mut rng = Rng::new(seed, (t * QUEUE_DEPTH + s) as u64);
                    let base = s as u64 * SLOT_BLOCKS;
                    (0..FULL_OPS_PER_SLOT)
                        .map(|_| {
                            let kind = rng.below(10);
                            if kind == 9 {
                                return Op::Job {
                                    input: rng.below(JOB_INPUTS as u64) as usize,
                                };
                            }
                            let nlb = if rng.next_u64() & 1 == 0 { 1 } else { 8 };
                            let lba = base + rng.below(SLOT_BLOCKS - nlb as u64 + 1);
                            if kind < 6 {
                                Op::Read { lba, nlb }
                            } else {
                                Op::Write { lba, nlb }
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let job_inputs: Vec<Vec<u8>> = (0..JOB_INPUTS)
        .map(|i| {
            let mut rng = Rng::new(seed, 1_000 + i as u64);
            let mut buf = Vec::with_capacity(JOB_BYTES);
            while buf.len() < JOB_BYTES {
                buf.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            buf
        })
        .collect();
    let job_digests = job_inputs.iter().map(|b| oasis_accel::fnv1a(b)).collect();
    Inputs {
        ops,
        job_inputs,
        job_digests,
    }
}

impl Inputs {
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for op in self.ops.iter().flatten().flatten() {
            match *op {
                Op::Read { lba, nlb } => {
                    h.u64(0);
                    h.u64(lba);
                    h.u64(nlb as u64);
                }
                Op::Write { lba, nlb } => {
                    h.u64(1);
                    h.u64(lba);
                    h.u64(nlb as u64);
                }
                Op::Job { input } => {
                    h.u64(2);
                    h.u64(input as u64);
                }
            }
        }
        for d in &self.job_digests {
            h.u64(*d);
        }
        h.0
    }
}

/// The bytes a block holds after its `version`-th write (version 0: never
/// written, the drive returns zeros).
fn fill_block(out: &mut [u8], tenant: usize, lba: u64, version: u32) {
    if version == 0 {
        out.fill(0);
        return;
    }
    out.fill((version as u8) ^ (lba as u8) ^ ((tenant as u8) << 6));
    out[..8].copy_from_slice(&lba.to_le_bytes());
    out[8..12].copy_from_slice(&version.to_le_bytes());
}

/// One in-flight operation of a slot.
#[derive(Clone, Copy)]
struct Pending {
    cid: u16,
    op: Op,
    submitted: SimTime,
}

struct Tenant {
    host: usize,
    vol: VolumeHandle,
    /// Next operation index per slot.
    cursor: Vec<usize>,
    pending: Vec<Option<Pending>>,
    /// Write count per volume block: what a read must return.
    versions: Vec<u32>,
}

struct World {
    pod: Pod,
    tenants: Vec<Tenant>,
}

fn build() -> Result<World, String> {
    let mut b = PodBuilder::new(OasisConfig::default()).pool_bytes(256 << 20);
    let devices = [b.add_nic_host(), b.add_nic_host()];
    let hosts: Vec<usize> = (0..TENANTS).map(|_| b.add_host()).collect();
    for &d in &devices {
        b.add_ssd(d, SsdConfig::default());
        b.add_accel(d, AccelConfig::default());
    }
    let mut pod = b.build();
    let mut tenants = Vec::new();
    for &host in &hosts {
        let inst = pod.launch_instance(host, AppKind::None, 1_000);
        let blocks = QUEUE_DEPTH as u64 * SLOT_BLOCKS;
        let vol = pod
            .create_volume(inst, blocks)
            .ok_or("pod_devices_rw: no SSD capacity for a volume")?;
        tenants.push(Tenant {
            host,
            vol,
            cursor: vec![0; QUEUE_DEPTH],
            pending: vec![None; QUEUE_DEPTH],
            versions: vec![0; blocks as usize],
        });
    }
    Ok(World { pod, tenants })
}

/// Per-kind simulated latencies (ns, on the poll grid) and failure count.
#[derive(Default)]
struct Tally {
    read: Vec<u64>,
    write: Vec<u64>,
    job: Vec<u64>,
    failed: u64,
    mismatch: Option<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.mismatch.get_or_insert(what);
    }
}

/// Submit the next operation of `slot`, if the engine accepts it now.
fn submit(
    pod: &mut Pod,
    t: &mut Tenant,
    tenant: usize,
    slot: usize,
    inputs: &Inputs,
    ops_per_slot: usize,
    scratch: &mut Vec<u8>,
) {
    let i = t.cursor[slot];
    if i >= ops_per_slot {
        return;
    }
    let op = inputs.ops[tenant][slot][i];
    let cid = match op {
        Op::Read { lba, nlb } => pod.volume_read(t.vol, lba, nlb),
        Op::Write { lba, nlb } => {
            scratch.resize(nlb as usize * BLOCK_SIZE as usize, 0);
            for (k, block) in scratch.chunks_exact_mut(BLOCK_SIZE as usize).enumerate() {
                let b = lba + k as u64;
                fill_block(block, tenant, b, t.versions[b as usize] + 1);
            }
            pod.volume_write(t.vol, lba, scratch)
        }
        Op::Job { input } => pod
            .submit_accel_job(t.host, AccelOp::Checksum, 0, &inputs.job_inputs[input])
            .ok()
            .flatten(),
    };
    // A refusal is back-pressure (no free staging buffer or a full
    // channel): the slot tries again at the next poll instant.
    let Some(cid) = cid else { return };
    if let Op::Write { lba, nlb } = op {
        for b in lba..lba + nlb as u64 {
            t.versions[b as usize] += 1;
        }
    }
    t.cursor[slot] = i + 1;
    t.pending[slot] = Some(Pending {
        cid,
        op,
        submitted: pod.now(),
    });
}

/// The in-flight operation a completion belongs to. Storage and accel
/// command ids are numbered independently, hence `storage`.
fn take_pending(t: &mut Tenant, cid: u16, storage: bool) -> Option<Pending> {
    t.pending
        .iter_mut()
        .find(|p| p.is_some_and(|p| p.cid == cid && storage != matches!(p.op, Op::Job { .. })))?
        .take()
}

/// The timed region: keep every slot busy until every sequence is done.
fn drive(
    w: &mut World,
    inputs: &Inputs,
    ops_per_slot: usize,
    tr: &mut Tracer,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut scratch = Vec::new();
    let mut expect = Vec::new();
    let total = (TENANTS * QUEUE_DEPTH * ops_per_slot) as u64;
    let mut done = 0u64;
    // Far more simulated time than the work needs: a stall fails the
    // check instead of hanging the run.
    let deadline = w.pod.now() + SimDuration::from_secs(30);
    while done < total {
        let World { pod, tenants } = &mut *w;
        let now = pod.now();
        for (ti, t) in tenants.iter_mut().enumerate() {
            let ios = tr.short("core.pod.drain", || pod.take_storage_completions(t.host));
            for io in ios {
                let Some(p) = take_pending(t, io.cid, true) else {
                    tally.fail(format!("unknown storage completion cid {}", io.cid));
                    continue;
                };
                done += 1;
                let lat = (now - p.submitted).as_nanos();
                if !io.status.is_ok() {
                    tally.fail(format!("I/O status {:?}", io.status));
                    continue;
                }
                match p.op {
                    Op::Read { lba, nlb } => {
                        tally.read.push(lat);
                        expect.resize(nlb as usize * BLOCK_SIZE as usize, 0);
                        for (k, block) in expect.chunks_exact_mut(BLOCK_SIZE as usize).enumerate() {
                            let b = lba + k as u64;
                            fill_block(block, ti, b, t.versions[b as usize]);
                        }
                        if io.data.as_deref() != Some(&expect[..]) {
                            tally.fail(format!("tenant {ti} read of lba {lba}+{nlb}: wrong data"));
                        }
                    }
                    _ => tally.write.push(lat),
                }
            }
            let jobs = tr.short("core.pod.drain", || pod.take_accel_completions(t.host));
            for job in jobs {
                let Some(p) = take_pending(t, job.cid, false) else {
                    tally.fail(format!("unknown accel completion cid {}", job.cid));
                    continue;
                };
                done += 1;
                tally.job.push((now - p.submitted).as_nanos());
                let Op::Job { input } = p.op else { continue };
                if !job.status.is_ok() || job.result != inputs.job_digests[input] {
                    tally.fail(format!("tenant {ti} job on input {input}: wrong digest"));
                }
            }
            for slot in 0..QUEUE_DEPTH {
                if t.pending[slot].is_none() {
                    tr.short("core.pod.submit", || {
                        submit(pod, t, ti, slot, inputs, ops_per_slot, &mut scratch)
                    });
                }
            }
        }
        if done == total {
            break;
        }
        check(now < deadline, || {
            format!("pod_devices_rw: stalled with {done} of {total} operations complete")
        })?;
        tr.short("core.pod.run", || pod.run(now + POLL_QUANTUM));
    }
    Ok(tally)
}

fn grouped(samples: &mut [u64], p: f64) -> Result<f64, String> {
    samples.sort_unstable();
    percentile_grouped(samples, p, POLL_QUANTUM.as_nanos())
        .ok_or_else(|| format!("p{p} needs more than {} samples", samples.len()))
}

pub fn rep(inputs: &Inputs, scale: Scale, tr: &mut Tracer) -> Result<Rep, String> {
    let ops_per_slot = FULL_OPS_PER_SLOT / scale.div() as usize;
    let mut world = tr.span("core.pod.build", |_| build())?;
    let started = world.pod.now();

    let t0 = Instant::now();
    let run = tr.begin("core.pod.drive");
    let mut tally = drive(&mut world, inputs, ops_per_slot, tr)?;
    tr.end(run);
    let wall_s = t0.elapsed().as_secs_f64();

    let attempted = (TENANTS * QUEUE_DEPTH * ops_per_slot) as u64;
    let ops = (tally.read.len() + tally.write.len() + tally.job.len()) as u64;
    check(tally.failed == 0 && ops == attempted, || {
        format!(
            "pod_devices_rw: {} of {attempted} operations failed ({})",
            tally.failed.max(attempted - ops),
            tally.mismatch.as_deref().unwrap_or("missing completions")
        )
    })?;
    let snapshot = tr.span("core.pod.snapshot", |_| world.pod.metrics_snapshot());

    let layer = vec![
        (
            "core.storage.read_p50_sim_ns",
            grouped(&mut tally.read, 50.0)?,
        ),
        (
            "core.storage.write_p50_sim_ns",
            grouped(&mut tally.write, 50.0)?,
        ),
        ("core.accel.job_p50_sim_ns", grouped(&mut tally.job, 50.0)?),
    ];
    let mut all = tally.read;
    all.append(&mut tally.write);
    all.append(&mut tally.job);
    let latency = Latency {
        p50_ns: grouped(&mut all, 50.0)?,
        p99_ns: grouped(&mut all, 99.0)?,
        samples: all.len() as u64,
    };
    Ok(Rep {
        wall_s,
        ops,
        attempted,
        failed: 0,
        latency,
        digest: Fnv::of(snapshot.to_json().as_bytes()),
        snapshot,
        sim_ns: (world.pod.now() - started).as_nanos(),
        layer,
    })
}
