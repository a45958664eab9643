//! Layer probes: each layer's public API driven in isolation, with inputs
//! shaped like the workloads', reporting host nanoseconds per call. The
//! probes give the cost map its unit prices; the counters give the
//! quantities.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use oasis_accel::{AccelCommand, AccelConfig, AccelDevice, AccelOp};
use oasis_apps::udp::EchoServer;
use oasis_channel::runner::run_offered_load_snap;
use oasis_channel::{ChannelLayout, Policy, Receiver, Sender};
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{Pod, PodBuilder};
use oasis_cxl::dma::{DmaMemory, MemRef};
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator};
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::packet::UdpPacket;
use oasis_net::switch::Switch;
use oasis_raft::{RaftConfig, RaftNode};
use oasis_sim::event::EventQueue;
use oasis_sim::sched::{Scheduler, StepOutcome};
use oasis_sim::shard::{Envelope, Outgoing, ShardWorld, ShardedRunner};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::command::{NvmeCommand, NvmeOpcode};
use oasis_storage::ssd::{Ssd, SsdConfig};

use crate::stats::median;

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 3;

/// Median over batches of `batch()`'s nanoseconds divided by the calls it
/// made. The first batch doubles as warm-up and is dropped.
fn per_call(calls: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn pool_and_host() -> (CxlPool, HostCtx) {
    let mut pool = CxlPool::new(1 << 22, 2);
    let mut ra = RegionAllocator::new(&pool);
    ra.alloc(&mut pool, "probe", 1 << 21, TrafficClass::Payload);
    (pool, HostCtx::new(PortId(0), 0))
}

/// Lines a default `HostCtx` cache holds; probes that need every access to
/// hit stay under it, probes that need every access to miss stride past it.
const CACHE_LINES: u64 = 4096;

fn sched_dispatch() -> f64 {
    // A pod registers two dozen polling actors; each re-arms 60 ns on.
    const ACTORS: usize = 24;
    const DISPATCHES: u64 = 400_000;
    per_call(DISPATCHES, || {
        let mut sched = Scheduler::new();
        for a in 0..ACTORS {
            sched.add_actor(SimTime::from_nanos(a as u64));
        }
        let deadline = SimTime::from_nanos(DISPATCHES / ACTORS as u64 * 60);
        let mut n = 0u64;
        sched.run_until(&mut n, deadline, |n, _actor, now| {
            *n += 1;
            StepOutcome::WakeAt(now + SimDuration::from_nanos(60))
        });
        black_box(n);
    })
}

fn eventq_push_pop() -> f64 {
    const OPS: u64 = 400_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..256u64 {
        q.push(SimTime::from_nanos(i * 37), i);
    }
    let mut t = 256 * 37;
    per_call(OPS, || {
        for _ in 0..OPS {
            t += 37;
            q.push(SimTime::from_nanos(t), t);
            black_box(q.pop());
        }
    })
}

/// An idle shard: no local events, the first shard sends one message per
/// window — the runner's window protocol is all that runs.
struct IdleShard {
    id: usize,
    now: SimTime,
    step: SimDuration,
}

impl ShardWorld for IdleShard {
    type Msg = u64;

    fn next_time(&self) -> SimTime {
        self.now
    }

    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<u64>>,
        outbox: &mut Vec<Outgoing<u64>>,
    ) -> u64 {
        inbox.clear();
        if self.id == 0 {
            outbox.push(Outgoing {
                dst: 1,
                at: self.now + self.step,
                msg: 1,
            });
        }
        self.now = until;
        1
    }
}

fn shard_window(threads: usize) -> f64 {
    const WINDOWS: u64 = 4_000;
    let step = SimDuration::from_micros(2);
    per_call(WINDOWS, || {
        let mut worlds: Vec<IdleShard> = (0..8)
            .map(|id| IdleShard {
                id,
                now: SimTime::ZERO,
                step,
            })
            .collect();
        let mut runner: ShardedRunner<u64> = ShardedRunner::new(8, step, threads);
        let until = SimTime::from_nanos(WINDOWS * step.as_nanos());
        runner.run(&mut worlds, until).expect("non-zero lookahead");
    })
}

fn read_hit() -> f64 {
    const OPS: u64 = 1_000_000;
    let (mut pool, mut host) = pool_and_host();
    per_call(OPS, || {
        for i in 0..OPS {
            black_box(host.read_u64(&mut pool, (i % 512) * 64));
        }
    })
}

fn read_miss() -> f64 {
    // Stride through four times the cache: every read misses and evicts.
    const OPS: u64 = 200_000;
    let (mut pool, mut host) = pool_and_host();
    per_call(OPS, || {
        for i in 0..OPS {
            black_box(host.read_u64(&mut pool, (i % (4 * CACHE_LINES)) * 64));
        }
    })
}

fn write_line() -> f64 {
    const OPS: u64 = 1_000_000;
    let (mut pool, mut host) = pool_and_host();
    let line = [7u8; 64];
    per_call(OPS, || {
        for i in 0..OPS {
            host.write(&mut pool, (i % 512) * 64, &line);
        }
    })
}

/// Cost per line of `op`, with every line put into the state `op` needs by
/// `prepare` first: rounds of prepare (untimed) then `op` (timed).
fn per_line(
    prepare: impl Fn(&mut HostCtx, &mut CxlPool, u64),
    op: impl Fn(&mut HostCtx, &mut CxlPool, u64),
) -> f64 {
    const LINES: u64 = 2_048;
    const ROUNDS: u64 = 64;
    let (mut pool, mut host) = pool_and_host();
    let mut timed = || {
        let mut ns = 0u128;
        for _ in 0..ROUNDS {
            for l in 0..LINES {
                prepare(&mut host, &mut pool, l * 64);
            }
            let t0 = Instant::now();
            for l in 0..LINES {
                op(&mut host, &mut pool, l * 64);
            }
            ns += t0.elapsed().as_nanos();
        }
        ns as f64 / (ROUNDS * LINES) as f64
    };
    timed();
    median(&(0..BATCHES).map(|_| timed()).collect::<Vec<_>>())
}

fn mfence() -> f64 {
    const OPS: u64 = 1_000_000;
    let (mut pool, mut host) = pool_and_host();
    per_call(OPS, || {
        for _ in 0..OPS {
            host.mfence(&mut pool);
        }
    })
}

fn dma_per_kib(write: bool) -> f64 {
    const OPS: u64 = 50_000;
    let (mut pool, host) = pool_and_host();
    let mut buf = vec![9u8; 4096];
    let mut t = 0u64;
    per_call(OPS * 4, || {
        for i in 0..OPS {
            t += 1_000;
            let addr = (i % 256) * 4096;
            if write {
                pool.dma_write(SimTime::from_nanos(t), host.port, addr, &buf);
            } else {
                pool.dma_read(SimTime::from_nanos(t), host.port, addr, &mut buf);
            }
        }
        black_box(&buf);
    })
}

fn channel_pair(slots: u64) -> (CxlPool, HostCtx, HostCtx, ChannelLayout) {
    let mut pool = CxlPool::new(1 << 21, 2);
    let mut ra = RegionAllocator::new(&pool);
    let region = ra.alloc(
        &mut pool,
        "probe",
        ChannelLayout::bytes_needed(slots, 16),
        TrafficClass::Message,
    );
    let layout = ChannelLayout::in_region(&region, slots, 16);
    (
        pool,
        HostCtx::new(PortId(0), 0),
        HostCtx::new(PortId(1), 0),
        layout,
    )
}

/// Wall ns per message moved through the final channel design (policy ④)
/// at saturation, sender and receiver stepped like the co-simulation does.
fn channel_msg() -> f64 {
    const MSGS: u64 = 100_000;
    per_call(MSGS, || {
        let (mut pool, mut tx, mut rx, layout) = channel_pair(8192);
        let mut sender = Sender::new(layout.clone());
        let mut receiver = Receiver::new(layout, Policy::InvalidatePrefetched);
        let msg = [3u8; 16];
        let mut out = [0u8; 16];
        let mut received = 0u64;
        while received < MSGS {
            if tx.clock <= rx.clock {
                if !sender.try_send(&mut tx, &mut pool, &msg).unwrap_or(false) {
                    tx.advance(100);
                }
            } else if receiver.try_recv(&mut rx, &mut pool, &mut out) {
                received += 1;
            }
        }
        black_box(out);
    })
}

fn channel_empty_poll() -> f64 {
    const OPS: u64 = 500_000;
    let (mut pool, _tx, mut rx, layout) = channel_pair(8192);
    let mut receiver = Receiver::new(layout, Policy::InvalidatePrefetched);
    let mut out = [0u8; 16];
    per_call(OPS, || {
        for _ in 0..OPS {
            black_box(receiver.try_recv(&mut rx, &mut pool, &mut out));
        }
    })
}

/// Share of receiver polls that find nothing, on one channel pair paced at
/// `pod_echo`'s per-channel rate (0.1 M msg/s). Pod snapshots do not export
/// receiver poll counts, so this comes from the channel layer alone.
fn channel_empty_poll_ratio() -> f64 {
    let (_, snap) = run_offered_load_snap(
        Policy::InvalidatePrefetched,
        8192,
        16,
        0.1,
        SimDuration::from_millis(2),
    );
    let empty = snap.counter_sum("channel.empty_polls") as f64;
    let consumed = snap.counter_sum("channel.receiver_consumed_total") as f64;
    if empty + consumed == 0.0 {
        0.0
    } else {
        empty / (empty + consumed)
    }
}

fn udp_packet(len: usize) -> UdpPacket {
    UdpPacket {
        src_mac: MacAddr::client(1),
        dst_mac: MacAddr::nic(0),
        src_ip: Ipv4Addr::client(1),
        dst_ip: Ipv4Addr::instance(1),
        src_port: 40_000,
        dst_port: 7,
        payload: Bytes::from(vec![0x5au8; len]),
    }
}

/// The workloads' frames are half 75 B and half 1500 B; so are the probes'.
const PAYLOADS: [usize; 2] = [75 - 42, 1500 - 42];

fn packet_encode() -> f64 {
    const OPS: u64 = 200_000;
    let packets = PAYLOADS.map(udp_packet);
    per_call(OPS, || {
        for i in 0..OPS {
            black_box(packets[(i & 1) as usize].encode());
        }
    })
}

fn packet_decode() -> f64 {
    const OPS: u64 = 200_000;
    let frames = PAYLOADS.map(|len| udp_packet(len).encode());
    per_call(OPS, || {
        for i in 0..OPS {
            black_box(UdpPacket::parse(&frames[(i & 1) as usize]));
        }
    })
}

fn switch_forward() -> f64 {
    const OPS: u64 = 200_000;
    let mut sw = Switch::new(8);
    let frames: Vec<_> = PAYLOADS
        .iter()
        .map(|&len| udp_packet(len).encode())
        .collect();
    let back = UdpPacket {
        src_mac: MacAddr::nic(0),
        dst_mac: MacAddr::client(1),
        ..udp_packet(8)
    }
    .encode();
    // Teach the switch both MACs so forwarding is unicast, not a flood.
    sw.forward(SimTime::ZERO, 0, frames[0].clone());
    sw.forward(SimTime::ZERO, 1, back);
    let mut t = 0u64;
    per_call(OPS, || {
        for i in 0..OPS {
            t += 10_000;
            black_box(sw.forward(SimTime::from_nanos(t), 0, frames[(i & 1) as usize].clone()));
        }
    })
}

/// Flat memory standing in for the pool on a device's DMA side.
struct FlatMem(Vec<u8>);

impl DmaMemory for FlatMem {
    fn dma_read(&mut self, _now: SimTime, mem: MemRef, out: &mut [u8]) {
        let (MemRef::Pool(a) | MemRef::HostLocal(a)) = mem;
        out.copy_from_slice(&self.0[a as usize..a as usize + out.len()]);
    }
    fn dma_write(&mut self, _now: SimTime, mem: MemRef, data: &[u8]) {
        let (MemRef::Pool(a) | MemRef::HostLocal(a)) = mem;
        self.0[a as usize..a as usize + data.len()].copy_from_slice(data);
    }
    fn dma_latency_ns(&self, _mem: MemRef) -> u64 {
        850
    }
}

fn ssd_cmd() -> f64 {
    const OPS: u64 = 50_000;
    let mut ssd = Ssd::new(SsdConfig::default());
    let mut mem = FlatMem(vec![0u8; 1 << 20]);
    let mut t = 0u64;
    per_call(OPS, || {
        for i in 0..OPS {
            t += 200_000;
            let now = SimTime::from_nanos(t);
            ssd.submit(NvmeCommand {
                opcode: if i % 3 == 0 {
                    NvmeOpcode::Write
                } else {
                    NvmeOpcode::Read
                },
                cid: i as u16,
                nsid: 1,
                data_ptr: (i % 64) * 4096,
                slba: i % 1024,
                nlb: 1,
                frontend: 0,
            });
            ssd.process(now, &mut mem);
            black_box(ssd.poll_completions(now + SimDuration::from_micros(150)));
        }
    })
}

fn accel_job() -> f64 {
    const OPS: u64 = 300;
    let mut dev = AccelDevice::new(AccelConfig::default());
    let mut mem = FlatMem(vec![0x3cu8; 1 << 20]);
    let mut t = 0u64;
    per_call(OPS, || {
        for i in 0..OPS {
            t += 200_000;
            let now = SimTime::from_nanos(t);
            dev.submit(
                now,
                AccelCommand {
                    op: AccelOp::Checksum,
                    cid: i as u16,
                    arg: 0,
                    input_ptr: 0,
                    output_ptr: 512 * 1024,
                    input_len: 64 * 1024,
                    frontend: 0,
                },
            );
            dev.process(now, &mut mem);
            black_box(dev.poll_completions(now + SimDuration::from_micros(150)));
        }
    })
}

fn raft_propose_apply() -> f64 {
    const OPS: u64 = 100_000;
    // A fresh single-replica group per batch keeps the log the same length
    // in every batch, as `FleetAllocator::new` starts one per replay.
    per_call(OPS, || {
        let mut raft = RaftNode::new(0, vec![], RaftConfig::default(), 0xF1EE7);
        raft.tick(SimTime::from_millis(25));
        let now = SimTime::from_millis(26);
        for i in 0..OPS {
            let mut cmd = vec![0u8; 40];
            cmd[..8].copy_from_slice(&i.to_le_bytes());
            black_box(raft.propose(now, cmd));
            black_box(raft.take_applied());
        }
    })
}

/// A `pod_echo`-shaped pod that has carried a little traffic.
fn small_pod() -> Pod {
    let mut b = PodBuilder::new(OasisConfig::default());
    b.add_nic_host();
    b.add_nic_host();
    let tenants: Vec<usize> = (0..4).map(|_| b.add_host()).collect();
    let mut pod = b.build();
    for host in tenants {
        pod.launch_instance(
            host,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            10_000,
        );
    }
    pod.run(SimTime::from_micros(200));
    pod
}

fn pod_snapshot_encode(pod: &Pod) -> f64 {
    const OPS: u64 = 200;
    per_call(OPS, || {
        for _ in 0..OPS {
            black_box(pod.snapshot());
        }
    })
}

fn pod_snapshot_restore(pod: &mut Pod) -> Result<f64, String> {
    const OPS: u64 = 200;
    let bytes = pod.snapshot();
    pod.restore(&bytes)
        .map_err(|e| format!("probe: pod restore failed: {e}"))?;
    Ok(per_call(OPS, || {
        for _ in 0..OPS {
            let _ = black_box(pod.restore(&bytes));
        }
    }))
}

fn snapshot_json(pod: &Pod) -> f64 {
    const OPS: u64 = 500;
    let snap = pod.metrics_snapshot();
    per_call(OPS, || {
        for _ in 0..OPS {
            black_box(snap.to_json());
        }
    })
}

/// Run every probe. Returns `(metric name, value)` for each probe metric of
/// `spec::PER_LAYER`.
pub fn run_all() -> Result<Vec<(&'static str, f64)>, String> {
    let mut pod = small_pod();
    Ok(vec![
        ("sim.sched.dispatch_ns", sched_dispatch()),
        ("sim.eventq.push_pop_ns", eventq_push_pop()),
        ("sim.shard.window_ns_t1", shard_window(1)),
        ("sim.shard.window_ns_t2", shard_window(2)),
        ("cxl.host.read_hit_ns", read_hit()),
        ("cxl.host.read_miss_ns", read_miss()),
        ("cxl.host.write_ns", write_line()),
        // Flushing a line that is present; prefetching one that is absent.
        (
            "cxl.host.clflushopt_ns",
            per_line(
                |h, p, a| {
                    h.read_u64(p, a);
                },
                |h, p, a| h.clflushopt(p, a),
            ),
        ),
        (
            "cxl.host.prefetch_ns",
            per_line(|h, p, a| h.clflushopt(p, a), |h, p, a| h.prefetch(p, a)),
        ),
        ("cxl.host.mfence_ns", mfence()),
        ("cxl.pool.dma_read_ns_per_kib", dma_per_kib(false)),
        ("cxl.pool.dma_write_ns_per_kib", dma_per_kib(true)),
        ("channel.msg_ns", channel_msg()),
        ("channel.empty_poll_ns", channel_empty_poll()),
        ("channel.empty_poll_ratio", channel_empty_poll_ratio()),
        ("net.packet.encode_ns", packet_encode()),
        ("net.packet.decode_ns", packet_decode()),
        ("net.switch.forward_ns", switch_forward()),
        ("storage.ssd.cmd_ns", ssd_cmd()),
        ("accel.device.job_ns", accel_job()),
        ("raft.propose_apply_ns", raft_propose_apply()),
        ("core.snapshot.pod_encode_ns", pod_snapshot_encode(&pod)),
        (
            "core.snapshot.pod_restore_ns",
            pod_snapshot_restore(&mut pod)?,
        ),
        ("obs.snapshot_json_ns", snapshot_json(&pod)),
    ])
}
