//! `fleet_replay` — closed loop, one command in flight. The 64-pod ×
//! 8-host ring fleet of the repo's `fleet_replay` binary: about 126 k
//! arrivals become about 210 k `FleetCommand`s (create, kill, resize)
//! through `FleetAllocator::execute`. A repetition times a block of
//! back-to-back `AllocTrace::replay_fleet` calls for throughput, then drives
//! the same command sequence one `execute` at a time with a timer around
//! each for per-command latency.
//!
//! Why: pure control plane — the fleet allocator, raft and the trace crate.
//! Every data-plane layer is bypassed, so a data-plane optimisation must
//! predict "no change" here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use oasis_core::allocator::{FleetAllocator, FleetCommand, FleetResponse};
use oasis_cxl::topology::{FleetTopology, PodTopology, UPLINK_LATENCY};
use oasis_obs::MetricSink;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_trace::alloc_trace::HostCapacity;
use oasis_trace::{
    export_fleet_stranding, measure_fleet_stranding, AllocTrace, ArrivalStream, FleetReplay,
    HomePolicy,
};

use super::{check, reduce_latency, Rep, Scale};
use crate::rng::Fnv;
use crate::tracer::Tracer;

pub const PODS: usize = 64;
pub const HOSTS_PER_POD: usize = 8;
const HOURS: u64 = 14;
/// Every 37th placement is followed by a same-lease resize, as in the
/// repo's own replay.
const RESIZE_EVERY: usize = 37;
/// `replay_fleet` calls in the timed block of a full repetition.
pub const FULL_REPLAYS: u64 = 24;
/// Latency passes per full repetition (odd, so each command has a middle
/// sample).
pub const FULL_LATENCY_PASSES: u64 = 9;
/// The seed ISSUE 12 pins the replay shape for.
pub const SHAPE_SEED: u64 = 2025;
/// (placed, rejected, spill placements) at [`SHAPE_SEED`].
pub const SHAPE: (u64, u64, u64) = (81_340, 45_007, 36_809);

pub struct Inputs {
    pub stream: ArrivalStream,
    pub topo: FleetTopology,
    seed: u64,
}

/// The arrival stream comes from the trace crate's generator driven by the
/// benchmark's seed; the allocator under test receives only the arrivals.
pub fn generate(seed: u64, tr: &mut Tracer) -> Inputs {
    let stream = tr.span("trace.stream_gen", |_| {
        ArrivalStream::generate(
            PODS * HOSTS_PER_POD,
            SimDuration::from_secs(HOURS * 3600),
            seed,
        )
    });
    let topo = FleetTopology::ring(
        PODS,
        PodTopology::production(HOSTS_PER_POD, 0),
        UPLINK_LATENCY,
    );
    Inputs { stream, topo, seed }
}

impl Inputs {
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.stream.arrivals.len() as u64);
        for a in &self.stream.arrivals {
            h.u64(a.at);
            h.u64(a.ends);
            h.u64(a.type_idx as u64);
        }
        h.0
    }
}

fn replay(inputs: &Inputs) -> Result<FleetReplay, String> {
    AllocTrace::replay_fleet(
        &inputs.stream,
        &inputs.topo,
        HomePolicy::RoundRobin,
        RESIZE_EVERY,
    )
    .map_err(|e| format!("replay_fleet: {e}"))
}

/// Commands a completed replay logged.
fn commands_of(inputs: &Inputs, replay: &FleetReplay) -> u64 {
    let r = replay.state.report();
    PODS as u64
        + inputs.topo.links.len() as u64
        + r.placed
        + r.rejected
        + r.killed
        + replay.state.resizes
}

fn check_shape(inputs: &Inputs, replay: &FleetReplay) -> Result<(), String> {
    let r = replay.state.report();
    let got = (r.placed, r.rejected, r.spill_placements);
    if inputs.seed == SHAPE_SEED {
        check(got == SHAPE, || {
            format!("fleet_replay: (placed, rejected, spill) = {got:?}, expected {SHAPE:?}")
        })?;
    }
    check(
        inputs.stream.arrivals.len() >= 100_000 && r.spill_placements > 0 && r.live == 0,
        || {
            format!(
                "fleet_replay: {} arrivals, {} spill placements, {} still live",
                inputs.stream.arrivals.len(),
                r.spill_placements,
                r.live
            )
        },
    )?;
    check(
        r.placed + r.rejected == inputs.stream.arrivals.len() as u64 && r.killed == r.placed,
        || "fleet_replay: arrivals not all placed-or-rejected, or placements not all killed".into(),
    )
}

/// One latency pass: the command sequence `ReplaySession` issues, driven
/// here one `execute` at a time. Returns the allocator, per-command wall
/// nanoseconds, and how many commands returned `Err`.
fn latency_pass(inputs: &Inputs, tr: &mut Tracer) -> (FleetAllocator, Vec<u64>, u64) {
    let cap = HostCapacity::default();
    let mut alloc = FleetAllocator::new();
    let mut lat: Vec<u64> = Vec::with_capacity(inputs.stream.arrivals.len() * 2);
    let mut failed = 0u64;
    let mut exec = |alloc: &mut FleetAllocator, now: SimTime, cmd: &FleetCommand| {
        let t0 = Instant::now();
        let out = alloc.execute(now, cmd);
        let ns = t0.elapsed().as_nanos() as u64;
        lat.push(ns);
        let class = match (&out, cmd) {
            (Err(_), _) => {
                failed += 1;
                "core.alloc.error"
            }
            (
                Ok(FleetResponse::Created {
                    pod, device_pod, ..
                }),
                _,
            ) if pod == device_pod => "core.alloc.create_local",
            (Ok(FleetResponse::Created { .. }), _) => "core.alloc.create_spill",
            (Ok(_), FleetCommand::CreateInstance { .. }) => "core.alloc.create_reject",
            (Ok(_), FleetCommand::KillInstance { .. }) => "core.alloc.kill",
            (Ok(_), FleetCommand::ResizeInstance { .. }) => "core.alloc.resize",
            (Ok(_), _) => "core.alloc.topology",
        };
        tr.fold(class, ns);
        out
    };

    for (p, pod) in inputs.topo.pods.iter().enumerate() {
        let cmd = FleetCommand::RegisterPod {
            pod: p as u32,
            hosts: pod.hosts as u32,
            vcpus_per_host: cap.vcpus,
            mem_gb_per_host: cap.mem_gb,
            nic_mbps: pod.hosts as u64 * cap.nic_mbps(),
            ssd_cap: pod.hosts as u64 * cap.ssd_gb as u64,
        };
        let _ = exec(&mut alloc, SimTime::ZERO, &cmd);
    }
    for l in &inputs.topo.links {
        let cmd = FleetCommand::AddLink {
            a: l.a as u32,
            b: l.b as u32,
            latency_ns: l.latency.as_nanos(),
        };
        let _ = exec(&mut alloc, SimTime::ZERO, &cmd);
    }
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    for (i, arr) in inputs.stream.arrivals.iter().enumerate() {
        let now = SimTime::from_nanos(arr.at);
        while let Some(&Reverse((ends, id))) = departures.peek() {
            if ends > arr.at {
                break;
            }
            departures.pop();
            let _ = exec(
                &mut alloc,
                now,
                &FleetCommand::KillInstance { at: ends, id },
            );
        }
        let ty = &inputs.stream.catalog[arr.type_idx];
        let nic_mbps = ty.nic_mbps() as u32;
        let create = FleetCommand::CreateInstance {
            at: arr.at,
            vcpus: ty.vcpus,
            mem_gb: ty.mem_gb,
            ssd: ty.ssd_gb,
            nic_mbps,
            home_pod: (i % PODS) as u32,
        };
        if let Ok(FleetResponse::Created { id, .. }) = exec(&mut alloc, now, &create) {
            departures.push(Reverse((arr.ends, id)));
            if (id + 1) % RESIZE_EVERY as u64 == 0 {
                let resize = FleetCommand::ResizeInstance {
                    at: arr.at,
                    id,
                    nic_mbps,
                    ssd: ty.ssd_gb,
                };
                let _ = exec(&mut alloc, now, &resize);
            }
        }
    }
    while let Some(Reverse((ends, id))) = departures.pop() {
        let kill = FleetCommand::KillInstance { at: ends, id };
        let _ = exec(&mut alloc, SimTime::from_nanos(ends), &kill);
    }
    (alloc, lat, failed)
}

pub fn rep(inputs: &Inputs, scale: Scale, tr: &mut Tracer) -> Result<Rep, String> {
    let replays = (FULL_REPLAYS / scale.div()).max(1);
    let passes = (FULL_LATENCY_PASSES / scale.div()).max(1);

    // Throughput: a timed block of whole replays.
    let t0 = Instant::now();
    let mut last = None;
    for _ in 0..replays {
        last = Some(tr.span("trace.replay_fleet", |_| replay(inputs))?);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let replayed = last.expect("at least one replay");
    check_shape(inputs, &replayed)?;
    let commands = commands_of(inputs, &replayed);

    // Latency: the same commands, one timed `execute` at a time. Every pass
    // issues the identical sequence, so command i has one sample per pass;
    // its latency is the median of those. A page fault or an interrupt lands
    // on different commands in different passes and drops out, where a
    // percentile over raw samples would read three times higher whenever
    // one command in a hundred is disturbed.
    let mut by_pass: Vec<Vec<u64>> = Vec::new();
    let mut failed = 0u64;
    let mut audited = None;
    for _ in 0..passes {
        let open = tr.begin("core.alloc.latency_pass");
        let (alloc, lat, errs) = latency_pass(inputs, tr);
        tr.end(open);
        failed += errs;
        check(
            lat.len() as u64 == commands && alloc.state == replayed.state,
            || {
                format!(
                    "fleet_replay: the latency pass issued {} commands and replay_fleet \
                     {commands}, or their final states differ",
                    lat.len()
                )
            },
        )?;
        by_pass.push(lat);
        audited = Some(alloc);
    }
    let mut across = vec![0u64; by_pass.len()];
    let mut per_command: Vec<u64> = (0..commands as usize)
        .map(|i| {
            for (slot, pass) in across.iter_mut().zip(&by_pass) {
                *slot = pass[i];
            }
            across.sort_unstable();
            across[across.len() / 2]
        })
        .collect();
    let mut latency = reduce_latency(&mut per_command)?;
    latency.samples = commands * passes;
    check(failed == 0, || {
        format!("fleet_replay: {failed} commands returned Err")
    })?;
    let alloc = audited.expect("at least one latency pass");
    let consistent = tr.span("core.alloc.log_audit", |_| alloc.consistent_with_log());
    check(consistent, || {
        "fleet_replay: allocator state diverged from its raft log".to_string()
    })?;

    // The replay's one canonical snapshot: allocator counters plus the
    // per-pod stranding integrals, as `fleet_replay --json` prints it.
    let snapshot = tr.span("core.pod.snapshot", |_| {
        let mut sink = MetricSink::new();
        replayed.state.export_metrics(&mut sink);
        export_fleet_stranding(&measure_fleet_stranding(&replayed), &mut sink);
        sink.snapshot()
    });
    Ok(Rep {
        wall_s,
        ops: commands * replays,
        attempted: commands * (replays + passes),
        failed,
        latency,
        digest: Fnv::of(snapshot.to_json().as_bytes()),
        snapshot,
        sim_ns: 0,
        layer: Vec::new(),
    })
}
