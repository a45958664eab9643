//! `fleet_traffic` / `fleet_traffic_t2` — open loop. Eight pods (one NIC
//! host and two tenants each) joined in a chain by 2 µs uplinks. Each pod
//! has two clients at 50 k req/s Poisson: one targets an instance in its own
//! pod, one an instance in the next pod along the chain, so half the traffic
//! crosses `oasis_sim::shard`'s window exchange. `fleet_traffic` runs the
//! fleet with one shard thread, `fleet_traffic_t2` the same fleet with two.
//!
//! Why: the only workload where the sharded runner's windows, barriers and
//! merge do real work on real pods. A chain, not a ring: on a ring the
//! switches' unknown-MAC floods loop and clients see duplicate replies
//! (README, "Findings").

use std::time::Instant;

use oasis_apps::stats::{ClientStats, StatsHandle};
use oasis_apps::udp::{EchoServer, Pacing, UdpClient};
use oasis_core::config::OasisConfig;
use oasis_core::fleet::Fleet;
use oasis_core::instance::AppKind;
use oasis_core::pod::PodBuilder;
use oasis_cxl::topology::UPLINK_LATENCY;
use oasis_sim::time::{SimDuration, SimTime};

use super::pod_echo::{collect_echoes, poisson_schedule, prefix, schedules_digest};
use super::{check, reduce_latency, Rep, Scale};
use crate::rng::{Fnv, Rng};
use crate::tracer::Tracer;

pub const PODS: usize = 8;
pub const CLIENTS_PER_POD: usize = 2;
pub const RATE_RPS: f64 = 50_000.0;
/// Simulated nanoseconds of sending in a full repetition at one thread.
pub const FULL_SIM_NS: u64 = 141_000_000;
/// At two threads the barrier per 2 µs window dominates and the same
/// simulated span costs about three times the wall time, so the two-thread
/// workload simulates a third of it to keep a repetition the same length.
pub const FULL_SIM_NS_T2: u64 = FULL_SIM_NS / 3;
const START: SimTime = SimTime::from_micros(20);
const DRAIN: SimDuration = SimDuration::from_millis(2);

pub struct Inputs {
    /// `schedules[pod * 2 + k]`: k = 0 targets the pod's own instance,
    /// k = 1 the next pod's.
    pub schedules: Vec<Vec<(u64, u16)>>,
}

pub fn generate(seed: u64) -> Inputs {
    Inputs {
        schedules: (0..PODS * CLIENTS_PER_POD)
            .map(|c| poisson_schedule(&mut Rng::new(seed, c as u64), RATE_RPS, FULL_SIM_NS))
            .collect(),
    }
}

impl Inputs {
    pub fn digest(&self) -> u64 {
        schedules_digest(&self.schedules)
    }
}

/// The pod a pod's crossing client talks to: the next one along the chain
/// (the last pod turns back to its only neighbour), always one uplink away.
fn neighbour(pod: usize) -> usize {
    if pod + 1 < PODS {
        pod + 1
    } else {
        pod - 1
    }
}

fn build(
    inputs: &Inputs,
    horizon_ns: u64,
    threads: usize,
) -> Result<(Fleet, Vec<StatsHandle>, Vec<usize>), String> {
    let mut pods = Vec::new();
    // (mac, ip) of the instance local clients use, and of the one the
    // previous pod's crossing client uses.
    let mut local = Vec::new();
    let mut remote = Vec::new();
    for site in 0..PODS {
        let mut b = PodBuilder::new(OasisConfig::default()).site(site as u32);
        b.add_nic_host();
        let tenants = [b.add_host(), b.add_host()];
        let mut pod = b.build();
        let mut addr = Vec::new();
        for host in tenants {
            let inst = pod.launch_instance(
                host,
                AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
                10_000,
            );
            addr.push((pod.instance_mac(inst), pod.instance_ip(inst)));
        }
        local.push(addr[0]);
        remote.push(addr[1]);
        pods.push(pod);
    }
    let mut stats = Vec::new();
    let mut expect = Vec::new();
    for (p, pod) in pods.iter_mut().enumerate() {
        for k in 0..CLIENTS_PER_POD {
            let c = p * CLIENTS_PER_POD + k;
            let (mac, ip) = if k == 0 {
                local[p]
            } else {
                remote[neighbour(p)]
            };
            let schedule = prefix(&inputs.schedules[c], horizon_ns);
            expect.push(schedule.len());
            let handle = ClientStats::handle();
            pod.add_endpoint(Box::new(UdpClient::new(
                c as u64 + 1,
                mac,
                ip,
                7,
                64,
                Pacing::Replay(schedule),
                START,
                handle.clone(),
            )));
            stats.push(handle);
        }
    }
    let mut fleet = Fleet::with_threads(threads);
    for pod in pods {
        fleet.add_pod(pod).map_err(|e| format!("add_pod: {e}"))?;
    }
    for p in 0..PODS - 1 {
        fleet
            .connect(p, p + 1, UPLINK_LATENCY)
            .map_err(|e| format!("connect: {e}"))?;
    }
    Ok((fleet, stats, expect))
}

pub fn full_sim_ns(threads: usize) -> u64 {
    if threads > 1 {
        FULL_SIM_NS_T2
    } else {
        FULL_SIM_NS
    }
}

/// One repetition over `horizon_ns` of simulated sending.
pub fn rep_over(
    inputs: &Inputs,
    horizon_ns: u64,
    threads: usize,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    let (mut fleet, stats, expect) =
        tr.span("core.fleet.build", |_| build(inputs, horizon_ns, threads))?;
    let until = START + SimDuration::from_nanos(horizon_ns) + DRAIN;

    let t0 = Instant::now();
    let name = if threads > 1 {
        "core.fleet.run_t2"
    } else {
        "core.fleet.run_t1"
    };
    tr.span(name, |_| fleet.run(until))
        .map_err(|e| format!("fleet run: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();

    let snapshot = tr.span("core.pod.snapshot", |_| fleet.metrics_snapshot());
    let (attempted, failed, mut rtts) = collect_echoes(&stats, &expect);
    check(failed == 0, || {
        format!("fleet_traffic: {failed} of {attempted} requests lost or answered twice")
    })?;
    check(fleet.allocator().consistent_with_log(), || {
        "fleet_traffic: fleet allocator state diverged from its log".to_string()
    })?;
    let latency = reduce_latency(&mut rtts)?;
    Ok(Rep {
        wall_s,
        ops: rtts.len() as u64,
        attempted,
        failed,
        latency,
        digest: Fnv::of(snapshot.to_json().as_bytes()),
        snapshot,
        sim_ns: until.as_nanos(),
        layer: Vec::new(),
    })
}

pub fn rep(inputs: &Inputs, scale: Scale, threads: usize, tr: &mut Tracer) -> Result<Rep, String> {
    rep_over(inputs, full_sim_ns(threads) / scale.div(), threads, tr)
}

/// The thread-count identity check, run once per process: the same short span
/// simulated with one and with two shard threads must export byte-identical
/// snapshots and identical latencies.
pub fn thread_identity(inputs: &Inputs) -> Result<(), String> {
    let horizon = FULL_SIM_NS_T2 / Scale::Tenth.div();
    let mut off = Tracer::new(false);
    let one = rep_over(inputs, horizon, 1, &mut off)?;
    let two = rep_over(inputs, horizon, 2, &mut off)?;
    check(
        one.digest == two.digest && one.latency == two.latency && one.ops == two.ops,
        || {
            format!(
                "fleet_traffic: 1-thread and 2-thread runs differ (digest {:016x} vs {:016x})",
                one.digest, two.digest
            )
        },
    )
}
