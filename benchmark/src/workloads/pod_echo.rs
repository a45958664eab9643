//! `pod_echo` — open loop. One pod, 2 NIC hosts + 4 NIC-less hosts, four
//! 1 µs UDP echo instances reached over the full Oasis datapath (frontend →
//! channel → pool → backend → NIC → switch and back), four clients at
//! 100 k req/s Poisson each, frames half 75 B and half 1500 B.
//!
//! Why: the paper's headline path. The scheduler, the cache model, the
//! channels, the net engine, the NIC/switch models and the echo app do all
//! the work; the allocators, raft and the trace crate do none.

use std::time::Instant;

use oasis_apps::stats::{ClientStats, StatsHandle};
use oasis_apps::udp::{EchoServer, Pacing, UdpClient};
use oasis_core::config::{BufferPlacement, OasisConfig};
use oasis_core::instance::AppKind;
use oasis_core::pod::{Pod, PodBuilder};
use oasis_sim::time::{SimDuration, SimTime};

use super::{check, reduce_latency, Rep, Scale};
use crate::rng::{Fnv, Rng};
use crate::tracer::Tracer;

pub const CLIENTS: usize = 4;
/// Mean request rate per client.
pub const RATE_RPS: f64 = 100_000.0;
/// Simulated seconds of sending in a full repetition.
pub const FULL_SIM_NS: u64 = 500_000_000;
/// The paper's two frame sizes.
pub const FRAME_SIZES: [u16; 2] = [75, 1500];
/// First send; leaves the pod a moment to settle its rings.
const START: SimTime = SimTime::from_micros(20);
/// Simulated time after the last send for replies still in flight.
const DRAIN: SimDuration = SimDuration::from_millis(2);

/// Per-client send schedules: `(offset from START in ns, frame bytes)`.
pub struct Inputs {
    pub schedules: Vec<Vec<(u64, u16)>>,
}

/// A Poisson send schedule with a fair coin per frame size.
pub fn poisson_schedule(rng: &mut Rng, rate_rps: f64, horizon_ns: u64) -> Vec<(u64, u16)> {
    let mean_gap = 1e9 / rate_rps;
    let mut out = Vec::with_capacity((horizon_ns as f64 / mean_gap * 1.05) as usize);
    let mut t = rng.exp(mean_gap);
    while (t as u64) < horizon_ns {
        let size = FRAME_SIZES[(rng.next_u64() & 1) as usize];
        out.push((t as u64, size));
        t += rng.exp(mean_gap);
    }
    out
}

pub fn generate(seed: u64) -> Inputs {
    Inputs {
        schedules: (0..CLIENTS)
            .map(|c| poisson_schedule(&mut Rng::new(seed, c as u64), RATE_RPS, FULL_SIM_NS))
            .collect(),
    }
}

/// Digest of a set of send schedules (the generated input of the echo
/// workloads).
pub fn schedules_digest(schedules: &[Vec<(u64, u16)>]) -> u64 {
    let mut h = Fnv::default();
    for s in schedules {
        h.u64(s.len() as u64);
        for &(ns, size) in s {
            h.u64(ns);
            h.u64(size as u64);
        }
    }
    h.0
}

impl Inputs {
    pub fn digest(&self) -> u64 {
        schedules_digest(&self.schedules)
    }
}

/// The prefix of a schedule that falls inside a scaled horizon.
pub fn prefix(schedule: &[(u64, u16)], horizon_ns: u64) -> Vec<(u64, u16)> {
    let n = schedule.partition_point(|&(ns, _)| ns < horizon_ns);
    schedule[..n].to_vec()
}

/// Every request of every client must have exactly one reply. Returns
/// `(attempted, failed, rtt samples)`; a lost request and a duplicated
/// reply each count as one failure.
pub fn collect_echoes(stats: &[StatsHandle], expect: &[usize]) -> (u64, u64, Vec<u64>) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rtts = Vec::new();
    for (s, &want) in stats.iter().zip(expect) {
        let s = s.borrow();
        attempted += want as u64;
        let mut answered = 0u64;
        for &(sent, done) in &s.requests {
            if let Some(done) = done {
                answered += 1;
                rtts.push((done - sent).as_nanos());
            }
        }
        let unsent = (want as u64).saturating_sub(s.sent);
        let lost = s.sent - answered;
        let duplicated = s.received - answered;
        failed += unsent + lost + duplicated;
    }
    (attempted, failed, rtts)
}

fn build(inputs: &Inputs, horizon_ns: u64) -> (Pod, Vec<StatsHandle>, Vec<usize>) {
    let mut b = PodBuilder::new(OasisConfig::default());
    b.add_nic_host();
    b.add_nic_host();
    let tenants: Vec<usize> = (0..CLIENTS).map(|_| b.add_host()).collect();
    let mut pod = b.build();
    let mut stats = Vec::new();
    let mut expect = Vec::new();
    for (c, &host) in tenants.iter().enumerate() {
        let inst = pod.launch_instance(
            host,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            10_000,
        );
        let schedule = prefix(&inputs.schedules[c], horizon_ns);
        expect.push(schedule.len());
        let handle = ClientStats::handle();
        pod.add_endpoint(Box::new(UdpClient::new(
            c as u64 + 1,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            64,
            Pacing::Replay(schedule),
            START,
            handle.clone(),
        )));
        stats.push(handle);
    }
    (pod, stats, expect)
}

pub fn rep(inputs: &Inputs, scale: Scale, tr: &mut Tracer) -> Result<Rep, String> {
    let horizon_ns = FULL_SIM_NS / scale.div();
    let (mut pod, stats, expect) = tr.span("core.pod.build", |_| build(inputs, horizon_ns));
    let until = START + SimDuration::from_nanos(horizon_ns) + DRAIN;

    let t0 = Instant::now();
    tr.span("core.pod.run", |_| pod.run(until));
    let wall_s = t0.elapsed().as_secs_f64();

    let snapshot = tr.span("core.pod.snapshot", |_| pod.metrics_snapshot());
    let (attempted, failed, mut rtts) = collect_echoes(&stats, &expect);
    check(failed == 0, || {
        format!("pod_echo: {failed} of {attempted} requests lost or answered twice")
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

/// Simulated nanoseconds of the accuracy anchor's two short runs.
const ANCHOR_SIM_NS: u64 = 20_000_000;
/// EXPERIMENTS.md records the simulator's Oasis − baseline P50 overhead as
/// 3.6–6.1 µs against the paper's 4–7 µs; the anchor accepts 3–7 µs.
pub const ANCHOR_BAND_NS: (f64, f64) = (3_000.0, 7_000.0);

/// Accuracy anchor: the first client's schedule played once against an
/// instance behind a remote NIC (Oasis) and once against a Junction-style
/// baseline host with a local NIC; the difference of the two simulated
/// median RTTs must fall in the band EXPERIMENTS.md records against the
/// paper. Returns that difference in ns.
pub fn accuracy_anchor(inputs: &Inputs) -> Result<f64, String> {
    let schedule = prefix(&inputs.schedules[0], ANCHOR_SIM_NS);
    let p50 = |oasis: bool| -> Result<f64, String> {
        let mut b = PodBuilder::new(OasisConfig::default());
        let host = if oasis {
            b.add_nic_host();
            b.add_host()
        } else {
            b.add_baseline_host(BufferPlacement::LocalDdr)
        };
        let mut pod = b.build();
        let inst = pod.launch_instance(
            host,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            10_000,
        );
        let handle = ClientStats::handle();
        pod.add_endpoint(Box::new(UdpClient::new(
            1,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            64,
            Pacing::Replay(schedule.clone()),
            START,
            handle.clone(),
        )));
        pod.run(START + SimDuration::from_nanos(ANCHOR_SIM_NS) + DRAIN);
        let (attempted, failed, mut rtts) = collect_echoes(&[handle], &[schedule.len()]);
        check(failed == 0, || {
            format!("accuracy anchor: {failed} of {attempted} requests failed")
        })?;
        Ok(reduce_latency(&mut rtts)?.p50_ns)
    };
    let overhead = p50(true)? - p50(false)?;
    check(
        (ANCHOR_BAND_NS.0..=ANCHOR_BAND_NS.1).contains(&overhead),
        || {
            format!(
                "accuracy anchor: Oasis - baseline p50 = {overhead} ns, outside {}..{} ns",
                ANCHOR_BAND_NS.0, ANCHOR_BAND_NS.1
            )
        },
    )?;
    Ok(overhead)
}
