//! Memory and build-time budget of a paper-scale fleet.
//!
//! Builds a 64-pod chain of 8-host pods (two NIC hosts and six tenants, one
//! UDP echo instance per tenant) and runs it for 10 ms of simulated time,
//! twice in one process: the second build is the one that lands on heap
//! chunks the first fleet freed, where an eagerly zeroed array is paid for
//! again. Prints, per build, the wall seconds to build and the process's
//! peak resident set (`VmHWM`) divided by the pod count, after the build and
//! after the run.
//!
//! Run it with `MALLOC_MMAP_THRESHOLD_=33554432`, as `benchmark/run.sh`
//! does: glibc then serves the second build's arrays from the freed heap,
//! so an array zeroed eagerly at build shows in the peak. (Left adaptive,
//! the threshold hands most of them fresh, lazily zeroed pages instead.)
//!
//! Usage:
//!   fleet_scale           print the table
//!   fleet_scale --check   also exit 1 when a build takes longer than
//!                         1 s or the peak exceeds 4 MiB per pod

#![expect(
    clippy::disallowed_methods,
    reason = "this binary measures wall-clock build time and the process's resident set; both \
              feed only the report, never any simulated byte"
)]

use std::time::Instant;

use oasis_apps::udp::EchoServer;
use oasis_core::config::OasisConfig;
use oasis_core::fleet::Fleet;
use oasis_core::instance::AppKind;
use oasis_core::pod::PodBuilder;
use oasis_cxl::topology::UPLINK_LATENCY;
use oasis_sim::report::Table;
use oasis_sim::time::{SimDuration, SimTime};

const PODS: usize = 64;
const NIC_HOSTS: usize = 2;
const TENANTS: usize = 6;
const RUN: SimTime = SimTime::from_millis(10);
/// Budget: wall seconds per build.
const MAX_BUILD_S: f64 = 1.0;
/// Budget: peak resident MiB per pod.
const MAX_MIB_PER_POD: f64 = 4.0;

fn build() -> Fleet {
    let mut fleet = Fleet::new();
    for site in 0..PODS {
        let mut b = PodBuilder::new(OasisConfig::default()).site(site as u32);
        for _ in 0..NIC_HOSTS {
            b.add_nic_host();
        }
        let tenants: Vec<usize> = (0..TENANTS).map(|_| b.add_host()).collect();
        let mut pod = b.build();
        for host in tenants {
            pod.launch_instance(
                host,
                AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
                10_000,
            );
        }
        fleet.add_pod(pod).expect("add pod");
    }
    for p in 0..PODS - 1 {
        fleet.connect(p, p + 1, UPLINK_LATENCY).expect("connect");
    }
    fleet
}

/// Peak resident set of this process so far, in MiB (Linux only).
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .expect("a VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut table = Table::new(vec![
        "build",
        "build s",
        "MiB/pod after build",
        "MiB/pod after run",
    ]);
    let mut over = Vec::new();
    for round in 1..=2 {
        let t0 = Instant::now();
        let mut fleet = build();
        let build_s = t0.elapsed().as_secs_f64();
        let built = vm_hwm_mib() / PODS as f64;
        fleet.run(RUN).expect("fleet run");
        let ran = vm_hwm_mib() / PODS as f64;
        table.row(vec![
            round.to_string(),
            format!("{build_s:.3}"),
            format!("{built:.2}"),
            format!("{ran:.2}"),
        ]);
        if build_s > MAX_BUILD_S {
            over.push(format!(
                "build {round} took {build_s:.3} s (budget {MAX_BUILD_S} s)"
            ));
        }
        if ran > MAX_MIB_PER_POD {
            over.push(format!(
                "build {round} peaked at {ran:.2} MiB per pod (budget {MAX_MIB_PER_POD} MiB)"
            ));
        }
    }
    println!(
        "fleet_scale: {PODS} pods x {} hosts, {RUN} simulated per build",
        NIC_HOSTS + TENANTS
    );
    print!("{}", table.render());
    for o in &over {
        eprintln!("over budget: {o}");
    }
    if check && !over.is_empty() {
        std::process::exit(1);
    }
}
