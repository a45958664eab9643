//! NIC pooling: four hosts, one NIC, many instances.
//!
//! The economic scenario of the paper's introduction: instead of one NIC
//! per host, a pod of four hosts shares a single NIC. The pod-wide
//! allocator places each instance's traffic (local-first, then
//! least-loaded), and all cross-host datapaths run over non-coherent CXL
//! memory.
//!
//! Run with: `cargo run --release --example nic_pooling`

use oasis::apps::stats::{ClientStats, StatsHandle};
use oasis::apps::udp::{EchoServer, Pacing, UdpClient};
use oasis::core::config::OasisConfig;
use oasis::core::instance::AppKind;
use oasis::core::pod::PodBuilder;
use oasis::sim::time::{SimDuration, SimTime};

fn main() {
    let mut builder = PodBuilder::new(OasisConfig::default());
    let nic_host = builder.add_nic_host(); // the pod's only NIC
    let others: Vec<usize> = (0..3).map(|_| builder.add_host()).collect();
    let mut pod = builder.build();

    // One echo instance per host; all share NIC 0.
    let mut instances = Vec::new();
    for host in std::iter::once(nic_host).chain(others.iter().copied()) {
        let inst = pod.launch_instance(
            host,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            10_000,
        );
        println!(
            "instance {} on host {host} -> NIC {:?} (lease 10 Gbit/s)",
            pod.instance_ip(inst),
            pod.allocator
                .actor
                .books()
                .instances
                .iter()
                .find(|i| i.ip == pod.instance_ip(inst))
                .map(|i| i.nic)
                .unwrap()
        );
        instances.push(inst);
    }
    println!(
        "allocator: NIC 0 has {} Mbit/s allocated of {} Mbit/s\n",
        pod.allocator.actor.books().nics[0]
            .as_ref()
            .unwrap()
            .allocated_mbps,
        pod.allocator.actor.books().nics[0]
            .as_ref()
            .unwrap()
            .capacity_mbps
    );

    // Four clients, one per instance, echoing concurrently.
    let mut handles: Vec<StatsHandle> = Vec::new();
    for (i, &inst) in instances.iter().enumerate() {
        let stats = ClientStats::handle();
        let client = UdpClient::new(
            (i + 1) as u64,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            200,
            Pacing::Poisson {
                rate_rps: 50_000.0,
                until: SimTime::from_millis(20),
            },
            SimTime::from_micros(100),
            stats.clone(),
        );
        pod.add_endpoint(Box::new(client));
        handles.push(stats);
    }
    pod.run(SimTime::from_millis(25));

    for (i, h) in handles.iter().enumerate() {
        let s = h.borrow();
        println!(
            "host {i}: {}/{} echoed, p50 {:.2} us, p99 {:.2} us",
            s.received,
            s.sent,
            s.rtt.percentile(50.0) as f64 / 1e3,
            s.rtt.percentile(99.0) as f64 / 1e3,
        );
    }
    let nic = &pod.nics[0];
    println!(
        "\nshared NIC carried {} frames ({} KB) for 4 hosts — 3 NICs saved",
        nic.stats.tx_frames + nic.stats.rx_frames,
        (nic.stats.tx_bytes + nic.stats.rx_bytes) / 1024,
    );
}
