//! Graceful load-balancing migration (§3.3.4).
//!
//! The pod-wide allocator moves an instance's traffic from a loaded NIC to
//! an idle one *without losing a packet*: the instance is registered with
//! the new NIC first, announces its new MAC with a gratuitous ARP, receives
//! from both NICs during a grace period, and is then unregistered from the
//! old one.
//!
//! Run with: `cargo run --release --example load_balancing`

use oasis::apps::stats::ClientStats;
use oasis::apps::udp::{EchoServer, Pacing, UdpClient};
use oasis::core::config::OasisConfig;
use oasis::core::instance::AppKind;
use oasis::core::pod::{PodBuilder, PodInput};
use oasis::sim::time::{SimDuration, SimTime};

fn main() {
    // Short grace period so the example finishes quickly.
    let cfg = OasisConfig {
        migration_grace: SimDuration::from_millis(100),
        ..Default::default()
    };
    let mut builder = PodBuilder::new(cfg);
    let host_a = builder.add_host();
    let _host_b = builder.add_nic_host(); // NIC 0, initially serving
    let _host_c = builder.add_nic_host(); // NIC 1, migration target
    let mut pod = builder.build();

    let inst = pod.launch_instance(
        host_a,
        AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
        10_000,
    );
    println!(
        "instance {} starts on NIC 0 (MAC {})",
        pod.instance_ip(inst),
        pod.instance_mac(inst)
    );

    let stats = ClientStats::handle();
    let client = UdpClient::new(
        1,
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        7,
        64,
        Pacing::FixedGap {
            gap: SimDuration::from_micros(100),
            count: 4500,
        },
        SimTime::from_micros(100),
        stats.clone(),
    );
    pod.add_endpoint(Box::new(client));

    // The allocator decides to rebalance at t=100ms.
    pod.schedule(
        SimTime::from_millis(100),
        PodInput::Migrate(pod.instance_ip(inst), 1),
    );
    pod.run(SimTime::from_millis(500));

    let s = stats.borrow();
    println!(
        "sent {}, received {}, lost {} (graceful migration loses nothing)",
        s.sent,
        s.received,
        s.lost()
    );
    println!(
        "instance now answers on NIC 1 (MAC {}), announced via GARP",
        pod.instance_mac(inst)
    );
    println!(
        "old NIC registrations: {}; new NIC registrations: {}",
        pod.backends[0].registration_count(),
        pod.backends[1].registration_count()
    );
    assert_eq!(s.lost(), 0);
    assert_eq!(pod.instance_mac(inst), pod.nic_mac(1));
}
