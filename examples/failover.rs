//! NIC failover: losing a NIC interrupts traffic for only tens of
//! milliseconds.
//!
//! Reproduces §3.3.3 end to end: the serving NIC's switch port is disabled
//! mid-run; the backend's link monitor reports the failure to the pod-wide
//! allocator over message channels; the allocator reroutes the instance to
//! the pod's reserved backup NIC; the frontend "borrows" the failed NIC's
//! MAC so the switch re-points RX immediately — no application involvement.
//!
//! Run with: `cargo run --release --example failover`

use oasis::apps::stats::ClientStats;
use oasis::apps::udp::{EchoServer, Pacing, UdpClient};
use oasis::core::config::OasisConfig;
use oasis::core::instance::AppKind;
use oasis::core::pod::{PodBuilder, PodInput};
use oasis::sim::time::{SimDuration, SimTime};

fn main() {
    let mut builder = PodBuilder::new(OasisConfig::default());
    let host_a = builder.add_host(); // instance host
    let host_b = builder.add_nic_host(); // serving NIC (0)
    let host_c = builder.add_nic_host(); // backup NIC (1), reserved
    let mut pod = builder.backup_nic_on(host_c).build();

    let inst = pod.launch_instance(
        host_a,
        AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
        10_000,
    );
    println!(
        "instance {} served by NIC 0 (host {host_b}); backup NIC 1 (host {host_c})",
        pod.instance_ip(inst)
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
            count: 28_000,
        },
        SimTime::from_millis(1),
        stats.clone(),
    );
    pod.add_endpoint(Box::new(client));

    // Fail NIC 0 one second in (the paper's method: disable its switch
    // port; the PHY reports carrier loss ~37ms later).
    let fail_at = SimTime::from_secs(1);
    pod.schedule(fail_at, PodInput::DisableNicPort(0));
    pod.run(SimTime::from_secs(3));

    let s = stats.borrow();
    let losses = s.loss_times();
    println!(
        "\nsent {}, received {}, lost {}",
        s.sent,
        s.received,
        s.lost()
    );
    match (losses.first(), losses.last()) {
        (Some(first), Some(last)) => {
            println!(
                "failure injected at {:.3}s; losses from {:.4}s to {:.4}s",
                fail_at.as_secs_f64(),
                first.as_secs_f64(),
                last.as_secs_f64()
            );
            println!(
                "total interruption: {:.1} ms (paper: ~38 ms), then full recovery",
                (*last - *first).as_secs_f64() * 1e3
            );
        }
        _ => println!("no losses observed"),
    }
    println!(
        "allocator: NIC 0 marked failed; instance rerouted to NIC {:?}",
        pod.allocator
            .actor
            .books()
            .instances
            .iter()
            .find(|i| i.ip == pod.instance_ip(inst))
            .map(|i| i.nic)
            .unwrap()
    );
}
