//! Cross-crate integration tests through the `oasis` facade.

use oasis::apps::stats::ClientStats;
use oasis::apps::udp::{EchoServer, Pacing, UdpClient};
use oasis::core::config::OasisConfig;
use oasis::core::instance::AppKind;
use oasis::core::pod::{HostDriver, PodBuilder};
use oasis::cxl::pool::{PortId, TrafficClass};
use oasis::sim::time::{SimDuration, SimTime};
use oasis::trace::packet_trace::{HostProfile, PacketTrace};

fn echo_app() -> AppKind {
    AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1))))
}

#[test]
fn two_instances_share_one_nic_with_isolation() {
    // Two instances on two NIC-less hosts, both served by the single NIC.
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let h1 = b.add_host();
    let _nic_host = b.add_nic_host();
    let mut pod = b.build();
    let i0 = pod.launch_instance(h0, echo_app(), 10_000);
    let i1 = pod.launch_instance(h1, echo_app(), 10_000);

    let s0 = ClientStats::handle();
    let s1 = ClientStats::handle();
    for (cid, (inst, stats)) in [(1u64, (i0, &s0)), (2, (i1, &s1))] {
        let client = UdpClient::new(
            cid,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            128,
            Pacing::FixedGap {
                gap: SimDuration::from_micros(40),
                count: 100,
            },
            SimTime::from_micros(100),
            stats.clone(),
        );
        pod.add_endpoint(Box::new(client));
    }
    pod.run(SimTime::from_millis(10));

    // Both clients got all their echoes; instances saw only their own
    // datagrams (flow tagging isolates them).
    assert_eq!(s0.borrow().received, 100);
    assert_eq!(s1.borrow().received, 100);
    assert_eq!(pod.instances[i0].stats.udp_datagrams, 100);
    assert_eq!(pod.instances[i1].stats.udp_datagrams, 100);
    // The backend never had to inspect a payload: flow tags matched.
    assert_eq!(pod.backends[0].stats.rx_tag_miss, 0);
    // Both frontends routed through the same NIC.
    for h in [h0, h1] {
        let HostDriver::Oasis(fe) = &pod.drivers[h] else {
            unreachable!()
        };
        assert!(fe.stats.tx_packets >= 100);
    }
}

#[test]
fn trace_replay_through_pod_carries_bursts() {
    // Feed a generated bursty trace through the full Oasis datapath.
    let mut profile = HostProfile::rack_a()[3].clone();
    profile.large_gbps = 8.0; // keep bursts within one polling core
    let trace = PacketTrace::generate(&profile, SimDuration::from_millis(200), 5);
    assert!(trace.len() > 100);

    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let _n = b.add_nic_host();
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, echo_app(), 10_000);
    let stats = ClientStats::handle();
    let client = UdpClient::new(
        1,
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        7,
        64,
        Pacing::Replay(trace.events.clone()),
        SimTime::from_micros(100),
        stats.clone(),
    );
    pod.add_endpoint(Box::new(client));
    pod.run(SimTime::from_millis(250));

    let s = stats.borrow();
    assert_eq!(s.sent, trace.len() as u64);
    let loss_rate = s.lost() as f64 / s.sent as f64;
    assert!(loss_rate < 0.01, "loss {loss_rate} too high for this load");
}

#[test]
fn pool_accounting_balances() {
    // Every byte DMA'd or fetched is metered on some port; payload class
    // only appears when traffic flows.
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let _n = b.add_nic_host();
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, echo_app(), 10_000);

    pod.run(SimTime::from_millis(1));
    let payload_before: u64 = (0..pod.pool.ports())
        .map(|p| pod.pool.meter(PortId(p)).class_bytes(TrafficClass::Payload))
        .sum();
    assert_eq!(payload_before, 0, "no payload traffic before clients");

    let stats = ClientStats::handle();
    let client = UdpClient::new(
        1,
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        7,
        1000,
        Pacing::FixedGap {
            gap: SimDuration::from_micros(50),
            count: 20,
        },
        SimTime::from_millis(1),
        stats.clone(),
    );
    pod.add_endpoint(Box::new(client));
    pod.run(SimTime::from_millis(4));

    let payload_after: u64 = (0..pod.pool.ports())
        .map(|p| pod.pool.meter(PortId(p)).class_bytes(TrafficClass::Payload))
        .sum();
    // 20 echoes x ~1042B frames x (DMA write + fe read + fe write + DMA
    // read) >= 4 x 20 x 1000.
    assert!(payload_after >= 80_000, "payload bytes {payload_after}");
    assert_eq!(stats.borrow().received, 20);
}

#[test]
fn allocator_respects_capacity_across_launches() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let _n = b.add_nic_host(); // 100 Gbit/s capacity
    let mut pod = b.build();
    // 9 instances x 10G fit; a 20G tenth does not.
    for _ in 0..9 {
        pod.launch_instance(h0, AppKind::None, 10_000);
    }
    let nic = pod.allocator.actor.books().nics[0].as_ref().unwrap();
    assert_eq!(nic.allocated_mbps, 90_000);
    assert!(pod
        .allocator
        .actor
        .books()
        .pick_nic(h0 as u32, 20_000)
        .is_none());
    assert!(pod
        .allocator
        .actor
        .books()
        .pick_nic(h0 as u32, 10_000)
        .is_some());
}

#[test]
fn rebalancing_migration_loses_nothing_and_keeps_neighbors_reachable() {
    // Regression for the migration MAC race: a migrating instance's
    // queued frames must not carry the old NIC's source MAC out of the new
    // NIC, or the switch re-learns that MAC on the wrong port and black-
    // holes the instance still legitimately using it.
    use oasis::core::allocator::RebalancePolicy;

    let mut b = PodBuilder::new(OasisConfig::default());
    let host_a = b.add_host();
    let host_b = b.add_host();
    let _n0 = b.add_nic_host();
    let _n1 = b.add_nic_host();
    let mut pod = b.build();
    pod.allocator.actor.enable_rebalancing(RebalancePolicy::new(
        2.0,
        50_000,
        SimDuration::from_millis(100),
    ));
    let i1 = pod.launch_instance(host_a, echo_app(), 10_000);
    let _decoy = pod.launch_instance(host_a, echo_app(), 10_000);
    let i3 = pod.launch_instance(host_b, echo_app(), 10_000);

    let end = SimTime::from_millis(400);
    let mut handles = Vec::new();
    for (i, &inst) in [i1, i3].iter().enumerate() {
        let h = ClientStats::handle();
        pod.add_endpoint(Box::new(UdpClient::new(
            (i + 1) as u64,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            1000,
            Pacing::Poisson {
                rate_rps: 200_000.0,
                until: end - SimDuration::from_millis(20),
            },
            SimTime::from_millis(1),
            h.clone(),
        )));
        handles.push(h);
    }
    pod.run(end);

    assert!(pod.allocator.actor.rebalance_migrations >= 1, "rebalanced");
    for (i, h) in handles.iter().enumerate() {
        let s = h.borrow();
        assert_eq!(s.lost(), 0, "client {i} lost traffic across migration");
    }
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let mut b = PodBuilder::new(OasisConfig::default());
        let h0 = b.add_host();
        let _n = b.add_nic_host();
        let mut pod = b.build();
        let inst = pod.launch_instance(h0, echo_app(), 10_000);
        let stats = ClientStats::handle();
        let client = UdpClient::new(
            1,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            256,
            Pacing::Poisson {
                rate_rps: 100_000.0,
                until: SimTime::from_millis(3),
            },
            SimTime::from_micros(100),
            stats.clone(),
        );
        pod.add_endpoint(Box::new(client));
        pod.run(SimTime::from_millis(5));
        let s = stats.borrow();
        (s.sent, s.received, s.rtt.percentile(99.0))
    };
    assert_eq!(run(), run(), "same seed, same world, same results");
}
