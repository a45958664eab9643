//! A rack-scale pod: many hosts, few devices, mixed workloads — the
//! configuration the paper's economics argue for ("every three hosts share
//! a single NIC").

use oasis::apps::memcached::{GetRequests, MemcachedFramer, MemcachedServer, MEMCACHED_PORT};
use oasis::apps::stats::{ClientStats, StatsHandle};
use oasis::apps::tcp_client::TcpRequestClient;
use oasis::apps::udp::{EchoServer, Pacing, UdpClient};
use oasis::core::config::OasisConfig;
use oasis::core::instance::AppKind;
use oasis::core::pod::PodBuilder;
use oasis::core::tcp::TcpConfig;
use oasis::sim::time::{SimDuration, SimTime};
use oasis::storage::ssd::SsdConfig;
use oasis::storage::BLOCK_SIZE;

#[test]
fn six_hosts_two_nics_one_ssd_mixed_workloads() {
    let mut b = PodBuilder::new(OasisConfig::default());
    // Two device hosts serve four diskless/NIC-less hosts.
    let dev1 = b.add_nic_host();
    let dev2 = b.add_nic_host();
    let tenants: Vec<usize> = (0..4).map(|_| b.add_host()).collect();
    b.add_ssd(dev1, SsdConfig::default());
    b.add_ssd(dev2, SsdConfig::default());
    let mut pod = b.build();

    // Launch a mix: three UDP echo servers, one memcached.
    let mut udp_instances = Vec::new();
    for &host in &tenants[..3] {
        udp_instances.push(pod.launch_instance(
            host,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            5_000,
        ));
    }
    let mut mc = MemcachedServer::new(SimDuration::from_micros(3));
    for k in 0..8 {
        mc.preload(format!("key{k}").as_bytes(), &[0x42; 64]);
    }
    let mc_inst = pod.launch_instance(tenants[3], AppKind::Tcp(Box::new(mc)), 5_000);
    pod.instances[mc_inst].server_port = MEMCACHED_PORT;

    // Placement spread the load across both NICs.
    let nics_used: std::collections::BTreeSet<u32> = pod
        .allocator
        .actor
        .books()
        .instances
        .iter()
        .map(|i| i.nic)
        .collect();
    assert_eq!(nics_used.len(), 2, "least-loaded placement uses both NICs");

    // Every tenant gets a volume; both SSDs get used.
    let mut volumes = Vec::new();
    for &inst in udp_instances.iter().chain([&mc_inst]) {
        volumes.push(pod.create_volume(inst, 32).expect("capacity"));
    }
    let ssds_used: std::collections::BTreeSet<usize> = volumes.iter().map(|v| v.ssd).collect();
    assert_eq!(ssds_used.len(), 2, "volumes spread across both SSDs");

    // Drive everything concurrently: 3 UDP clients + 1 memcached client +
    // storage I/O.
    let end = SimTime::from_millis(15);
    let mut udp_stats: Vec<StatsHandle> = Vec::new();
    for (i, &inst) in udp_instances.iter().enumerate() {
        let stats = ClientStats::handle();
        pod.add_endpoint(Box::new(UdpClient::new(
            (i + 1) as u64,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            200,
            Pacing::Poisson {
                rate_rps: 30_000.0,
                until: end - SimDuration::from_millis(3),
            },
            SimTime::from_micros(100),
            stats.clone(),
        )));
        udp_stats.push(stats);
    }
    let mc_stats = ClientStats::handle();
    pod.add_endpoint(Box::new(TcpRequestClient::new(
        9,
        pod.instance_mac(mc_inst),
        pod.instance_ip(mc_inst),
        MEMCACHED_PORT,
        SimDuration::from_micros(100),
        100,
        SimTime::from_micros(200),
        TcpConfig::default(),
        Box::new(GetRequests { keys: 8 }),
        Box::new(MemcachedFramer),
        mc_stats.clone(),
    )));
    for (i, &vol) in volumes.iter().enumerate() {
        let data = vec![i as u8; BLOCK_SIZE as usize];
        pod.volume_write(vol, 0, &data).expect("write accepted");
    }
    pod.run(end);

    // Network: everything answered.
    for (i, s) in udp_stats.iter().enumerate() {
        let s = s.borrow();
        assert!(s.sent > 100, "client {i} sent {}", s.sent);
        assert_eq!(s.received, s.sent, "client {i} lost traffic");
    }
    let mc = mc_stats.borrow();
    assert_eq!(mc.received, 100, "memcached completed");
    // Storage: all four volume writes completed OK.
    let mut done = 0;
    for &host in tenants.iter() {
        for r in pod.take_storage_completions(host) {
            assert!(r.status.is_ok());
            done += 1;
        }
    }
    assert_eq!(done, 4);
    // Volumes on the same SSD never overlap.
    for a in 0..volumes.len() {
        for b in (a + 1)..volumes.len() {
            let (va, vb) = (volumes[a], volumes[b]);
            if va.ssd == vb.ssd {
                assert!(
                    va.base_block + va.blocks <= vb.base_block
                        || vb.base_block + vb.blocks <= va.base_block,
                    "volume overlap on ssd {}",
                    va.ssd
                );
            }
        }
    }
}

#[test]
fn determinism_at_scale() {
    let run = || {
        let mut b = PodBuilder::new(OasisConfig::default());
        let _d1 = b.add_nic_host();
        let hosts: Vec<usize> = (0..3).map(|_| b.add_host()).collect();
        let mut pod = b.build();
        let mut stats = Vec::new();
        for (i, &h) in hosts.iter().enumerate() {
            let inst = pod.launch_instance(
                h,
                AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
                5_000,
            );
            let s = ClientStats::handle();
            pod.add_endpoint(Box::new(UdpClient::new(
                (i + 1) as u64,
                pod.instance_mac(inst),
                pod.instance_ip(inst),
                7,
                128,
                Pacing::Poisson {
                    rate_rps: 50_000.0,
                    until: SimTime::from_millis(4),
                },
                SimTime::from_micros(100),
                s.clone(),
            )));
            stats.push(s);
        }
        pod.run(SimTime::from_millis(6));
        stats
            .iter()
            .map(|s| {
                let s = s.borrow();
                (s.sent, s.received, s.rtt.percentile(99.9))
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
