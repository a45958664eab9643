//! Figure 14: memcached P99 latency through a NIC failover.
//!
//! Same failure injection as Fig. 13, but the workload is memcached over
//! TCP: packets lost during the interruption are retransmitted after the
//! RTO and delivered late, so the windowed P99 spikes at the failure and
//! recovers once the backlog drains.
//!
//! Paper anchors: sharp P99 spike at the failure; recovery within ~133 ms
//! (longer than UDP's 38 ms because TCP is reliable).

use oasis_apps::memcached::{GetRequests, MemcachedFramer, MemcachedServer, MEMCACHED_PORT};
use oasis_apps::stats::ClientStats;
use oasis_apps::tcp_client::TcpRequestClient;
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{PodBuilder, PodInput};
use oasis_core::tcp::TcpConfig;
use oasis_sim::report::Table;
use oasis_sim::time::{SimDuration, SimTime};

fn main() {
    println!("== Figure 14: memcached P99 during NIC failover ==\n");
    let mut b = PodBuilder::new(OasisConfig::default());
    let host_a = b.add_host();
    let _host_b = b.add_nic_host(); // serving NIC (0)
    let host_c = b.add_nic_host(); // backup NIC (1)
    let mut pod = b.backup_nic_on(host_c).build();

    let mut server = MemcachedServer::new(SimDuration::from_micros(3));
    server.preload(b"key0", &[0x6f; 100]);
    for k in 1..16 {
        server.preload(format!("key{k}").as_bytes(), &[0x6f; 100]);
    }
    let inst = pod.launch_instance(host_a, AppKind::Tcp(Box::new(server)), 10_000);
    pod.instances[inst].server_port = MEMCACHED_PORT;

    let end = SimTime::from_secs(10);
    let fail_at = SimTime::from_secs(5);
    let gap = SimDuration::from_micros(250); // 4k requests/s
    let stats = ClientStats::handle();
    let client = TcpRequestClient::new(
        1,
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        MEMCACHED_PORT,
        gap,
        38_000,
        SimTime::from_millis(1),
        TcpConfig::default(),
        Box::new(GetRequests { keys: 16 }),
        Box::new(MemcachedFramer),
        stats.clone(),
    );
    pod.add_endpoint(Box::new(client));
    pod.schedule(fail_at, PodInput::DisableNicPort(0));
    pod.run(end);

    let s = stats.borrow();
    println!(
        "sent {} received {} unanswered {}\n",
        s.sent,
        s.received,
        s.lost()
    );

    // Windowed P99 timeline (100ms windows), printed around the failure.
    println!("P99 per 100ms window (4.5s..6.0s):");
    let mut t = Table::new(vec!["window start (s)", "p99 (us)", ""]);
    let mut recovery_end = fail_at;
    for w in 0..100 {
        let from = SimTime::from_millis(w * 100);
        let to = SimTime::from_millis((w + 1) * 100);
        if let Some(p99) = s.window_percentile(from, to, 99.0) {
            if p99 > 1_000_000 {
                recovery_end = recovery_end.max(to);
            }
            if (45..60).contains(&w) {
                let us = p99 as f64 / 1e3;
                let bar = ((us.log10().max(0.0)) * 10.0) as usize;
                t.row(vec![
                    format!("{:.1}", from.as_secs_f64()),
                    format!("{us:.0}"),
                    "#".repeat(bar),
                ]);
            }
        }
    }
    println!("{}", t.render());

    // Finer recovery estimate: last request (by send time) that took more
    // than 10x the healthy P99.
    let healthy_p99 = s
        .window_percentile(SimTime::from_secs(1), SimTime::from_secs(4), 99.0)
        .unwrap();
    let mut last_slow = fail_at;
    let mut first_slow = end;
    for &(sent, done) in &s.requests {
        if let Some(done) = done {
            if (done - sent).as_nanos() > healthy_p99 * 10 {
                last_slow = last_slow.max(done);
                first_slow = first_slow.min(sent);
            }
        }
    }
    println!(
        "healthy P99 = {:.1} us; latency elevated from {:.4}s to {:.4}s",
        healthy_p99 as f64 / 1e3,
        first_slow.as_secs_f64(),
        last_slow.as_secs_f64()
    );
    println!(
        "P99 recovery time ~{:.0} ms after the failure  (paper: ~133 ms)",
        (last_slow - fail_at).as_secs_f64() * 1e3
    );
}
