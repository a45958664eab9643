//! Figure 13 scenario as a library function, so the determinism guard can
//! render the report twice — once with no fault plan and once with an empty
//! [`FaultPlan`] installed — and assert the outputs are byte-identical.
//!
//! The scenario: a 10-second UDP echo run; at the 5-second mark the serving
//! NIC's switch port is disabled (the §5.3 injection). Oasis detects carrier
//! loss, notifies the pod-wide allocator over message channels, and reroutes
//! the instance to the pod's backup NIC with MAC borrowing.

use std::fmt::Write;

use oasis_apps::stats::ClientStats;
use oasis_apps::udp::{EchoServer, Pacing, UdpClient};
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{PodBuilder, PodInput};
use oasis_obs::MetricSink;
use oasis_sim::fault::FaultPlan;
use oasis_sim::report::Table;
use oasis_sim::time::{SimDuration, SimTime};

use crate::metrics;

/// Run the Figure 13 failover scenario and render the full report. When
/// `plan` is `Some`, it is installed before the run; an empty plan must
/// leave the report byte-identical to passing `None`.
pub fn fig13_failover_report(plan: Option<&FaultPlan>) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 13: UDP packet loss during NIC failover ==\n"
    )
    .unwrap();
    let mut b = PodBuilder::new(OasisConfig::default());
    let host_a = b.add_host(); // instance host
    let _host_b = b.add_nic_host(); // serving NIC (0)
    let host_c = b.add_nic_host(); // backup NIC (1)
    let mut pod = b.backup_nic_on(host_c).build();

    let inst = pod.launch_instance(
        host_a,
        AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
        10_000,
    );
    let end = SimTime::from_secs(10);
    let fail_at = SimTime::from_secs(5);
    let stats = ClientStats::handle();
    let client = UdpClient::new(
        1,
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        7,
        75 - 42,
        Pacing::FixedGap {
            gap: SimDuration::from_micros(200), // 5k packets/s
            count: 49_000,
        },
        SimTime::from_millis(1),
        stats.clone(),
    );
    pod.add_endpoint(Box::new(client));
    pod.schedule(fail_at, PodInput::DisableNicPort(0));
    if let Some(p) = plan {
        pod.install_fault_plan(p);
    }
    pod.run(end);

    // Headline numbers come from one canonical snapshot: the pod's own
    // export merged with the harness-side client tallies. Ambient `obs`
    // entries ride along in the snapshot but nothing below prints them, so
    // the report stays byte-identical with the feature on or off.
    let s = stats.borrow();
    let mut snap = pod.metrics_snapshot();
    let mut harness = MetricSink::new();
    harness.set(metrics::CLIENT_SENT, 1, s.sent);
    harness.set(metrics::CLIENT_RECEIVED, 1, s.received);
    harness.set(metrics::CLIENT_LOST, 1, s.lost());
    snap.merge(&harness.snapshot());
    writeln!(
        out,
        "sent {} received {} lost {}\n",
        snap.counter(metrics::CLIENT_SENT, 1),
        snap.counter(metrics::CLIENT_RECEIVED, 1),
        snap.counter(metrics::CLIENT_LOST, 1)
    )
    .unwrap();

    // (a) losses over the 10s run, 250ms bins.
    writeln!(out, "(a) lost packets over the run (250ms bins):").unwrap();
    let series = s.loss_series(SimDuration::from_millis(250), end);
    let mut t = Table::new(vec!["t (s)", "lost", ""]);
    for (i, &v) in series.bins().iter().enumerate() {
        if v > 0.0 || (18..=22).contains(&i) {
            t.row(vec![
                format!("{:.2}", i as f64 * 0.25),
                format!("{v}"),
                "#".repeat(v as usize / 4),
            ]);
        }
    }
    writeln!(out, "{}", t.render()).unwrap();

    // (b) zoom on the failure window.
    let losses = s.loss_times();
    if let (Some(first), Some(last)) = (losses.first(), losses.last()) {
        let duration = *last - *first;
        writeln!(out, "(b) failure window:").unwrap();
        writeln!(out, "    first loss at {:.4}s", first.as_secs_f64()).unwrap();
        writeln!(out, "    last  loss at {:.4}s", last.as_secs_f64()).unwrap();
        writeln!(
            out,
            "    total failure time ~{:.1} ms  (paper: ~38 ms)",
            duration.as_secs_f64() * 1e3
        )
        .unwrap();
        // Post-recovery cleanliness.
        let after = losses.iter().filter(|&&t| t > *last).count();
        assert_eq!(after, 0);
    } else {
        writeln!(
            out,
            "no losses observed — failover did not interrupt traffic?"
        )
        .unwrap();
    }
    // Control-plane accounting.
    writeln!(
        out,
        "\nallocator: failovers={} reroutes={}; backup NIC now serves the instance",
        snap.counter(oasis_core::metrics::ALLOC_FAILOVERS, 0),
        snap.counter(oasis_core::metrics::ALLOC_REROUTES_SENT, 0)
    )
    .unwrap();
    out
}
