//! The coherence sanitizer on the path production runs: engines park in a
//! pod built with `PodBuilder::sanitize` as in any other. It must be a pure
//! observer — the same metrics snapshot bytes with it on and off — and it
//! must check the polls charged to parked engines: dropping the ring watch
//! a parked engine leaves (`pool.watch` in the pod's `dispatch_engine`)
//! fails `parked_rounds_are_checked` with `parked-missed-write` reports,
//! which CI's lint red path seeds.

use oasis_accel::{AccelConfig, AccelOp};
use oasis_apps::{ClientStats, EchoServer, Pacing, UdpClient};
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{Pod, PodBuilder};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::SsdConfig;

/// An echo instance on a NIC-less host under a client paced slowly enough
/// for every poller to park between requests; 200 echoes in 6 ms.
fn echo_pod(sanitize: bool) -> Pod {
    let mut b = PodBuilder::new(OasisConfig::default());
    let (_, host) = (b.add_nic_host(), b.add_host());
    let mut pod = if sanitize { b.sanitize() } else { b }.build();
    let app = AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1))));
    let inst = pod.launch_instance(host, app, 5_000);
    let (mac, ip) = (pod.instance_mac(inst), pod.instance_ip(inst));
    let pacing = Pacing::FixedGap {
        gap: SimDuration::from_micros(25),
        count: 200,
    };
    let stats = ClientStats::handle();
    let start = SimTime::from_micros(20);
    let client = UdpClient::new(1, mac, ip, 7, 256, pacing, start, stats.clone());
    pod.add_endpoint(Box::new(client));
    pod.run(SimTime::from_millis(6));
    assert_eq!(stats.borrow().received, 200, "every echo came back");
    pod
}

/// A tenant host submitting block writes, reads and 64 KiB accelerator
/// jobs to a device host between runs.
fn device_pod(sanitize: bool) -> Pod {
    let mut b = PodBuilder::new(OasisConfig::default()).pool_bytes(32 << 20);
    let (dev, host) = (b.add_nic_host(), b.add_host());
    b.add_ssd(dev, SsdConfig::default());
    b.add_accel(dev, AccelConfig::default());
    let mut pod = if sanitize { b.sanitize() } else { b }.build();
    let inst = pod.launch_instance(host, AppKind::None, 1_000);
    let vol = pod.create_volume(inst, 16).expect("the SSD has room");
    for lba in 0..6u64 {
        pod.volume_write(vol, lba, &[lba as u8; 4096])
            .expect("accepted");
        pod.run(pod.now() + SimDuration::from_micros(40));
        pod.volume_read(vol, lba, 1).expect("accepted");
        let input: Vec<u8> = (0..64 << 10).map(|i| (i * 7 + lba) as u8).collect();
        pod.submit_accel_job(host, AccelOp::Checksum, 0, &input)
            .expect("accepted");
        pod.run(pod.now() + SimDuration::from_micros(200));
        assert_eq!(pod.take_storage_completions(host).len(), 2);
        assert_eq!(pod.take_accel_completions(host).len(), 1);
    }
    pod
}

#[test]
fn sanitizer_is_a_pure_observer() {
    for run in [echo_pod, device_pod] {
        let (plain, sanitized) = (run(false), run(true));
        let snap = |pod: &Pod| pod.metrics_snapshot().to_json();
        assert_eq!(snap(&plain), snap(&sanitized));
        let san = sanitized.pool.sanitizer().expect("sanitized");
        assert_eq!(san.error_count(), 0, "{}", san.summary());
    }
}

#[test]
fn parked_rounds_are_checked() {
    let pod = echo_pod(true);
    let san = pod.pool.sanitizer().expect("sanitized");
    let errors: Vec<String> = san.reports().iter().map(|r| r.to_string()).collect();
    assert_eq!(san.error_count(), 0, "{}", errors.join("\n"));
    assert!(san.charged_polls() > 1_000, "{} polls", san.charged_polls());
}
