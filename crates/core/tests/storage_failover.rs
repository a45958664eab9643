//! Storage-engine failover integration tests (§3.4 recovery), mirroring
//! the network engine's `failover_loss_window_matches_detection_time`:
//! in-flight SSD commands survive injected device timeouts and a host
//! crash/restart, are retried, and complete **exactly once**.

use std::collections::HashMap;

use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{PodBuilder, PodInput};
use oasis_sim::fault::{FaultKind, FaultPlan, SsdFaultMode};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

fn block(tag: u8) -> Vec<u8> {
    (0..BLOCK_SIZE as usize).map(|i| tag ^ (i as u8)).collect()
}

/// Commands submitted into an SSD timeout window are silently swallowed by
/// the device; the frontend's retry timers resubmit them until the window
/// closes, and every command completes exactly once with success.
#[test]
fn ssd_timeout_window_commands_retried_and_completed_exactly_once() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    let vol = pod.create_volume(inst, 64).unwrap();

    // The device swallows everything submitted in [1ms, 11ms].
    let plan = FaultPlan::seeded(7).at(
        SimTime::from_millis(1),
        FaultKind::SsdFault {
            ssd: 0,
            mode: SsdFaultMode::Timeout,
            duration: SimDuration::from_millis(10),
        },
    );
    pod.install_fault_plan(&plan);
    pod.run(SimTime::from_millis(2));

    // Eight writes land inside the window: first attempts are swallowed.
    let mut cids = Vec::new();
    for lba in 0..8 {
        cids.push(pod.volume_write(vol, lba, &block(lba as u8)).unwrap());
    }
    pod.run(SimTime::from_millis(60));

    let done = pod.take_storage_completions(h0);
    let mut seen: HashMap<u16, u32> = HashMap::new();
    for r in &done {
        assert!(r.status.is_ok(), "cid {} failed: {:?}", r.cid, r.status);
        *seen.entry(r.cid).or_insert(0) += 1;
    }
    for cid in &cids {
        assert_eq!(
            seen.get(cid),
            Some(&1),
            "cid {cid} must complete exactly once"
        );
    }
    assert_eq!(done.len(), cids.len());
    let fe = pod.storage.frontends[h0].as_ref().unwrap();
    assert!(fe.stats.retries > 0, "the window must force retries");
    assert_eq!(
        fe.stats.retry_exhausted, 0,
        "the budget outlives the window"
    );
    assert!(
        pod.storage.backends[0].device.stats.swallowed > 0,
        "first attempts were swallowed"
    );

    // The retried writes actually landed: read one back.
    pod.volume_read(vol, 3, 1).unwrap();
    pod.run(SimTime::from_millis(62));
    let done = pod.take_storage_completions(h0);
    assert_eq!(done[0].data.as_deref(), Some(&block(3)[..]));
}

/// A crash-restart of the submitting host replays its in-flight commands;
/// the backend's dedup window answers already-executed replays from its
/// completion cache, so nothing runs twice and every command completes
/// exactly once.
#[test]
fn host_restart_replays_inflight_commands_exactly_once() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    let vol = pod.create_volume(inst, 64).unwrap();

    let mut cids = Vec::new();
    for lba in 0..4 {
        cids.push(
            pod.volume_write(vol, lba, &block(0x40 | lba as u8))
                .unwrap(),
        );
    }
    // Crash while the writes execute (the device keeps going: they finish
    // and their completions are cached at the backend); restart well after.
    pod.schedule(SimTime::from_micros(10), PodInput::FailHost(h0));
    pod.schedule(SimTime::from_micros(500), PodInput::RestartHost(h0));
    pod.run(SimTime::from_millis(20));

    let done = pod.take_storage_completions(h0);
    let mut seen: HashMap<u16, u32> = HashMap::new();
    for r in &done {
        assert!(r.status.is_ok(), "cid {} failed: {:?}", r.cid, r.status);
        *seen.entry(r.cid).or_insert(0) += 1;
    }
    for cid in &cids {
        assert_eq!(
            seen.get(cid),
            Some(&1),
            "cid {cid} must complete exactly once"
        );
    }
    assert_eq!(done.len(), cids.len(), "no duplicate completions surface");
    // The restart really replayed, and the dedup cache answered.
    let fe = pod.storage.frontends[h0].as_ref().unwrap();
    assert_eq!(
        fe.stats.retries,
        cids.len() as u64,
        "replay resent each command"
    );
    assert!(
        pod.storage.backends[0].stats.replays_answered > 0,
        "replays answered from the completion cache, not re-executed"
    );
    // Each write executed once: the media holds exactly the written data.
    assert_eq!(
        pod.storage.backends[0].device.stats.writes,
        cids.len() as u64
    );
    pod.volume_read(vol, 2, 1).unwrap();
    pod.run(SimTime::from_millis(22));
    let done = pod.take_storage_completions(h0);
    assert_eq!(done[0].data.as_deref(), Some(&block(0x42)[..]));
}
