//! Device-repair and instance-teardown lifecycle.

use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{PodBuilder, PodInput};
use oasis_net::addr::MacAddr;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::SsdConfig;

fn fast_cfg() -> OasisConfig {
    OasisConfig {
        link_detect: SimDuration::from_millis(5),
        ..Default::default()
    }
}

#[test]
fn repaired_nic_serves_new_instances() {
    let mut b = PodBuilder::new(fast_cfg());
    let host_a = b.add_host();
    let _nic_b = b.add_nic_host(); // nic 0
    let host_c = b.add_nic_host(); // nic 1 (backup)
    let mut pod = b.backup_nic_on(host_c).build();
    let _inst = pod.launch_instance(host_a, AppKind::None, 10_000);

    // Fail nic 0; the allocator marks it failed after detection.
    pod.schedule(SimTime::from_millis(10), PodInput::DisableNicPort(0));
    pod.run(SimTime::from_millis(40));
    assert!(pod.allocator.actor.books().nics[0].as_ref().unwrap().failed);
    // While failed, only the backup can serve host-local demand; a remote
    // placement has nowhere to go (nic 1 is reserved as backup).
    assert!(pod
        .allocator
        .actor
        .books()
        .pick_nic(host_a as u32, 10_000)
        .is_none());

    // Repair: restore the port, wait for carrier, operator marks repaired.
    pod.schedule(SimTime::from_millis(50), PodInput::EnableNicPort(0));
    pod.run(SimTime::from_millis(70));
    pod.apply(PodInput::MarkNicRepaired(0)).unwrap();
    assert!(!pod.allocator.actor.books().nics[0].as_ref().unwrap().failed);

    // New launches land on the repaired NIC again.
    let inst2 = pod.launch_instance(host_a, AppKind::None, 10_000);
    assert_eq!(
        pod.allocator
            .actor
            .books()
            .instances
            .iter()
            .find(|i| i.ip == pod.instance_ip(inst2))
            .unwrap()
            .nic,
        0
    );
}

#[test]
fn terminate_releases_everything() {
    let mut b = PodBuilder::new(fast_cfg());
    let host_a = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(host_a, AppKind::None, 10_000);
    let _vol = pod.create_volume(inst, 64).unwrap();

    assert_eq!(
        pod.allocator.actor.books().nics[0]
            .as_ref()
            .unwrap()
            .allocated_mbps,
        10_000
    );
    assert_eq!(
        pod.allocator.actor.books().ssds[0]
            .as_ref()
            .unwrap()
            .allocated_blocks,
        64
    );
    assert_eq!(pod.backends[0].registration_count(), 1);
    assert_eq!(pod.nics[0].flow_count(), 1);

    pod.terminate_instance(inst);

    // NIC lease, volume blocks, registration and flow rule all released.
    assert_eq!(
        pod.allocator.actor.books().nics[0]
            .as_ref()
            .unwrap()
            .allocated_mbps,
        0
    );
    assert_eq!(
        pod.allocator.actor.books().ssds[0]
            .as_ref()
            .unwrap()
            .allocated_blocks,
        0
    );
    assert!(pod.allocator.actor.books().volumes.is_empty());
    assert_eq!(pod.backends[0].registration_count(), 0);
    assert_eq!(pod.nics[0].flow_count(), 0);
    assert_eq!(pod.instance_mac(inst), MacAddr::ZERO);

    // Released capacity is immediately reusable.
    let inst2 = pod.launch_instance(host_a, AppKind::None, 100_000);
    assert_eq!(
        pod.allocator.actor.books().nics[0]
            .as_ref()
            .unwrap()
            .allocated_mbps,
        100_000
    );
    let vol2 = pod.create_volume(inst2, 128).unwrap();
    assert_eq!(vol2.base_block, 0, "drained SSD restarts its carve point");
}
