//! Pod-level storage-engine integration: pooled SSD capacity, volumes, and
//! concurrent network + storage traffic over the same CXL pool.

use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{PodBuilder, PodInput};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::command::NvmeStatus;
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

fn block(tag: u8) -> Vec<u8> {
    (0..BLOCK_SIZE as usize).map(|i| tag ^ (i as u8)).collect()
}

#[test]
fn instance_without_local_ssd_uses_remote_volume() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let host_a = b.add_host(); // instance host, no devices
    let host_b = b.add_nic_host(); // device host
    b.add_ssd(host_b, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(host_a, AppKind::None, 1_000);

    // The allocator carves a volume on the remote SSD.
    let vol = pod.create_volume(inst, 64).expect("capacity available");
    assert_eq!(vol.ssd, 0);
    assert_eq!(
        pod.allocator.actor.books().ssds[0]
            .as_ref()
            .unwrap()
            .allocated_blocks,
        64
    );

    // Write and read back across the host boundary.
    let data = block(0x5a);
    pod.volume_write(vol, 3, &data).expect("write accepted");
    pod.run(SimTime::from_millis(2));
    let done = pod.take_storage_completions(host_a);
    assert_eq!(done.len(), 1);
    assert!(done[0].status.is_ok());

    pod.volume_read(vol, 3, 1).expect("read accepted");
    pod.run(SimTime::from_millis(4));
    let done = pod.take_storage_completions(host_a);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].data.as_deref(), Some(&data[..]));
}

#[test]
fn volumes_isolate_instances_on_shared_ssd() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let h1 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let i0 = pod.launch_instance(h0, AppKind::None, 1_000);
    let i1 = pod.launch_instance(h1, AppKind::None, 1_000);

    let v0 = pod.create_volume(i0, 16).unwrap();
    let v1 = pod.create_volume(i1, 16).unwrap();
    // Disjoint carving out of the same device.
    assert_eq!(v0.ssd, v1.ssd);
    assert!(
        v0.base_block + v0.blocks <= v1.base_block || v1.base_block + v1.blocks <= v0.base_block
    );

    // Both write "their" block 0; each reads back its own data.
    pod.volume_write(v0, 0, &block(0xaa)).unwrap();
    pod.volume_write(v1, 0, &block(0xbb)).unwrap();
    pod.run(SimTime::from_millis(2));
    assert_eq!(pod.take_storage_completions(h0).len(), 1);
    assert_eq!(pod.take_storage_completions(h1).len(), 1);
    pod.volume_read(v0, 0, 1).unwrap();
    pod.volume_read(v1, 0, 1).unwrap();
    pod.run(SimTime::from_millis(4));
    assert_eq!(
        pod.take_storage_completions(h0)[0].data.as_deref(),
        Some(&block(0xaa)[..])
    );
    assert_eq!(
        pod.take_storage_completions(h1)[0].data.as_deref(),
        Some(&block(0xbb)[..])
    );
}

#[test]
fn volume_bounds_enforced() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    let vol = pod.create_volume(inst, 8).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pod.volume_read(vol, 8, 1);
    }));
    assert!(result.is_err(), "out-of-volume access must panic");
}

#[test]
fn volume_block_range_cannot_wrap_into_a_neighbour() {
    // Two tenants on one SSD; the second volume starts right after the
    // first, so "one block before volume 1" is tenant 0's last block.
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let h1 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let i0 = pod.launch_instance(h0, AppKind::None, 1_000);
    let i1 = pod.launch_instance(h1, AppKind::None, 1_000);
    let v0 = pod.create_volume(i0, 8).unwrap();
    let v1 = pod.create_volume(i1, 8).unwrap();
    assert_eq!(v0.base_block + v0.blocks, v1.base_block);
    pod.volume_write(v0, 7, &block(0x77)).unwrap();
    pod.run(SimTime::from_millis(2));
    assert_eq!(pod.take_storage_completions(h0).len(), 1);

    // `lba + nlb` wraps to 0 and `base_block + lba` to `base_block - 1`:
    // with wrapping arithmetic this read passed the bounds check and
    // returned tenant 0's block 7. It is refused, and nothing is sent.
    assert_eq!(pod.volume_read(v1, u64::MAX, 1), None);
    assert_eq!(pod.volume_write(v1, u64::MAX, &block(0xEE)), None);
    pod.run(SimTime::from_millis(4));
    assert!(pod.take_storage_completions(h1).is_empty());
    pod.volume_read(v0, 7, 1).unwrap();
    pod.run(SimTime::from_millis(6));
    assert_eq!(
        pod.take_storage_completions(h0)[0].data.as_deref(),
        Some(&block(0x77)[..]),
        "tenant 0's data is untouched"
    );
}

#[test]
fn oversized_volume_request_is_refused_not_truncated() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    // 2³² + 1 blocks used to reserve `(2³² + 1) as u32` = 1 block and hand
    // out a handle addressing all 2³² + 1.
    assert!(pod.create_volume(inst, (1 << 32) + 1).is_none());
    let ssd0 = pod.allocator.actor.books().ssds[0].as_ref().unwrap();
    assert_eq!(ssd0.allocated_blocks, 0, "nothing was reserved");
    // A request that fits `u32` but whose end does not: 16 + (2³² − 6)
    // used to wrap to 10 and be granted.
    assert!(pod.create_volume(inst, 16).is_some());
    let before = pod.allocator.actor.books().clone();
    assert!(pod.create_volume(inst, (u32::MAX - 5) as u64).is_none());
    assert_eq!(pod.allocator.actor.books(), &before, "nothing was reserved");
    // Draining a host that does not exist is empty, not a panic.
    assert!(pod.take_storage_completions(99).is_empty());
}

#[test]
fn ssd_capacity_exhaustion_refuses_volumes() {
    let cfg = SsdConfig {
        blocks_per_ns: 64,
        ..Default::default()
    };
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, cfg);
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    assert!(pod.create_volume(inst, 48).is_some());
    assert!(pod.create_volume(inst, 48).is_none(), "only 16 blocks left");
    assert!(pod.create_volume(inst, 16).is_some());
}

#[test]
fn ssd_failure_propagates_through_pod() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    let vol = pod.create_volume(inst, 8).unwrap();

    pod.apply(PodInput::SsdFailed(0, true)).unwrap();
    pod.volume_read(vol, 0, 1).unwrap();
    pod.run(SimTime::from_millis(2));
    let done = pod.take_storage_completions(h0);
    assert_eq!(done[0].status, NvmeStatus::DeviceFailure);

    pod.apply(PodInput::SsdFailed(0, false)).unwrap();
    pod.volume_read(vol, 0, 1).unwrap();
    pod.run(SimTime::from_millis(4));
    assert!(pod.take_storage_completions(h0)[0].status.is_ok());
}

#[test]
fn network_and_storage_share_the_pool() {
    // The paper's end state: one pod, one pool, NICs and SSDs both pooled.
    use oasis_core::instance::{UdpApp, UdpResponse};
    use oasis_net::addr::Ipv4Addr;

    struct Echo;
    impl UdpApp for Echo {
        fn on_datagram(
            &mut self,
            _now: SimTime,
            src: (Ipv4Addr, u16),
            dst_port: u16,
            payload: &[u8],
        ) -> Vec<UdpResponse> {
            vec![UdpResponse {
                delay: SimDuration::from_micros(1),
                dst: src,
                src_port: dst_port,
                payload: payload.to_vec(),
            }]
        }
    }

    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.build();
    let inst = pod.launch_instance(h0, AppKind::Udp(Box::new(Echo)), 10_000);
    let vol = pod.create_volume(inst, 32).unwrap();

    // Storage I/O in flight while network traffic flows.
    for lba in 0..8 {
        pod.volume_write(vol, lba, &block(lba as u8)).unwrap();
    }
    pod.run(SimTime::from_millis(3));
    let done = pod.take_storage_completions(h0);
    assert_eq!(done.len(), 8);
    assert!(done.iter().all(|r| r.status.is_ok()));
    // The NIC datapath still works (drivers multiplexed fine).
    assert!(pod.nics[0].stats.tx_frames == 0); // no clients attached
    assert_eq!(pod.allocator.actor.books().volumes.len(), 1);
}
