//! Spill orders are derived from the topology, not replicated state.
//!
//! A `FleetState` rebuilds its spill orders lazily after a topology
//! change. An allocator checkpointed right after an `AddLink` (orders
//! stale) must restore to an equal state that stays consistent with its
//! log and places the next instance exactly as the original does, and the
//! checkpoint bytes of a fixed command list are pinned.

use oasis_core::allocator::{FleetAllocator, FleetCommand, FleetResponse};
use oasis_core::{SnapshotReader, SnapshotWriter};
use oasis_sim::time::SimTime;

fn pod(pod: u32, hosts: u32) -> FleetCommand {
    FleetCommand::RegisterPod {
        pod,
        hosts,
        vcpus_per_host: 32,
        mem_gb_per_host: 256,
        nic_mbps: hosts as u64 * 20_000,
        ssd_cap: hosts as u64 * 2_000,
    }
}

fn link(a: u32, b: u32, latency_ns: u64) -> FleetCommand {
    FleetCommand::AddLink { a, b, latency_ns }
}

fn create(at: u64, nic_mbps: u32, home_pod: u32) -> FleetCommand {
    FleetCommand::CreateInstance {
        at,
        vcpus: 4,
        mem_gb: 16,
        ssd: 300,
        nic_mbps,
        home_pod,
    }
}

/// Four pods in a chain 0–1–2, pod 3 unlinked. Pod 0's NIC fills, so its
/// later creates spill to pod 1 and then pod 2, until one is rejected; a
/// kill and a resize land in between, and the list ends on an `AddLink`
/// that makes pod 3 pod 0's nearest neighbour.
fn commands() -> Vec<FleetCommand> {
    let mut cmds = vec![pod(0, 2), pod(1, 2), link(0, 1, 2_000), pod(2, 1)];
    cmds.push(link(1, 2, 1_000));
    cmds.push(pod(3, 2));
    for i in 0..6 {
        cmds.push(create(100 * i, 15_000, 0));
    }
    cmds.push(FleetCommand::KillInstance { at: 700, id: 3 });
    cmds.push(FleetCommand::ResizeInstance {
        at: 800,
        id: 2,
        nic_mbps: 5_000,
        ssd: 100,
    });
    cmds.push(create(900, 15_000, 1));
    cmds.push(link(0, 3, 500));
    cmds
}

fn run(cmds: &[FleetCommand]) -> FleetAllocator {
    let mut alloc = FleetAllocator::new();
    for cmd in cmds {
        alloc
            .execute(SimTime::ZERO, cmd)
            .expect("every command in the list is valid");
    }
    alloc
}

fn checkpoint(alloc: &FleetAllocator) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    alloc.checkpoint(&mut w);
    w.finish()
}

fn restore(bytes: &[u8]) -> FleetAllocator {
    let mut alloc = FleetAllocator::new();
    let mut r = SnapshotReader::open(bytes).expect("checkpoint opens");
    alloc.restore(&mut r).expect("checkpoint restores");
    alloc
}

#[test]
fn restore_after_a_topology_change_places_identically() {
    let mut original = run(&commands());
    let mut restored = restore(&checkpoint(&original));
    assert!(restored.state == original.state);
    assert!(original.consistent_with_log());
    assert!(restored.consistent_with_log());

    // Pod 0's NIC is full: the next pod-0 create spills, and only over the
    // link the last command added, so stale spill orders would differ.
    let next = create(1_000, 15_000, 0);
    let a = original.execute(SimTime::ZERO, &next).unwrap();
    let b = restored.execute(SimTime::ZERO, &next).unwrap();
    assert_eq!(a, b);
    assert!(
        matches!(
            a,
            FleetResponse::Created {
                pod: 0,
                device_pod: 3,
                ..
            }
        ),
        "{a:?}"
    );
    assert!(restored.state == original.state);
    assert!(original.consistent_with_log());
    assert!(restored.consistent_with_log());
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Checkpoint bytes after the fixed list and after one more create,
/// recorded from the full-recompute implementation. The device books
/// follow them: six empty tables, one zero `u64` count each.
const CHECKPOINT_DIGESTS: [u64; 2] = [2_605_288_279_693_206_979, 11_366_124_097_955_782_144];
const EMPTY_DEVICE_BOOKS: [u8; 48] = [0; 48];

/// The digest of a checkpoint's fleet books, after checking that its
/// device books are empty.
fn fleet_digest(bytes: &[u8]) -> u64 {
    let (fleet, devices) = bytes.split_at(bytes.len() - EMPTY_DEVICE_BOOKS.len());
    assert_eq!(devices, EMPTY_DEVICE_BOOKS);
    fnv1a(fleet)
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let mut alloc = run(&commands());
    let first = fleet_digest(&checkpoint(&alloc));
    alloc
        .execute(SimTime::ZERO, &create(1_000, 15_000, 0))
        .unwrap();
    let second = fleet_digest(&checkpoint(&alloc));
    assert_eq!([first, second], CHECKPOINT_DIGESTS);
}
