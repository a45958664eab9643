//! Golden bytes for the replicated command schemas and the snapshot
//! container's section tags.
//!
//! Every enum here is a wire format: `FleetCommand` bytes are the Raft
//! log and the replay format, `TransferPath` rides inside
//! `MigrateInstance`, and `SnapshotSection` tags frame every checkpoint.
//! Three things pin each schema and must move together (DESIGN.md §14):
//!
//! 1. the exhaustive, wildcard-free `match`es below, which map every
//!    variant to its pinned tag byte — an appended variant does not
//!    compile until it is pinned here;
//! 2. the golden byte strings, which a retagged or reordered encoder
//!    changes, and which must cover every tag the decoder accepts;
//! 3. the `*_SCHEMA_VERSION` consts.

use oasis_core::allocator::command::FLEET_SCHEMA_VERSION;
use oasis_core::allocator::{FleetCommand, TransferPath, ANY_POD};
use oasis_core::snapshot::{SnapshotSection, SNAPSHOT_SCHEMA_VERSION};
use oasis_net::addr::Ipv4Addr;
use std::collections::BTreeSet;

fn fleet_tag(cmd: &FleetCommand) -> u8 {
    match cmd {
        FleetCommand::RegisterPod { .. } => 1,
        FleetCommand::AddLink { .. } => 2,
        FleetCommand::CreateInstance { .. } => 3,
        FleetCommand::ResizeInstance { .. } => 4,
        FleetCommand::KillInstance { .. } => 5,
        FleetCommand::QueryFleetState => 6,
        FleetCommand::MigrateInstance { .. } => 7,
        FleetCommand::FinishMigration { .. } => 8,
        FleetCommand::RegisterNic { .. } => 9,
        FleetCommand::Assign { .. } => 10,
        FleetCommand::Unassign { .. } => 11,
        FleetCommand::MarkFailed { .. } => 12,
        FleetCommand::MarkRepaired { .. } => 13,
        FleetCommand::RegisterSsd { .. } => 14,
        FleetCommand::AssignVolume { .. } => 15,
        FleetCommand::ReleaseVolumes { .. } => 16,
        FleetCommand::MarkHostFailed { .. } => 17,
        FleetCommand::MarkHostRestarted { .. } => 18,
        FleetCommand::RegisterAccel { .. } => 19,
    }
}

fn path_byte(path: TransferPath) -> u8 {
    match path {
        TransferPath::Cxl => 0,
        TransferPath::Nic => 1,
    }
}

fn section_tag(section: SnapshotSection) -> u8 {
    match section {
        SnapshotSection::Meta => 1,
        SnapshotSection::Engine => 2,
        SnapshotSection::FleetState => 3,
        SnapshotSection::ReplayCursor => 4,
    }
}

/// Every tag byte `decode` accepts: each command is a tag and fixed-width
/// fields, so some run of zero bytes after a known tag decodes.
fn decodable_tags<T>(decode: impl Fn(&[u8]) -> Option<T>) -> BTreeSet<u8> {
    (0..=u8::MAX)
        .filter(|&tag| (0..64).any(|n| decode(&[&[tag][..], &[0; 64][..n]].concat()).is_some()))
        .collect()
}

#[test]
fn schema_versions_are_pinned() {
    // Bumping any const is a deliberate act: refresh the goldens below in
    // the same commit.
    // v2 appended MigrateInstance / FinishMigration; v3 appended the
    // device commands (tags 9-19).
    assert_eq!(FLEET_SCHEMA_VERSION, 3);
    // v2 added the FleetState / ReplayCursor sections.
    assert_eq!(SNAPSHOT_SCHEMA_VERSION, 2);
}

/// The device commands: the pod allocator's former command set with its
/// field layouts unchanged, each tag moved up by 8 behind the fleet-scope
/// tags.
fn device_goldens() -> Vec<(FleetCommand, Vec<u8>)> {
    let ip = Ipv4Addr([10, 0, 0, 7]);
    vec![
        (
            FleetCommand::RegisterNic {
                nic: 1,
                host: 2,
                capacity_mbps: 100_000,
                backup: true,
            },
            vec![9, 1, 0, 0, 0, 2, 0, 0, 0, 160, 134, 1, 0, 1],
        ),
        (
            FleetCommand::Assign {
                ip,
                host: 2,
                nic: 1,
                lease_mbps: 8_000,
            },
            vec![10, 10, 0, 0, 7, 2, 0, 0, 0, 1, 0, 0, 0, 64, 31, 0, 0],
        ),
        (FleetCommand::Unassign { ip }, vec![11, 10, 0, 0, 7]),
        (FleetCommand::MarkFailed { nic: 9 }, vec![12, 9, 0, 0, 0]),
        (FleetCommand::MarkRepaired { nic: 9 }, vec![13, 9, 0, 0, 0]),
        (
            FleetCommand::RegisterSsd {
                ssd: 3,
                host: 2,
                capacity_blocks: 512,
            },
            vec![14, 3, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0],
        ),
        (
            FleetCommand::AssignVolume {
                ip,
                ssd: 3,
                base_block: 256,
                blocks: 64,
            },
            vec![15, 10, 0, 0, 7, 3, 0, 0, 0, 0, 1, 0, 0, 64, 0, 0, 0],
        ),
        (FleetCommand::ReleaseVolumes { ip }, vec![16, 10, 0, 0, 7]),
        (
            FleetCommand::MarkHostFailed { host: 5 },
            vec![17, 5, 0, 0, 0],
        ),
        (
            FleetCommand::MarkHostRestarted { host: 5 },
            vec![18, 5, 0, 0, 0],
        ),
        (
            FleetCommand::RegisterAccel { accel: 4, host: 2 },
            vec![19, 4, 0, 0, 0, 2, 0, 0, 0],
        ),
    ]
}

/// Each case encodes to its golden, carries its pinned tag and decodes
/// back. Returns the tags covered.
fn check_goldens(cases: Vec<(FleetCommand, Vec<u8>)>) -> BTreeSet<u8> {
    let mut tags = BTreeSet::new();
    for (cmd, golden) in cases {
        let bytes = cmd.encode();
        assert_eq!(bytes, golden, "{cmd:?} drifted from its golden encoding");
        assert_eq!(bytes[0], fleet_tag(&cmd), "{cmd:?} left its pinned tag");
        tags.insert(bytes[0]);
        assert_eq!(
            FleetCommand::decode(&bytes),
            Some(cmd),
            "golden bytes no longer decode"
        );
    }
    tags
}

#[test]
fn alloc_command_golden_bytes() {
    check_goldens(device_goldens());
}

fn fleet_goldens() -> Vec<(FleetCommand, Vec<u8>)> {
    vec![
        (
            FleetCommand::RegisterPod {
                pod: 0,
                hosts: 4,
                vcpus_per_host: 96,
                mem_gb_per_host: 512,
                nic_mbps: 400_000,
                ssd_cap: 49_152,
            },
            vec![
                1, 0, 0, 0, 0, 4, 0, 0, 0, 96, 0, 0, 0, 0, 2, 0, 0, 128, 26, 6, 0, 0, 0, 0, 0, 0,
                192, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            FleetCommand::AddLink {
                a: 0,
                b: 1,
                latency_ns: 600,
            },
            vec![2, 0, 0, 0, 0, 1, 0, 0, 0, 88, 2, 0, 0, 0, 0, 0, 0],
        ),
        (
            FleetCommand::CreateInstance {
                at: 1_000,
                vcpus: 8,
                mem_gb: 32,
                ssd: 200,
                nic_mbps: 16_000,
                home_pod: ANY_POD,
            },
            vec![
                3, 232, 3, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 32, 0, 0, 0, 200, 0, 0, 0, 128, 62, 0, 0,
                255, 255, 255, 255,
            ],
        ),
        (
            FleetCommand::ResizeInstance {
                at: 2_000,
                id: 7,
                nic_mbps: 24_000,
                ssd: 400,
            },
            vec![
                4, 208, 7, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 192, 93, 0, 0, 144, 1, 0, 0,
            ],
        ),
        (
            FleetCommand::KillInstance { at: 3_000, id: 7 },
            vec![5, 184, 11, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0],
        ),
        (FleetCommand::QueryFleetState, vec![6]),
        (
            FleetCommand::MigrateInstance {
                at: 4_000,
                id: 7,
                dst_pod: 3,
                path: TransferPath::Cxl,
            },
            vec![
                7, 160, 15, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0,
            ],
        ),
        (
            FleetCommand::MigrateInstance {
                at: 4_000,
                id: 7,
                dst_pod: 3,
                path: TransferPath::Nic,
            },
            vec![
                7, 160, 15, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1,
            ],
        ),
        (
            FleetCommand::FinishMigration {
                at: 5_000,
                id: 7,
                commit: true,
            },
            vec![8, 136, 19, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1],
        ),
        (
            FleetCommand::FinishMigration {
                at: 5_000,
                id: 7,
                commit: false,
            },
            vec![8, 136, 19, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
    ]
}

#[test]
fn fleet_command_golden_bytes() {
    let mut tags = check_goldens(fleet_goldens());
    tags.extend(check_goldens(device_goldens()));
    assert_eq!(
        tags,
        decodable_tags(FleetCommand::decode),
        "a tag without a golden"
    );
}

#[test]
fn transfer_path_and_section_tags_are_pinned() {
    let paths = [TransferPath::Cxl, TransferPath::Nic];
    for p in paths {
        assert_eq!(p.to_byte(), path_byte(p), "{p:?} left its pinned byte");
        assert_eq!(TransferPath::from_byte(p.to_byte()), Some(p));
    }
    let pinned: BTreeSet<u8> = paths.into_iter().map(path_byte).collect();
    let decodable = decodable_tags(|b| b.first().and_then(|&b| TransferPath::from_byte(b)));
    assert_eq!(pinned, decodable, "a transfer path without a golden");

    let sections = [
        SnapshotSection::Meta,
        SnapshotSection::Engine,
        SnapshotSection::FleetState,
        SnapshotSection::ReplayCursor,
    ];
    for s in sections {
        assert_eq!(s.tag(), section_tag(s), "{s:?} left its pinned tag");
        assert_eq!(SnapshotSection::from_tag(s.tag()), Some(s));
    }
    let pinned: BTreeSet<u8> = sections.into_iter().map(section_tag).collect();
    let decodable = decodable_tags(|b| b.first().and_then(|&t| SnapshotSection::from_tag(t)));
    assert_eq!(pinned, decodable, "a snapshot section without a golden");
}
