//! Truncation and bit-flip sweeps over every allocator command decoder.
//!
//! Commands are decoded from slices the raft log lends out. For every
//! fleet-scope and every device variant, every truncation and every
//! single-bit flip of its encoding is proposed into a single-node raft group and decoded from the
//! delivered slice: the result must be `None` or a command that re-encodes
//! to exactly those bytes, and decoding must never panic.

use oasis_core::allocator::{FleetCommand, TransferPath, ANY_POD};
use oasis_net::addr::Ipv4Addr;
use oasis_raft::{RaftConfig, RaftNode};
use oasis_sim::time::SimTime;
use proptest::prelude::*;

fn fleet_commands() -> Vec<FleetCommand> {
    vec![
        FleetCommand::RegisterPod {
            pod: 3,
            hosts: 8,
            vcpus_per_host: 96,
            mem_gb_per_host: 512,
            nic_mbps: 700_000,
            ssd_cap: 98_304,
        },
        FleetCommand::AddLink {
            a: 1,
            b: 2,
            latency_ns: 2_000,
        },
        FleetCommand::CreateInstance {
            at: 123_456_789,
            vcpus: 16,
            mem_gb: 64,
            ssd: 512,
            nic_mbps: 10_000,
            home_pod: 5,
        },
        FleetCommand::CreateInstance {
            at: 0,
            vcpus: 1,
            mem_gb: 1,
            ssd: 0,
            nic_mbps: 0,
            home_pod: ANY_POD,
        },
        FleetCommand::ResizeInstance {
            at: 7,
            id: 100_001,
            nic_mbps: 45_000,
            ssd: 2_048,
        },
        FleetCommand::KillInstance { at: 9, id: 42 },
        FleetCommand::QueryFleetState,
        FleetCommand::MigrateInstance {
            at: 11,
            id: 42,
            dst_pod: 63,
            path: TransferPath::Cxl,
        },
        FleetCommand::MigrateInstance {
            at: 12,
            id: 43,
            dst_pod: 0,
            path: TransferPath::Nic,
        },
        FleetCommand::FinishMigration {
            at: 13,
            id: 42,
            commit: true,
        },
        FleetCommand::FinishMigration {
            at: 14,
            id: 43,
            commit: false,
        },
    ]
}

fn device_commands() -> Vec<FleetCommand> {
    let ip = Ipv4Addr::instance(9);
    vec![
        FleetCommand::RegisterNic {
            nic: 3,
            host: 1,
            capacity_mbps: 100_000,
            backup: true,
        },
        FleetCommand::RegisterNic {
            nic: 4,
            host: 2,
            capacity_mbps: 40_000,
            backup: false,
        },
        FleetCommand::Assign {
            ip,
            host: 2,
            nic: 0,
            lease_mbps: 10_000,
        },
        FleetCommand::Unassign { ip },
        FleetCommand::MarkFailed { nic: 7 },
        FleetCommand::MarkRepaired { nic: 7 },
        FleetCommand::RegisterSsd {
            ssd: 2,
            host: 1,
            capacity_blocks: 4096,
        },
        FleetCommand::AssignVolume {
            ip,
            ssd: 2,
            base_block: 128,
            blocks: 256,
        },
        FleetCommand::ReleaseVolumes { ip },
        FleetCommand::MarkHostFailed { host: 4 },
        FleetCommand::MarkHostRestarted { host: 4 },
        FleetCommand::RegisterAccel { accel: 1, host: 3 },
    ]
}

/// Every proper truncation and every single-bit flip of `bytes`.
fn mutations(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.to_vec();
            m[i] ^= 1 << bit;
            out.push(m);
        }
    }
    out
}

/// Propose every non-empty input into a single-node raft group and hand
/// each delivered slice to `check`. An empty input is an election no-op
/// to raft, so it is checked directly.
fn through_the_log(inputs: &[Vec<u8>], check: impl Fn(&[u8])) {
    let mut raft = RaftNode::new(0, vec![], RaftConfig::default(), 1);
    let now = SimTime::from_millis(25);
    raft.tick(now);
    assert!(raft.is_leader());
    let mut proposed = 0;
    for input in inputs {
        if input.is_empty() {
            check(input);
        } else {
            raft.propose(now, input.clone()).expect("leader accepts");
            proposed += 1;
        }
    }
    let mut delivered = 0;
    for (_, slice) in raft.drain_committed() {
        check(slice);
        delivered += 1;
    }
    assert_eq!(delivered, proposed);
}

fn sweep(commands: Vec<FleetCommand>) {
    for cmd in commands {
        let bytes = cmd.encode();
        assert_eq!(FleetCommand::decode(&bytes), Some(cmd.clone()));
        through_the_log(&mutations(&bytes), |m| {
            if let Some(c) = FleetCommand::decode(m) {
                assert_eq!(c.encode(), m, "{cmd:?} mutated to {m:?} decoded as {c:?}");
            }
        });
    }
}

#[test]
fn fleet_command_sweep() {
    sweep(fleet_commands());
}

#[test]
fn alloc_command_sweep() {
    sweep(device_commands());
}

#[test]
fn trailing_bytes_and_non_boolean_flags_are_refused() {
    let mut long = FleetCommand::KillInstance { at: 1, id: 2 }.encode();
    long.push(0);
    assert_eq!(FleetCommand::decode(&long), None);
    let mut commit = FleetCommand::FinishMigration {
        at: 1,
        id: 2,
        commit: true,
    }
    .encode();
    *commit.last_mut().unwrap() = 2;
    assert_eq!(FleetCommand::decode(&commit), None);
    let mut backup = FleetCommand::RegisterNic {
        nic: 0,
        host: 0,
        capacity_mbps: 1,
        backup: false,
    }
    .encode();
    *backup.last_mut().unwrap() = 0x80;
    assert_eq!(FleetCommand::decode(&backup), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_decode_exactly_or_not_at_all(
        tag in 0u8..21,
        body in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut bytes = vec![tag];
        bytes.extend(body);
        if let Some(c) = FleetCommand::decode(&bytes) {
            prop_assert_eq!(c.encode(), bytes);
        }
    }
}
