//! The allocator state machine across multiple replicas.
//!
//! §3.5: "The allocator itself is replicated with Raft." The runtime runs
//! one replica for simplicity; this module proves the state machine is
//! replication-safe by driving [`FleetState`] through an `oasis-raft`
//! cluster: every replica applies the committed command stream and must
//! converge to identical state, across leader failures.

use super::command::FleetCommand;
use super::fleet::FleetState;

/// Apply a committed command stream to a fresh state (what each replica
/// does when draining its Raft apply queue).
pub fn replay(commands: &[Vec<u8>]) -> FleetState {
    let mut s = FleetState::default();
    for bytes in commands {
        if let Some(cmd) = FleetCommand::decode(bytes) {
            s.apply(&cmd);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_net::addr::Ipv4Addr;
    use oasis_raft::{RaftConfig, RaftNode};
    use oasis_sim::event::EventQueue;
    use oasis_sim::time::{SimDuration, SimTime};

    /// Drive a 3-node cluster over a simulated wire, proposing the encoded
    /// `commands` at whichever node is leader, crashing the leader after
    /// `crash_after` proposals. Returns each live replica's applied
    /// command stream; every one is asserted to hold the full workload.
    fn run_cluster(commands: &[Vec<u8>], crash_after: usize) -> Vec<Vec<Vec<u8>>> {
        let n = 3;
        let mut nodes: Vec<RaftNode> = (0..n)
            .map(|id| {
                let peers: Vec<usize> = (0..n).filter(|&p| p != id).collect();
                RaftNode::new(id, peers, RaftConfig::default(), 7)
            })
            .collect();
        let mut wire: EventQueue<(usize, usize, oasis_raft::RaftMessage)> = EventQueue::new();
        let mut up = vec![true; n];
        let mut applied: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
        let mut now = SimTime::ZERO;

        let mut next_cmd = 0usize;
        // The leader to crash and the round it goes down: proposals pause
        // for 20 rounds first, so the last one replicates.
        let mut crash: Option<(usize, usize)> = None;

        for round in 0..4000 {
            now += SimDuration::from_micros(500);
            while let Some((_, (from, to, msg))) = wire.pop_due(now) {
                if up[to] && up[from] {
                    nodes[to].handle(now, from, msg);
                }
            }
            match crash {
                Some((leader, at)) if round == at => up[leader] = false,
                Some((_, at)) if round < at => {}
                // Propose the next command once a leader exists.
                _ if next_cmd < commands.len() => {
                    if let Some(leader) = (0..n).find(|&i| up[i] && nodes[i].is_leader()) {
                        if nodes[leader]
                            .propose(now, commands[next_cmd].clone())
                            .is_some()
                        {
                            next_cmd += 1;
                            // Crash the leader midway through the workload.
                            if next_cmd == crash_after {
                                crash = Some((leader, round + 20));
                            }
                        }
                    }
                }
                _ => {}
            }
            for i in 0..n {
                if up[i] {
                    nodes[i].tick(now);
                }
            }
            for i in 0..n {
                for (to, msg) in nodes[i].take_outbox() {
                    if up[i] {
                        wire.push(now + SimDuration::from_micros(5), (i, to, msg));
                    }
                }
                for (_, cmd) in nodes[i].drain_committed() {
                    applied[i].push(cmd.to_vec());
                }
            }
            if next_cmd == commands.len()
                && (0..n)
                    .filter(|&i| up[i])
                    .all(|i| applied[i].len() >= commands.len())
            {
                break;
            }
        }

        let live: Vec<usize> = (0..n).filter(|&i| up[i]).collect();
        assert!(live.len() >= 2);
        for &i in &live {
            assert!(
                applied[i].len() >= commands.len(),
                "replica {i} applied {} of {}",
                applied[i].len(),
                commands.len()
            );
        }
        live.into_iter()
            .map(|i| std::mem::take(&mut applied[i]))
            .collect()
    }

    /// One log of device and fleet commands — NIC failover, a volume,
    /// pods, a link, creates with a spill, a resize, a kill — proposed at
    /// whichever node leads, with the leader crashing midway: every
    /// surviving replica must converge to the same whole state.
    #[test]
    fn replicas_converge_across_leader_failure() {
        let pod = |p: u32| FleetCommand::RegisterPod {
            pod: p,
            hosts: 2,
            vcpus_per_host: 96,
            mem_gb_per_host: 512,
            nic_mbps: 40_000,
            ssd_cap: 4_000,
        };
        let create = |at: u64, nic_mbps: u32, home_pod: u32| FleetCommand::CreateInstance {
            at,
            vcpus: 8,
            mem_gb: 32,
            ssd: 1_000,
            nic_mbps,
            home_pod,
        };
        let ip = Ipv4Addr::instance(1);
        let assign = |nic: u32| FleetCommand::Assign {
            ip,
            host: 0,
            nic,
            lease_mbps: 10_000,
        };
        let commands: Vec<Vec<u8>> = [
            FleetCommand::RegisterNic {
                nic: 0,
                host: 0,
                capacity_mbps: 100_000,
                backup: false,
            },
            FleetCommand::RegisterNic {
                nic: 1,
                host: 1,
                capacity_mbps: 100_000,
                backup: true,
            },
            pod(0),
            pod(1),
            assign(0),
            FleetCommand::AddLink {
                a: 0,
                b: 1,
                latency_ns: 2_000,
            },
            // Two 30 Gb/s leases pinned to pod 0: the second cannot fit
            // pod 0's remaining 10 Gb/s and spills its devices to pod 1.
            create(100, 30_000, 0),
            FleetCommand::MarkFailed { nic: 0 },
            create(200, 30_000, 0),
            assign(1),
            FleetCommand::RegisterSsd {
                ssd: 0,
                host: 1,
                capacity_blocks: 4_096,
            },
            FleetCommand::AssignVolume {
                ip,
                ssd: 0,
                base_block: 0,
                blocks: 64,
            },
            FleetCommand::ResizeInstance {
                at: 300,
                id: 0,
                nic_mbps: 10_000,
                ssd: 500,
            },
            FleetCommand::KillInstance { at: 400, id: 1 },
        ]
        .iter()
        .map(|c| c.encode())
        .collect();

        let streams = run_cluster(&commands, 7);
        let s = replay(&streams[0]);
        for (i, stream) in streams.iter().enumerate().skip(1) {
            assert_eq!(s, replay(stream), "replica {i} diverged");
        }
        // The device books reflect the failover...
        assert!(s.devices.nics[0].as_ref().unwrap().failed);
        assert_eq!(s.devices.instances_on(1).len(), 1);
        assert_eq!(s.devices.ssds[0].as_ref().unwrap().allocated_blocks, 64);
        // ...and the pod books the spill, resize and kill.
        assert_eq!(s.placed, 2);
        assert_eq!(s.killed, 1);
        assert_eq!(s.resizes, 1);
        assert_eq!(s.spill_placements, vec![1, 0], "second create spilled");
        assert!(
            s.spill_bytes[0] > 0,
            "killing the spilled instance closes its traffic epoch"
        );
    }

    /// The fleet command stream alone — pods, a link, creates with a
    /// spill, a resize, a kill, no device commands — converges across a
    /// leader failure that lands inside the creates.
    #[test]
    fn fleet_replicas_converge_across_leader_failure() {
        let pod = |p: u32| FleetCommand::RegisterPod {
            pod: p,
            hosts: 2,
            vcpus_per_host: 96,
            mem_gb_per_host: 512,
            nic_mbps: 40_000,
            ssd_cap: 4_000,
        };
        let create = |at: u64, nic_mbps: u32, home_pod: u32| FleetCommand::CreateInstance {
            at,
            vcpus: 8,
            mem_gb: 32,
            ssd: 1_000,
            nic_mbps,
            home_pod,
        };
        let commands: Vec<Vec<u8>> = [
            pod(0),
            pod(1),
            FleetCommand::AddLink {
                a: 0,
                b: 1,
                latency_ns: 2_000,
            },
            create(100, 30_000, 0),
            create(200, 30_000, 0),
            FleetCommand::ResizeInstance {
                at: 300,
                id: 0,
                nic_mbps: 10_000,
                ssd: 500,
            },
            FleetCommand::KillInstance { at: 400, id: 1 },
        ]
        .iter()
        .map(|c| c.encode())
        .collect();

        let streams = run_cluster(&commands, 4);
        let s = replay(&streams[0]);
        for (i, stream) in streams.iter().enumerate().skip(1) {
            assert_eq!(s, replay(stream), "fleet replica {i} diverged");
        }
        assert_eq!(
            s.devices,
            Default::default(),
            "no device commands were booked"
        );
        assert_eq!(s.placed, 2);
        assert_eq!(s.killed, 1);
        assert_eq!(s.resizes, 1);
        assert_eq!(s.spill_placements, vec![1, 0], "second create spilled");
        assert!(
            s.spill_bytes[0] > 0,
            "killing the spilled instance closes its traffic epoch"
        );
    }
}
