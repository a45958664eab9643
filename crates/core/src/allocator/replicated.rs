//! Multi-replica allocator state machines.
//!
//! §3.5: "The allocator itself is replicated with Raft." The pod runtime
//! runs one replica for simplicity; this module proves the state machines
//! are replication-safe by driving [`AllocState`] — and the fleet-level
//! [`FleetState`] — through an `oasis-raft` cluster: every replica applies
//! the committed command stream and must converge to identical state,
//! across leader failures.

use oasis_sim::time::{SimDuration, SimTime};

use super::command::{AllocCommand, FleetCommand};
use super::fleet::FleetState;
use super::service::AllocState;

/// Apply a committed command stream to a fresh state (what each replica
/// does when draining its Raft apply queue).
pub fn replay(commands: &[Vec<u8>]) -> AllocState {
    let mut s = AllocState::default();
    let ttl = SimDuration::from_millis(300);
    for bytes in commands {
        if let Some(cmd) = AllocCommand::decode(bytes) {
            s.apply(SimTime::ZERO, ttl, &cmd);
        }
    }
    s
}

/// Apply a committed fleet command stream to a fresh fleet state machine.
pub fn replay_fleet_log(commands: &[Vec<u8>]) -> FleetState {
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
    use crate::allocator::PodAllocator;
    use oasis_net::addr::Ipv4Addr;
    use oasis_raft::{RaftConfig, RaftNode};
    use oasis_sim::event::EventQueue;

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
        let mut crashed = false;

        for _round in 0..4000 {
            now += SimDuration::from_micros(500);
            while let Some((_, (from, to, msg))) = wire.pop_due(now) {
                if up[to] && up[from] {
                    nodes[to].handle(now, from, msg);
                }
            }
            for i in 0..n {
                if up[i] {
                    nodes[i].tick(now);
                }
            }
            // Propose the next command once a leader exists.
            if next_cmd < commands.len() {
                if let Some(leader) = (0..n).find(|&i| up[i] && nodes[i].is_leader()) {
                    if nodes[leader]
                        .propose(now, commands[next_cmd].clone())
                        .is_some()
                    {
                        next_cmd += 1;
                        // Crash the leader midway through the workload.
                        if next_cmd == crash_after && !crashed {
                            crashed = true;
                            // Let this proposal replicate first.
                            for _ in 0..20 {
                                now += SimDuration::from_micros(500);
                                while let Some((_, (from, to, msg))) = wire.pop_due(now) {
                                    if up[to] && up[from] {
                                        nodes[to].handle(now, from, msg);
                                    }
                                }
                                #[expect(
                                    clippy::needless_range_loop,
                                    reason = "indexing sidesteps borrowing `nodes` while \
                                              `take_outbox` mutates one element"
                                )]
                                for i in 0..n {
                                    for (to, msg) in nodes[i].take_outbox() {
                                        wire.push(now + SimDuration::from_micros(5), (i, to, msg));
                                    }
                                }
                            }
                            up[leader] = false;
                        }
                    }
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

    /// Drive a 3-node cluster, proposing allocator commands at the leader,
    /// with a leader crash in the middle; all surviving replicas must
    /// converge to the same allocator state.
    #[test]
    fn replicas_converge_across_leader_failure() {
        let commands: Vec<Vec<u8>> = [
            AllocCommand::RegisterNic {
                nic: 0,
                host: 0,
                capacity_mbps: 100_000,
                backup: false,
            },
            AllocCommand::RegisterNic {
                nic: 1,
                host: 1,
                capacity_mbps: 100_000,
                backup: true,
            },
            AllocCommand::Assign {
                ip: Ipv4Addr::instance(1),
                host: 0,
                nic: 0,
                lease_mbps: 10_000,
            },
            AllocCommand::MarkFailed { nic: 0 },
            AllocCommand::Assign {
                ip: Ipv4Addr::instance(1),
                host: 0,
                nic: 1,
                lease_mbps: 10_000,
            },
        ]
        .iter()
        .map(|c| c.encode())
        .collect();

        let streams = run_cluster(&commands, 3);
        let view0 = PodAllocator::log_view(&replay(&streams[0]));
        for (i, stream) in streams.iter().enumerate().skip(1) {
            assert_eq!(
                view0,
                PodAllocator::log_view(&replay(stream)),
                "replica {i} diverged"
            );
        }
        // And the final state reflects the failover.
        let s = replay(&streams[0]);
        assert!(s.nics[0].as_ref().unwrap().failed);
        assert_eq!(s.instances_on(1).len(), 1);
    }

    /// The fleet state machine is replication-safe too: the same typed
    /// control-plane command stream (pods, a link, creates with a spill,
    /// a resize, a kill) converges across a leader failure.
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
            // Two 30 Gb/s leases pinned to pod 0: the second cannot fit
            // pod 0's remaining 10 Gb/s and spills its devices to pod 1.
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
        let s = replay_fleet_log(&streams[0]);
        for (i, stream) in streams.iter().enumerate().skip(1) {
            assert_eq!(s, replay_fleet_log(stream), "fleet replica {i} diverged");
        }
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
