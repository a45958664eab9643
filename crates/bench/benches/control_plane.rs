//! Criterion benches for control-plane operations: allocator placement,
//! command codec, and Raft log replication.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oasis_core::allocator::{AllocCommand, AllocState};
use oasis_net::addr::Ipv4Addr;
use oasis_raft::{RaftConfig, RaftNode};
use oasis_sim::time::{SimDuration, SimTime};

fn populated_state(nics: u32, instances: u32) -> AllocState {
    let mut s = AllocState::default();
    let ttl = SimDuration::from_millis(300);
    for n in 0..nics {
        s.apply(
            SimTime::ZERO,
            ttl,
            &AllocCommand::RegisterNic {
                nic: n,
                host: n,
                capacity_mbps: 100_000,
                backup: n == nics - 1,
            },
        );
    }
    for i in 0..instances {
        s.apply(
            SimTime::ZERO,
            ttl,
            &AllocCommand::Assign {
                ip: Ipv4Addr::instance(i),
                host: i % nics,
                nic: i % (nics - 1),
                lease_mbps: 1_000,
            },
        );
    }
    s
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("placement_16nics_500instances", |b| {
        let s = populated_state(16, 500);
        b.iter(|| s.pick_nic(99, 5_000)); // remote host: least-loaded scan
    });
    c.bench_function("command_codec_roundtrip", |b| {
        let cmd = AllocCommand::Assign {
            ip: Ipv4Addr::instance(7),
            host: 3,
            nic: 2,
            lease_mbps: 25_000,
        };
        b.iter(|| AllocCommand::decode(&cmd.encode()).unwrap());
    });
}

fn bench_raft(c: &mut Criterion) {
    let mut group = c.benchmark_group("raft");
    const N: u64 = 100;
    group.throughput(Throughput::Elements(N));
    group.bench_function("replicate_100_commands_3nodes", |b| {
        b.iter(|| {
            let ids: Vec<usize> = (0..3).collect();
            let mut nodes: Vec<RaftNode> = ids
                .iter()
                .map(|&id| {
                    let peers = ids.iter().copied().filter(|&p| p != id).collect();
                    RaftNode::new(id, peers, RaftConfig::default(), 42)
                })
                .collect();
            let mut now = SimTime::ZERO;
            let mut wire: Vec<(usize, usize, oasis_raft::RaftMessage)> = Vec::new();
            let mut proposed = 0u64;
            let mut committed = 0u64;
            while committed < N {
                now += SimDuration::from_micros(500);
                let deliveries = std::mem::take(&mut wire);
                for (from, to, msg) in deliveries {
                    nodes[to].handle(now, from, msg);
                }
                for n in nodes.iter_mut() {
                    n.tick(now);
                }
                if let Some(leader) = nodes.iter().position(|n| n.is_leader()) {
                    if proposed < N {
                        nodes[leader].propose(now, vec![proposed as u8]);
                        proposed += 1;
                    }
                    committed = nodes[leader].commit_index();
                }
                #[expect(
                    clippy::needless_range_loop,
                    reason = "indexing sidesteps borrowing `nodes` while `take_outbox` mutates \
                              one element"
                )]
                for i in 0..nodes.len() {
                    for (to, msg) in nodes[i].take_outbox() {
                        wire.push((i, to, msg));
                    }
                }
            }
            committed
        });
    });
    group.finish();
}

criterion_group!(benches, bench_allocator, bench_raft);
criterion_main!(benches);
