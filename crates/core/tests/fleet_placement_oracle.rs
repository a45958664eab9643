//! `FleetState` placement held to a brute-force reference.
//!
//! The reference is the full-scan two-pass policy: both passes walk every
//! pod and filter by scope, and every pod's spill order is recomputed from
//! `FleetState::topology()` at each placement. The state machine under
//! test visits only the in-scope pods and keeps spill orders derived once
//! per topology change. Random fleets (1–12 pods of 1–8 hosts; chain, ring
//! or random links) take random command streams with `RegisterPod` and
//! `AddLink` interleaved between creates, so anything the state machine
//! derives from the topology goes stale mid-stream. Creates pin a home
//! pod, ask for `ANY_POD`, or name a pod that does not exist; kills,
//! resizes and migrations change capacity in between. Every response and
//! the final state must match.

use oasis_core::allocator::{
    FleetCommand, FleetInstance, FleetResponse, FleetState, PodCapacity, TransferPath, ANY_POD,
};
use proptest::prelude::*;

/// Post-placement `(vcpu, mem)` slack of `host`, or `None` when the host
/// cannot take the request.
fn slack(pc: &PodCapacity, host: usize, vcpus: u32, mem_gb: u32) -> Option<(u32, u32)> {
    let vs = pc
        .vcpus_per_host
        .checked_sub(pc.host_vcpus_used[host].checked_add(vcpus)?)?;
    let ms = pc
        .mem_gb_per_host
        .checked_sub(pc.host_mem_used[host].checked_add(mem_gb)?)?;
    Some((vs, ms))
}

/// A pass-2 ranking key: `(hops, vcpu slack, mem slack)`.
type SpillKey = (u32, u32, u32);

/// The reference placement `(pod, host, device_pod)`: pass 1 best-fits a
/// host whose own pod serves the devices; pass 2 best-fits by
/// `(hops, vcpu slack, mem slack)` with devices on the first pod of the
/// home pod's spill order that fits. First minimum wins in both.
fn reference_place(
    s: &FleetState,
    vcpus: u32,
    mem_gb: u32,
    ssd: u32,
    nic_mbps: u32,
    home_pod: u32,
) -> Option<(usize, usize, usize)> {
    let in_scope = |p: usize| home_pod == ANY_POD || home_pod as usize == p;
    let fits = |p: usize| s.pods[p].devices_fit(nic_mbps as u64, ssd as u64);
    let mut best: Option<((u32, u32), (usize, usize))> = None;
    for (p, pc) in s.pods.iter().enumerate() {
        if !in_scope(p) || !fits(p) {
            continue;
        }
        for h in 0..pc.hosts() {
            if let Some(key) = slack(pc, h, vcpus, mem_gb) {
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, (p, h)));
                }
            }
        }
    }
    if let Some((_, (p, h))) = best {
        return Some((p, h, p));
    }
    let topo = s.topology();
    let mut best: Option<(SpillKey, (usize, usize, usize))> = None;
    for (p, pc) in s.pods.iter().enumerate() {
        if !in_scope(p) {
            continue;
        }
        let Some(hop) = topo.spill_order(p).into_iter().find(|hop| fits(hop.pod)) else {
            continue;
        };
        for h in 0..pc.hosts() {
            if let Some((vs, ms)) = slack(pc, h, vcpus, mem_gb) {
                let key = (hop.hops, vs, ms);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, (p, h, hop.pod)));
                }
            }
        }
    }
    best.map(|(_, placed)| placed)
}

/// The reference state machine: a create is placed by [`reference_place`]
/// and booked here; every other command goes through `FleetState::apply`,
/// whose capacity bookkeeping is not what this test is about.
fn reference_apply(s: &mut FleetState, cmd: &FleetCommand) -> FleetResponse {
    let FleetCommand::CreateInstance {
        at,
        vcpus,
        mem_gb,
        ssd,
        nic_mbps,
        home_pod,
    } = *cmd
    else {
        return s.apply(cmd);
    };
    let id = s.instances.len() as u64;
    let Some((pod, host, device_pod)) = reference_place(s, vcpus, mem_gb, ssd, nic_mbps, home_pod)
    else {
        s.instances.push(None);
        s.rejected += 1;
        return FleetResponse::Rejected;
    };
    s.pods[pod].host_vcpus_used[host] += vcpus;
    s.pods[pod].host_mem_used[host] += mem_gb;
    s.pods[device_pod].nic_mbps_used += nic_mbps as u64;
    s.pods[device_pod].ssd_used += ssd as u64;
    s.instances.push(Some(FleetInstance {
        vcpus,
        mem_gb,
        ssd,
        nic_mbps,
        pod: pod as u32,
        host: host as u32,
        device_pod: device_pod as u32,
        placed_at: at,
    }));
    s.placed += 1;
    s.pod_placements[device_pod] += 1;
    if device_pod != pod {
        s.spill_placements[pod] += 1;
    }
    FleetResponse::Created {
        id,
        pod,
        host,
        device_pod,
    }
}

const LATENCIES_NS: [u64; 3] = [1_000, 2_000, 3_000];
const VCPUS_PER_HOST: [u32; 3] = [16, 32, 96];

/// One stream step. Indices are taken modulo what exists when the step
/// runs, so every generated stream is meaningful at any fleet size.
#[derive(Clone, Debug)]
enum Op {
    /// `home` < 10 pins pod `home % pods`; 10..13 is `ANY_POD`; 13..16 is
    /// `pods + (home - 13)`, a pod that does not exist.
    Create {
        vcpus: u32,
        mem_per_vcpu: u32,
        ssd: u32,
        nic_mbps: u32,
        home: u32,
    },
    Kill(usize),
    Resize(usize, u32, u32),
    Migrate(usize, usize, bool),
    Finish(usize, bool),
    RegisterPod(u32, u64),
    AddLink(usize, usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let create = || {
        (
            prop_oneof![Just(2u32), Just(4), Just(8), Just(16)],
            1u32..=8,
            0u32..=1_500,
            0u32..=15_000,
            0u32..16,
        )
            .prop_map(|(vcpus, mem_per_vcpu, ssd, nic_mbps, home)| Op::Create {
                vcpus,
                mem_per_vcpu,
                ssd,
                nic_mbps,
                home,
            })
    };
    prop_oneof![
        create(),
        create(),
        create(),
        create(),
        create(),
        create(),
        (0usize..64).prop_map(Op::Kill),
        (0usize..64).prop_map(Op::Kill),
        (0usize..64).prop_map(Op::Kill),
        (0usize..64, 0u32..=15_000, 0u32..=1_500).prop_map(|(i, n, s)| Op::Resize(i, n, s)),
        (0usize..64, 0usize..16, any::<bool>()).prop_map(|(i, d, p)| Op::Migrate(i, d, p)),
        (0usize..64, any::<bool>()).prop_map(|(i, c)| Op::Finish(i, c)),
        (1u32..=8, 5_000u64..=40_000).prop_map(|(h, n)| Op::RegisterPod(h, n)),
        (0usize..16, 0usize..16, 0usize..3).prop_map(|(a, b, l)| Op::AddLink(a, b, l)),
        (0usize..16, 0usize..16, 0usize..3).prop_map(|(a, b, l)| Op::AddLink(a, b, l)),
    ]
}

fn register(pod: usize, hosts: u32, vcpus_per_host: u32, nic_per_host: u64) -> FleetCommand {
    FleetCommand::RegisterPod {
        pod: pod as u32,
        hosts,
        vcpus_per_host,
        mem_gb_per_host: vcpus_per_host * 8,
        nic_mbps: hosts as u64 * nic_per_host,
        ssd_cap: hosts as u64 * 2_000,
    }
}

/// An `AddLink` between two distinct, not yet linked pods, if `(a, b)`
/// names one (modulo the pod count).
fn link(s: &FleetState, a: usize, b: usize, lat: usize) -> Option<FleetCommand> {
    let n = s.pods.len();
    let (a, b) = (a % n, b % n);
    (a != b && !s.has_link(a, b)).then_some(FleetCommand::AddLink {
        a: a as u32,
        b: b as u32,
        latency_ns: LATENCIES_NS[lat % LATENCIES_NS.len()],
    })
}

/// The `i`-th (cyclically) live instance, or instance 0 when none is live.
fn live_id(s: &FleetState, i: usize) -> u64 {
    let live: Vec<u64> = (0..s.instances.len() as u64)
        .filter(|&id| s.is_live(id))
        .collect();
    live.get(i % live.len().max(1)).copied().unwrap_or(0)
}

/// Materialise `op` against the current state (`None` when it names
/// nothing applicable, such as a self-link).
fn command(s: &FleetState, at: u64, op: &Op) -> Option<FleetCommand> {
    let n = s.pods.len();
    Some(match *op {
        Op::Create {
            vcpus,
            mem_per_vcpu,
            ssd,
            nic_mbps,
            home,
        } => FleetCommand::CreateInstance {
            at,
            vcpus,
            mem_gb: vcpus * mem_per_vcpu,
            ssd,
            nic_mbps,
            home_pod: match home {
                0..10 => home % n as u32,
                10..13 => ANY_POD,
                _ => n as u32 + (home - 13),
            },
        },
        Op::Kill(i) => FleetCommand::KillInstance {
            at,
            id: live_id(s, i),
        },
        Op::Resize(i, nic_mbps, ssd) => FleetCommand::ResizeInstance {
            at,
            id: live_id(s, i),
            nic_mbps,
            ssd,
        },
        Op::Migrate(i, dst, nic) => FleetCommand::MigrateInstance {
            at,
            id: live_id(s, i),
            dst_pod: (dst % n) as u32,
            path: if nic {
                TransferPath::Nic
            } else {
                TransferPath::Cxl
            },
        },
        Op::Finish(i, commit) => FleetCommand::FinishMigration {
            at,
            id: match s.migrations.len() {
                0 => live_id(s, i),
                m => s.migrations[i % m].0,
            },
            commit,
        },
        Op::RegisterPod(hosts, nic_per_host) => register(n, hosts, 32, nic_per_host),
        Op::AddLink(a, b, lat) => return link(s, a, b, lat),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn placement_matches_the_brute_force_reference(
        pods in proptest::collection::vec(
            (1u32..=8, 0usize..3, 5_000u64..=40_000),
            1..13,
        ),
        shape in 0usize..3,
        extra_links in proptest::collection::vec((0usize..12, 0usize..12, 0usize..3), 0..16),
        ops in proptest::collection::vec(op_strategy(), 20..160),
    ) {
        let mut sut = FleetState::default();
        let mut reference = FleetState::default();
        let step = |sut: &mut FleetState, reference: &mut FleetState, cmd: FleetCommand| {
            let got = sut.apply(&cmd);
            let want = reference_apply(reference, &cmd);
            prop_assert_eq!(&got, &want, "{:?}", cmd);
        };
        for (p, &(hosts, class, nic)) in pods.iter().enumerate() {
            step(&mut sut, &mut reference, register(p, hosts, VCPUS_PER_HOST[class], nic));
        }
        let n = pods.len();
        let mut links: Vec<(usize, usize, usize)> = match shape {
            0 => (1..n).map(|p| (p - 1, p, p)).collect(),
            1 => (0..n).map(|p| (p, (p + 1) % n, p)).collect(),
            _ => Vec::new(),
        };
        links.extend(extra_links);
        for (a, b, lat) in links {
            if let Some(cmd) = link(&sut, a, b, lat) {
                step(&mut sut, &mut reference, cmd);
            }
        }
        for (t, op) in ops.iter().enumerate() {
            if let Some(cmd) = command(&sut, 100 * t as u64, op) {
                step(&mut sut, &mut reference, cmd);
            }
        }
        prop_assert_eq!(&sut, &reference);
    }
}
