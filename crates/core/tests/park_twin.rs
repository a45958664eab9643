//! The park twin: a pod that parks its idle pollers against one that never
//! does.
//!
//! Parking (`oasis_core::park`, DESIGN.md §7.3) claims to be *exact*: an
//! engine whose polling rounds are provably empty leaves the run queue and
//! the rounds are charged by count, and nobody — inside the simulation or
//! looking at the pod between runs — can tell. This file holds it to that.
//! Two pods are built alike, one of them with `PodBuilder::never_park`
//! (the poll-by-poll walk, kept as the reference; nothing outside `tests/`
//! calls it), and driven through the same proptest-generated history: UDP
//! echo and TCP memcached tenants under `Pacing::Replay` schedules from
//! near-idle to saturation, block reads and writes and accelerator jobs,
//! `run` in uneven steps from 700 ns to 50 µs, instances launched and
//! terminated, a NIC failure, a host crash and restart, a CXL stall, a
//! Junction baseline host, a frontend with an 8-line cache (so dirty ring
//! lines leave it by eviction). After **every** step each engine's clock,
//! every `MemStats` field, the per-port per-class link meters, every
//! receiver's `empty_polls` / `consumed` and sender's `sent`, the clients'
//! reply timestamps, the drained completions, the metrics snapshot (minus
//! `sim.sched.*` / `sim.shard.*`, which count dispatches) and
//! `Pod::snapshot()` must be equal; at the end, pool memory after
//! `flush_pending()` and every cache's `drain()` order. A second property
//! aims bursts at the 8-line-cache frontend alone; a three-pod `Fleet`
//! chain does the same at one and two shard threads.
//!
//! Seeded mutants this file kills (each applied by hand, `cargo test
//! --test park_twin` run, what failed first noted):
//!
//! * **no landing** — `Pod::pass_parked` drops the `apply_pending(horizon)`
//!   call: an elided round no longer makes other hosts' write-backs visible
//!   early to everyone dispatched after it. `pod_twin` fails at the first
//!   `Run` (a frontend's clock and counters), `fleet_twin` at step 0
//!   (`pending write-backs`).
//! * **`<=` for `<` in the position compare** — `park::rounds_before` counts
//!   a round starting exactly at `at` as before the position whatever the
//!   ids (or as after it whatever the ids): a tied round is elided although
//!   it would have run after the poster, or runs although it came before.
//!   `pod_twin` fails on a backend's (resp. a storage frontend's) clock
//!   within eight steps; the first variant also fails `fleet_twin`.
//! * **meters not charged** — `park::account` skips `charge_line_fetches`:
//!   `port 0 Message (read, write)` differs after the first `Run`.
//! * **`valid_until` ignoring the heartbeat** —
//!   `FrontendDriver::idle_round` leaves `next_heartbeat` out of `due`: the
//!   frontends park at clock 0 and no heartbeat ever goes out. Both twins
//!   fail at the first step on `net-fe0`.
//! * **a watch that misses eviction write-backs** — `HostCtx::evict` posts
//!   past `CxlPool::wake_watchers`: a backend parked on the ring of the
//!   8-line-cache frontend sleeps through a message whose line left that
//!   cache by eviction (and so was clean when the end-of-round `flush`
//!   came). `evicting_frontend_twin` fails within five steps; `pod_twin`
//!   alone meets the pattern too rarely, which is why that property exists.

#![expect(
    clippy::disallowed_methods,
    reason = "the twins are compared on raw pool bytes"
)]

use oasis_accel::{AccelConfig, AccelOp};
use oasis_apps::memcached::{GetRequests, MemcachedFramer, MemcachedServer};
use oasis_apps::tcp_client::TcpRequestClient;
use oasis_apps::{ClientStats, EchoServer, Pacing, StatsHandle, UdpClient};
use oasis_core::config::{BufferPlacement, OasisConfig};
use oasis_core::engine::DeviceEngine;
use oasis_core::fleet::Fleet;
use oasis_core::instance::AppKind;
use oasis_core::pod::{HostDriver, Pod, PodBuilder, PodInput, VolumeHandle};
use oasis_core::tcp::TcpConfig;
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{HostCache, HostCtx};
use oasis_sim::fault::{FaultKind, FaultPlan};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;
use proptest::prelude::*;

/// Timers short enough that heartbeats, link checks, telemetry and failure
/// detection all fire many times inside a sub-millisecond history, and
/// rings short enough to be lapped (epoch flips, consumed-counter refreshes).
fn cfg() -> OasisConfig {
    OasisConfig {
        channel_slots: 512,
        heartbeat_period: SimDuration::from_micros(40),
        telemetry_period: SimDuration::from_micros(90),
        link_check_period: SimDuration::from_micros(25),
        link_detect: SimDuration::from_micros(30),
        allocator_poll: SimDuration::from_micros(10),
        ..OasisConfig::default()
    }
}

/// A tiny deterministic generator for the replay schedules.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// `(send_ns, frame_bytes)` events at one of four load levels: near-idle
/// (tens of µs apart), moderate, back-to-back, and bursts of two to five
/// frames with idle gaps between them (several replies due in one polling
/// round of a frontend whose peers have parked).
fn schedule(rng: &mut Lcg, level: u64, horizon_ns: u64) -> Vec<(u64, u16)> {
    let (lo, hi, burst) = match level % 4 {
        0 => (20_000, 90_000, 1),
        1 => (1_500, 9_000, 1),
        2 => (120, 600, 1),
        _ => (4_000, 30_000, 5),
    };
    // Never empty: a `UdpClient` replaying nothing would spin at its start.
    let mut at = rng.range(0, hi.min(horizon_ns.max(1)));
    let mut events = Vec::new();
    while events.is_empty() || (at < horizon_ns && events.len() < 600) {
        for _ in 0..rng.range(1, burst + 1) {
            events.push((at, rng.range(64, 1_400) as u16));
            at += rng.range(80, 300);
        }
        at += rng.range(lo, hi);
    }
    events
}

#[derive(Clone, Debug)]
enum Step {
    Run(u64),
    Write {
        tenant: usize,
        lba: u64,
        nlb: u64,
    },
    Read {
        tenant: usize,
        lba: u64,
        nlb: u32,
    },
    Job {
        tenant: usize,
        len: usize,
        scale: bool,
    },
    Drain,
    Launch {
        tenant: usize,
    },
    Terminate {
        nth: usize,
    },
    NicFailure {
        nic: usize,
        after_ns: u64,
    },
    HostFailure {
        tenant: usize,
        after_ns: u64,
        down_ns: u64,
    },
    Stall {
        host: usize,
        after_ns: u64,
        stall_ns: u64,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let run = || (700u64..50_000).prop_map(Step::Run);
    prop_oneof![
        run(),
        run(),
        run(),
        run(),
        (700u64..4_000).prop_map(Step::Run),
        (0usize..4, 0u64..24, 1u64..8).prop_map(|(tenant, lba, nlb)| Step::Write {
            tenant,
            lba,
            nlb
        }),
        (0usize..4, 0u64..24, 1u32..8).prop_map(|(tenant, lba, nlb)| Step::Read {
            tenant,
            lba,
            nlb
        }),
        (0usize..4, 1usize..65_536, 0u8..2).prop_map(|(tenant, len, s)| Step::Job {
            tenant,
            len,
            scale: s == 1
        }),
        Just(Step::Drain),
        (0usize..4).prop_map(|tenant| Step::Launch { tenant }),
        (0usize..8).prop_map(|nth| Step::Terminate { nth }),
        (0usize..2, 0u64..30_000).prop_map(|(nic, after_ns)| Step::NicFailure { nic, after_ns }),
        (0usize..4, 0u64..30_000, 5_000u64..200_000).prop_map(|(tenant, after_ns, down_ns)| {
            Step::HostFailure {
                tenant,
                after_ns,
                down_ns,
            }
        }),
        (0usize..6, 0u64..30_000, 500u64..40_000).prop_map(|(host, after_ns, stall_ns)| {
            Step::Stall {
                host,
                after_ns,
                stall_ns,
            }
        }),
    ]
}

#[derive(Clone, Debug)]
struct Scenario {
    tenants: usize,
    /// 0: none, 1: baseline host with pool buffers, 2: with local DDR.
    baseline: u8,
    tiny_cache: bool,
    seed: u64,
    steps: Vec<Step>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..5,
        0u8..3,
        0u8..2,
        any::<u64>(),
        proptest::collection::vec(step(), 10..36),
    )
        .prop_map(|(tenants, baseline, tiny, seed, steps)| Scenario {
            tenants,
            baseline,
            tiny_cache: tiny == 1,
            seed,
            steps,
        })
}

/// A lone echo tenant behind the 8-line cache, under bursts: replies go out
/// in the same polling round that copies the next requests in, so the
/// frontend's one dirty ring line is pushed out of its cache by payload
/// lines while the backend it is addressed to sits parked.
fn evicting_scenario() -> impl Strategy<Value = Scenario> {
    let runs = proptest::collection::vec((3_000u64..50_000).prop_map(Step::Run), 8..16);
    (any::<u64>(), runs).prop_map(|(seed, steps)| Scenario {
        tenants: 1,
        baseline: 0,
        tiny_cache: true,
        // Tenant 0's load level is `seed % 4`: bursts.
        seed: seed | 3,
        steps,
    })
}

/// One of the twins, with everything the history needs to address it.
struct World {
    pod: Pod,
    /// Hosts without a NIC, in `tenant` index order.
    tenant_hosts: Vec<usize>,
    /// One volume per tenant (on the instance launched at build).
    volumes: Vec<VolumeHandle>,
    clients: Vec<StatsHandle>,
    /// Instances launched so far, for `Terminate`.
    instances: Vec<usize>,
    /// Everything drained from the frontends so far, as text.
    drained: Vec<String>,
}

const START: SimTime = SimTime::from_micros(2);

fn build(sc: &Scenario, never_park: bool) -> World {
    // Room for every host's storage and accel staging areas.
    let mut b = PodBuilder::new(cfg()).pool_bytes(96 << 20);
    let nic_hosts = [b.add_nic_host(), b.add_nic_host()];
    let tenant_hosts: Vec<usize> = (0..sc.tenants).map(|_| b.add_host()).collect();
    let baseline_host = match sc.baseline {
        1 => Some(b.add_baseline_host(BufferPlacement::CxlPool)),
        2 => Some(b.add_baseline_host(BufferPlacement::LocalDdr)),
        _ => None,
    };
    b.add_ssd(nic_hosts[0], SsdConfig::default());
    b.add_accel(nic_hosts[1], AccelConfig::default());
    let mut b = b.backup_nic_on(nic_hosts[1]);
    if never_park {
        b = b.never_park();
    }
    let mut pod = b.build();
    if sc.tiny_cache {
        // Dirty lines — channel ring lines among them — leave this core by
        // capacity eviction, not only by `clwb`.
        if let HostDriver::Oasis(fe) = &mut pod.drivers[tenant_hosts[0]] {
            fe.core.cache = HostCache::new(8);
        }
    }

    let mut rng = Lcg(sc.seed);
    let horizon_ns: u64 = sc
        .steps
        .iter()
        .map(|s| if let Step::Run(ns) = s { *ns } else { 0 })
        .sum();
    let (mut volumes, mut clients, mut instances) = (Vec::new(), Vec::new(), Vec::new());
    for (t, &host) in tenant_hosts.iter().enumerate() {
        let id = 1 + clients.len() as u64;
        let stats = ClientStats::handle();
        // Tenants alternate UDP echo and TCP memcached.
        let inst = if t % 2 == 0 {
            let service = SimDuration::from_nanos(rng.range(300, 2_000));
            let app = AppKind::Udp(Box::new(EchoServer::new(service)));
            let inst = pod.launch_instance(host, app, 5_000);
            let pacing = Pacing::Replay(schedule(&mut rng, sc.seed >> (2 * t), horizon_ns));
            let (mac, ip) = (pod.instance_mac(inst), pod.instance_ip(inst));
            let client = UdpClient::new(id, mac, ip, 7, 64, pacing, START, stats.clone());
            pod.add_endpoint(Box::new(client));
            inst
        } else {
            let mut server = MemcachedServer::new(SimDuration::from_micros(1));
            for k in 0..4 {
                server.preload(format!("key{k}").as_bytes(), &vec![b'v'; 40 + 300 * k]);
            }
            let inst = pod.launch_instance(host, AppKind::Tcp(Box::new(server)), 5_000);
            pod.instances[inst].server_port = 11211;
            let gap = SimDuration::from_nanos(rng.range(900, 30_000));
            let client = TcpRequestClient::new(
                id,
                pod.instance_mac(inst),
                pod.instance_ip(inst),
                11211,
                gap,
                200,
                START,
                TcpConfig {
                    rto: SimDuration::from_micros(150),
                    ..TcpConfig::default()
                },
                Box::new(GetRequests { keys: 4 }),
                Box::new(MemcachedFramer),
                stats.clone(),
            );
            pod.add_endpoint(Box::new(client));
            inst
        };
        volumes.push(pod.create_volume(inst, 64).expect("the SSD has room"));
        instances.push(inst);
        clients.push(stats);
    }
    if let Some(host) = baseline_host {
        let service = SimDuration::from_nanos(700);
        let app = AppKind::Udp(Box::new(EchoServer::new(service)));
        let inst = pod.launch_instance(host, app, 5_000);
        let stats = ClientStats::handle();
        let pacing = Pacing::Replay(schedule(&mut rng, sc.seed >> 9, horizon_ns));
        let (mac, ip) = (pod.instance_mac(inst), pod.instance_ip(inst));
        let id = 1 + clients.len() as u64;
        let client = UdpClient::new(id, mac, ip, 7, 64, pacing, START, stats.clone());
        pod.add_endpoint(Box::new(client));
        instances.push(inst);
        clients.push(stats);
    }
    World {
        pod,
        tenant_hosts,
        volumes,
        clients,
        instances,
        drained: Vec::new(),
    }
}

impl World {
    fn apply(&mut self, step: &Step) {
        let tenants = self.tenant_hosts.len();
        let pod = &mut self.pod;
        let now = pod.now();
        match *step {
            Step::Run(ns) => pod.run(now + SimDuration::from_nanos(ns)),
            Step::Write { tenant, lba, nlb } => {
                let data: Vec<u8> = (0..nlb * BLOCK_SIZE).map(|i| (i ^ lba) as u8).collect();
                let cid = pod.volume_write(self.volumes[tenant % tenants], lba, &data);
                self.drained.push(format!("write {cid:?}"));
            }
            Step::Read { tenant, lba, nlb } => {
                let cid = pod.volume_read(self.volumes[tenant % tenants], lba, nlb);
                self.drained.push(format!("read {cid:?}"));
            }
            Step::Job { tenant, len, scale } => {
                let host = self.tenant_hosts[tenant % tenants];
                let input: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let op = if scale {
                    AccelOp::Scale
                } else {
                    AccelOp::Checksum
                };
                let cid = pod.submit_accel_job(host, op, 3, &input);
                self.drained.push(format!("job {cid:?}"));
            }
            Step::Drain => {
                for &host in &self.tenant_hosts {
                    for io in pod.take_storage_completions(host) {
                        self.drained.push(format!("{io:?}"));
                    }
                    for job in pod.take_accel_completions(host) {
                        self.drained.push(format!("{job:?}"));
                    }
                }
            }
            Step::Launch { tenant } => {
                let host = self.tenant_hosts[tenant % tenants];
                let app = AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1))));
                match pod.try_launch_instance(host, app, 100) {
                    Ok(inst) => self.instances.push(inst),
                    Err(e) => self.drained.push(format!("launch: {e}")),
                }
            }
            Step::Terminate { nth } => {
                // Never the build-time instances: their volumes stay in use.
                let launched = &self.instances[self.clients.len()..];
                if let Some(&inst) = launched.get(nth % launched.len().max(1)) {
                    pod.terminate_instance(inst);
                }
            }
            Step::NicFailure { nic, after_ns } => {
                pod.schedule(
                    now + SimDuration::from_nanos(after_ns),
                    PodInput::DisableNicPort(nic),
                );
            }
            Step::HostFailure {
                tenant,
                after_ns,
                down_ns,
            } => {
                let host = self.tenant_hosts[tenant % tenants];
                let at = now + SimDuration::from_nanos(after_ns);
                pod.schedule(at, PodInput::FailHost(host));
                pod.schedule(
                    at + SimDuration::from_nanos(down_ns),
                    PodInput::RestartHost(host),
                );
            }
            Step::Stall {
                host,
                after_ns,
                stall_ns,
            } => {
                let kind = FaultKind::CxlStall {
                    host: host % pod.hosts(),
                    stall: SimDuration::from_nanos(stall_ns),
                };
                let at = now + SimDuration::from_nanos(after_ns);
                pod.install_fault_plan(&FaultPlan::empty().at(at, kind));
            }
        }
    }
}

/// Every engine of a pod with a name, in registration order.
fn engines(pod: &mut Pod) -> Vec<(String, &mut dyn DeviceEngine)> {
    let mut out: Vec<(String, &mut dyn DeviceEngine)> = Vec::new();
    for (h, d) in pod.drivers.iter_mut().enumerate() {
        match d {
            HostDriver::Oasis(fe) => out.push((format!("net-fe{h}"), fe)),
            HostDriver::Local(ld) => out.push((format!("baseline{h}"), ld)),
        }
    }
    for (i, be) in pod.backends.iter_mut().enumerate() {
        out.push((format!("net-be{i}"), be));
    }
    for (h, fe) in pod.storage.frontends.iter_mut().enumerate() {
        if let Some(fe) = fe {
            out.push((format!("storage-fe{h}"), fe));
        }
    }
    for (i, be) in pod.storage.backends.iter_mut().enumerate() {
        out.push((format!("storage-be{i}"), be));
    }
    for (h, fe) in pod.accel.frontends.iter_mut().enumerate() {
        if let Some(fe) = fe {
            out.push((format!("accel-fe{h}"), fe));
        }
    }
    for (i, be) in pod.accel.backends.iter_mut().enumerate() {
        out.push((format!("accel-be{i}"), be));
    }
    out
}

/// Per engine its clock, every `MemStats` field, and per polled receiver
/// its `empty_polls` and `consumed`.
fn engine_view(pod: &mut Pod) -> Vec<(String, String)> {
    let view = |(name, e): (String, &mut dyn DeviceEngine)| {
        let mut rx = Vec::new();
        e.polled(&mut |r| rx.push((r.empty_polls, r.consumed())));
        let core = e.core();
        (name, format!("{:?} {:?} {rx:?}", core.clock, core.stats))
    };
    engines(pod).into_iter().map(view).collect()
}

/// Everything else an outside observer can see of a pod, as labelled text.
fn observe(pod: &Pod) -> Vec<(String, String)> {
    let mut out = Vec::new();
    out.push(("now".into(), format!("{:?}", pod.now())));
    for (h, d) in pod.drivers.iter().enumerate() {
        if let HostDriver::Oasis(fe) = d {
            out.push((
                format!("net-fe{h} channels"),
                format!("{:?}", fe.channel_debug()),
            ));
        }
    }
    for (i, be) in pod.backends.iter().enumerate() {
        out.push((
            format!("net-be{i} channels"),
            format!("{:?}", be.channel_debug()),
        ));
    }
    for (i, be) in pod.storage.backends.iter().enumerate() {
        out.push((format!("ssd{i} stats"), format!("{:?}", be.device.stats)));
    }
    for (i, be) in pod.accel.backends.iter().enumerate() {
        out.push((format!("accel{i} stats"), format!("{:?}", be.device.stats)));
    }
    let alloc = &pod.allocator.core;
    out.push((
        "allocator".into(),
        format!("{:?} {:?}", alloc.clock, alloc.stats),
    ));
    for (i, nic) in pod.nics.iter().enumerate() {
        out.push((format!("nic{i} stats"), format!("{:?}", nic.stats)));
    }
    for port in 0..pod.pool.ports() {
        let m = pod.pool.meter(PortId(port));
        for class in TrafficClass::ALL {
            let bytes = (m.read_bytes(class), m.write_bytes(class));
            out.push((
                format!("port {port} {class:?} (read, write)"),
                format!("{bytes:?}"),
            ));
        }
    }
    out.push((
        "pending write-backs".into(),
        pod.pool.pending_writebacks().to_string(),
    ));
    let mut metrics = pod.metrics_snapshot();
    let counts_dispatches =
        |name: &str| name.starts_with("sim.sched") || name.starts_with("sim.shard");
    metrics.counters.retain(|c| !counts_dispatches(c.name));
    metrics.hists.retain(|h| !counts_dispatches(h.name));
    out.push(("metrics".into(), metrics.to_json()));
    // A digest keeps a failure readable; the label says what differed.
    let snapshot = pod.snapshot();
    let digest = snapshot.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    out.push((
        "snapshot (length, digest)".into(),
        format!("{} {digest:#x}", snapshot.len()),
    ));
    out
}

fn client_view(clients: &[StatsHandle]) -> Vec<(String, String)> {
    let view = |(i, c): (usize, &StatsHandle)| {
        let c = c.borrow();
        (
            format!("client {i} (sent, received, requests)"),
            format!("{} {} {:?}", c.sent, c.received, c.requests),
        )
    };
    clients.iter().enumerate().map(view).collect()
}

#[track_caller]
fn assert_same(what: &str, parked: &[(String, String)], walked: &[(String, String)]) {
    assert_eq!(parked.len(), walked.len(), "{what}: views differ in shape");
    for ((label, p), (_, w)) in parked.iter().zip(walked) {
        assert!(
            p == w,
            "{what}: {label} differs\n  parked: {p}\n  walked: {w}"
        );
    }
}

/// Pool memory with everything landed, and each cache in `drain()` order.
fn final_view(pod: &mut Pod) -> (Vec<u8>, Vec<(String, String)>) {
    pod.pool.flush_pending();
    let mut mem = vec![0u8; pod.pool.size() as usize];
    pod.pool.peek(0, &mut mem);
    let drain = |name: String, core: &mut HostCtx| {
        let line = |(a, l): &(u64, oasis_cxl::cache::CacheLine)| {
            format!("{a:#x} {} {:?} {:x?}", l.dirty, l.ready_at, &l.data[..8])
        };
        let lines: Vec<String> = core.cache.drain().iter().map(line).collect();
        (format!("{name} cache"), lines.join("; "))
    };
    let mut out: Vec<(String, String)> = engines(pod)
        .into_iter()
        .map(|(name, e)| drain(name, e.core_mut()))
        .collect();
    out.push(drain("allocator".into(), &mut pod.allocator.core));
    (mem, out)
}

#[track_caller]
fn assert_same_end(what: &str, parked: &mut Pod, walked: &mut Pod) {
    let ((parked_mem, parked), (walked_mem, walked)) = (final_view(parked), final_view(walked));
    if parked_mem != walked_mem {
        let at = parked_mem.iter().zip(&walked_mem).position(|(p, w)| p != w);
        panic!("{what}: pool memory differs at {at:?}");
    }
    assert_same(what, &parked, &walked);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pod_twin(sc in scenario()) {
        let mut parked = build(&sc, false);
        let mut walked = build(&sc, true);
        for (i, step) in sc.steps.iter().enumerate() {
            parked.apply(step);
            walked.apply(step);
            let what = format!("after step {i} ({step:?})");
            assert_same(&what, &engine_view(&mut parked.pod), &engine_view(&mut walked.pod));
            assert_same(&what, &observe(&parked.pod), &observe(&walked.pod));
            assert_same(&what, &client_view(&parked.clients), &client_view(&walked.clients));
            prop_assert_eq!(&parked.drained, &walked.drained, "{}", what);
        }
        assert_same_end("at the end", &mut parked.pod, &mut walked.pod);
    }

    #[test]
    fn evicting_frontend_twin(sc in evicting_scenario()) {
        let mut parked = build(&sc, false);
        let mut walked = build(&sc, true);
        for (i, step) in sc.steps.iter().enumerate() {
            parked.apply(step);
            walked.apply(step);
            let what = format!("after step {i} ({step:?})");
            assert_same(&what, &engine_view(&mut parked.pod), &engine_view(&mut walked.pod));
            assert_same(&what, &observe(&parked.pod), &observe(&walked.pod));
            assert_same(&what, &client_view(&parked.clients), &client_view(&walked.clients));
        }
    }
}

/// A closed loop on the 2 µs grid a storage client would poll at: four
/// tenants keep a few block I/Os and accelerator jobs in flight against two
/// SSDs and two accelerators, draining and resubmitting between runs shorter
/// than a backend's polling round — so almost every `run` starts with
/// engines parked and ends before they wake.
struct ClosedLoop {
    pod: Pod,
    hosts: Vec<usize>,
    volumes: Vec<VolumeHandle>,
    rng: Lcg,
    in_flight: Vec<usize>,
    /// Every completion with the grid instant it was reaped at.
    log: Vec<String>,
}

impl ClosedLoop {
    const DEPTH: usize = 4;

    fn new(seed: u64, never_park: bool) -> Self {
        let mut b = PodBuilder::new(OasisConfig::default()).pool_bytes(128 << 20);
        let devices = [b.add_nic_host(), b.add_nic_host()];
        let hosts: Vec<usize> = (0..4).map(|_| b.add_host()).collect();
        for &d in &devices {
            b.add_ssd(d, SsdConfig::default());
            b.add_accel(d, AccelConfig::default());
        }
        let mut pod = if never_park { b.never_park() } else { b }.build();
        let volume = |&host: &usize| {
            let inst = pod.launch_instance(host, AppKind::None, 1_000);
            pod.create_volume(inst, 128).expect("the SSDs have room")
        };
        ClosedLoop {
            volumes: hosts.iter().map(volume).collect(),
            in_flight: vec![0; hosts.len()],
            pod,
            hosts,
            rng: Lcg(seed),
            log: Vec::new(),
        }
    }

    /// Reap, refill every tenant's window, run to the next grid instant.
    fn step(&mut self) {
        let ClosedLoop { pod, rng, log, .. } = self;
        for (t, &host) in self.hosts.iter().enumerate() {
            let done = pod.take_storage_completions(host);
            let jobs = pod.take_accel_completions(host);
            self.in_flight[t] -= done.len() + jobs.len();
            let at = pod.now();
            log.extend(done.iter().map(|io| format!("{at:?} {t} {io:?}")));
            log.extend(jobs.iter().map(|j| format!("{at:?} {t} {j:?}")));
            while self.in_flight[t] < Self::DEPTH {
                let (lba, nlb) = (rng.range(0, 96), rng.range(1, 9));
                let cid = match rng.range(0, 3) {
                    0 => pod.volume_read(self.volumes[t], lba, nlb as u32),
                    1 => {
                        let data: Vec<u8> =
                            (0..nlb * BLOCK_SIZE).map(|i| (i ^ lba) as u8).collect();
                        pod.volume_write(self.volumes[t], lba, &data)
                    }
                    _ => {
                        let input: Vec<u8> =
                            (0..rng.range(1, 65_536)).map(|i| (i * 3) as u8).collect();
                        pod.submit_accel_job(host, AccelOp::Checksum, 0, &input)
                            .unwrap()
                    }
                };
                // A refusal is back-pressure: try again at the next instant.
                if cid.is_none() {
                    break;
                }
                self.in_flight[t] += 1;
            }
        }
        pod.run(pod.now() + SimDuration::from_micros(2));
    }
}

#[test]
fn closed_loop_twin() {
    for seed in [1, 2025] {
        let mut parked = ClosedLoop::new(seed, false);
        let mut walked = ClosedLoop::new(seed, true);
        for i in 0..2_000 {
            parked.step();
            walked.step();
            let what = format!("seed {seed}, after step {i}");
            assert_same(
                &what,
                &engine_view(&mut parked.pod),
                &engine_view(&mut walked.pod),
            );
            assert_eq!(
                parked.log.len(),
                walked.log.len(),
                "{what}: completions reaped"
            );
        }
        assert!(parked.log.len() > 100, "the loop completed work");
        assert_eq!(parked.log, walked.log, "seed {seed}: a completion differs");
        let what = format!("seed {seed}");
        assert_same(&what, &observe(&parked.pod), &observe(&walked.pod));
        assert_same_end(&what, &mut parked.pod, &mut walked.pod);
    }
}

/// One tenant host and one device host with an SSD and an accelerator, for
/// `between_run_inputs_twin`.
struct DevicePod {
    pod: Pod,
    host: usize,
    device_host: usize,
    volume: VolumeHandle,
    /// Every completion with the instant it was reaped at, and every
    /// submission with the instant it was made at.
    log: Vec<String>,
}

impl DevicePod {
    fn new(never_park: bool) -> Self {
        let mut b = PodBuilder::new(OasisConfig::default()).pool_bytes(32 << 20);
        let device_host = b.add_nic_host();
        let host = b.add_host();
        b.add_ssd(device_host, SsdConfig::default());
        b.add_accel(device_host, AccelConfig::default());
        let mut pod = if never_park { b.never_park() } else { b }.build();
        let inst = pod.launch_instance(host, AppKind::None, 1_000);
        let volume = pod.create_volume(inst, 16).expect("the SSD has room");
        DevicePod {
            pod,
            host,
            device_host,
            volume,
            log: Vec::new(),
        }
    }

    /// Between runs: a block write and a 64 KiB job. Staging the job moves
    /// the frontend's clock microseconds past the pod's.
    fn submit(&mut self) {
        let pod = &mut self.pod;
        let at = pod.now();
        let data = vec![0x5a; BLOCK_SIZE as usize];
        let write = pod.volume_write(self.volume, 3, &data);
        let input: Vec<u8> = (0..64 << 10).map(|i| (i * 13) as u8).collect();
        let job = pod.submit_accel_job(self.host, AccelOp::Checksum, 0, &input);
        self.log.push(format!("{at:?} submitted {write:?} {job:?}"));
    }

    /// Run `steps` steps of 1 µs, reaping after each.
    fn run(&mut self, steps: usize, twin: &mut Option<&mut DevicePod>) {
        for i in 0..steps {
            let pod = &mut self.pod;
            pod.run(pod.now() + SimDuration::from_micros(1));
            let at = pod.now();
            let ios = pod.take_storage_completions(self.host);
            let jobs = pod.take_accel_completions(self.host);
            self.log
                .extend(ios.iter().map(|io| format!("{at:?} {io:?}")));
            self.log
                .extend(jobs.iter().map(|j| format!("{at:?} {j:?}")));
            if let Some(walked) = twin {
                walked.run(1, &mut None);
                let what = format!("after step {i}");
                assert_same(&what, &engine_view(pod), &engine_view(&mut walked.pod));
                assert_eq!(self.log, walked.log, "{what}: a completion differs");
            }
        }
    }
}

/// The bug the benchmark caught in the parking change, pinned without it:
/// a submission between runs must wake the backend it posted to at once.
/// Left on the woken list, the backend answers `next_activity` with the
/// round it queued for; the frontend's clock is already past the next
/// run's end, so that run is skipped and its rounds are charged to the
/// backend as empty although a command sat in its ring. Then a fault
/// between runs (a CXL stall on the device host, where both backends sit
/// parked) must end every park.
///
/// Seeded mutants it kills (applied by hand to the decision `match` in
/// `pod/input.rs`, `cargo test --test park_twin between_run_inputs_twin`):
///
/// * **the submit arm unparks only the frontend, not whoever it posted
///   to** — both `Unpark(Before::Frontend(fe), true)` → `Unpark(Before::
///   Frontend(fe), false)` (CI's red path applies it with `sed`):
///   `storage-be0`'s clock and counters differ after step 1 of the first
///   submission.
/// * **a fault input unparks nobody** — the faults' arm `Unpark(Before::
///   Everybody, false)` → `Unpark(Before::Nobody, false)`: the stalled
///   host's `storage-fe0` differs after the first step of the stall.
#[test]
fn between_run_inputs_twin() {
    let mut parked = DevicePod::new(false);
    let mut walked = DevicePod::new(true);
    // Long enough for every engine to prove its rounds empty and park.
    parked.run(30, &mut Some(&mut walked));
    parked.submit();
    walked.submit();
    parked.run(60, &mut Some(&mut walked));
    assert_eq!(parked.log.len(), 3, "both submissions completed");
    // Idle again, then a stall of the device host's cores while parked.
    parked.run(30, &mut Some(&mut walked));
    for twin in [&mut parked, &mut walked] {
        let (pod, host) = (&mut twin.pod, twin.device_host);
        let at = pod.now() + SimDuration::from_nanos(500);
        pod.schedule(at, PodInput::CxlStall(host, SimDuration::from_micros(3)));
    }
    parked.run(10, &mut Some(&mut walked));
    parked.submit();
    walked.submit();
    parked.run(60, &mut Some(&mut walked));
    assert_eq!(parked.log.len(), 6, "both submissions completed again");
    assert_same("at the end", &observe(&parked.pod), &observe(&walked.pod));
    assert_same_end("at the end", &mut parked.pod, &mut walked.pod);
}

// ---------------------------------------------------------------------------
// The fleet variant
// ---------------------------------------------------------------------------

const PODS: usize = 3;

/// A chain of three pods, each with one NIC host and two echo tenants; every
/// pod has one client that stays local and one whose echoes cross an uplink.
fn build_fleet(
    seed: u64,
    horizon_ns: u64,
    threads: usize,
    never_park: bool,
) -> (Fleet, Vec<StatsHandle>) {
    let mut pods = Vec::new();
    let mut addrs = Vec::new();
    for site in 0..PODS {
        let mut b = PodBuilder::new(cfg()).site(site as u32).pool_bytes(8 << 20);
        b.add_nic_host();
        let tenants = [b.add_host(), b.add_host()];
        let mut pod = if never_park { b.never_park() } else { b }.build();
        let launch = |pod: &mut Pod, host| {
            let app = AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1))));
            let inst = pod.launch_instance(host, app, 10_000);
            (pod.instance_mac(inst), pod.instance_ip(inst))
        };
        addrs.push(tenants.map(|host| launch(&mut pod, host)));
        pods.push(pod);
    }
    let mut rng = Lcg(seed);
    let mut clients = Vec::new();
    for (p, pod) in pods.iter_mut().enumerate() {
        let neighbour = if p + 1 < PODS { p + 1 } else { p - 1 };
        for (k, (mac, ip)) in [addrs[p][0], addrs[neighbour][1]].into_iter().enumerate() {
            let stats = ClientStats::handle();
            let pacing = Pacing::Replay(schedule(&mut rng, seed >> (2 * p + k), horizon_ns));
            let id = (2 * p + k + 1) as u64;
            let client = UdpClient::new(id, mac, ip, 7, 64, pacing, START, stats.clone());
            pod.add_endpoint(Box::new(client));
            clients.push(stats);
        }
    }
    let mut fleet = Fleet::with_threads(threads);
    for pod in pods {
        fleet.add_pod(pod).expect("distinct sites");
    }
    for p in 0..PODS - 1 {
        fleet
            .connect(p, p + 1, SimDuration::from_micros(2))
            .expect("a chain");
    }
    (fleet, clients)
}

/// A running fleet lends its pods out only immutably: everything but the
/// receivers' counters (which the metrics and the clocks still pin).
fn observe_fleet(fleet: &Fleet, clients: &[StatsHandle]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for p in 0..PODS {
        let pod = fleet.pod(p);
        for (name, e) in pod_cores(pod) {
            out.push((
                format!("pod {p} {name}"),
                format!("{:?} {:?}", e.clock, e.stats),
            ));
        }
        out.extend(
            observe(pod)
                .into_iter()
                .map(|(label, v)| (format!("pod {p} {label}"), v)),
        );
    }
    out.extend(client_view(clients));
    out
}

/// Pool memory of every pod as it stands (write-backs still in flight are
/// counted by `observe`).
fn fleet_memory(fleet: &Fleet) -> Vec<Vec<u8>> {
    let memory = |p| {
        let pool = &fleet.pod(p).pool;
        let mut mem = vec![0u8; pool.size() as usize];
        pool.peek(0, &mut mem);
        mem
    };
    (0..PODS).map(memory).collect()
}

/// The polling cores of a fleet pod (net engines only: it has no devices).
fn pod_cores(pod: &Pod) -> Vec<(String, &HostCtx)> {
    let mut out = Vec::new();
    for (h, d) in pod.drivers.iter().enumerate() {
        if let HostDriver::Oasis(fe) = d {
            out.push((format!("net-fe{h}"), &fe.core));
        }
    }
    for (i, be) in pod.backends.iter().enumerate() {
        out.push((format!("net-be{i}"), &be.core));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fleet_twin(
        seed in any::<u64>(),
        steps in proptest::collection::vec(700u64..50_000, 6..18),
    ) {
        let horizon_ns = steps.iter().sum();
        // Parked at one and two shard threads, and the walked reference.
        let mut fleets = [
            build_fleet(seed, horizon_ns, 1, false),
            build_fleet(seed, horizon_ns, 2, false),
            build_fleet(seed, horizon_ns, 1, true),
        ];
        let mut until = SimTime::ZERO;
        for (i, ns) in steps.iter().enumerate() {
            until += SimDuration::from_nanos(*ns);
            let mut views = Vec::new();
            for (fleet, clients) in &mut fleets {
                fleet.run(until).expect("a chain has lookahead");
                views.push(observe_fleet(fleet, clients));
            }
            assert_same(&format!("1 thread, after step {i}"), &views[0], &views[2]);
            assert_same(&format!("2 threads, after step {i}"), &views[1], &views[2]);
        }
        let [parked, parked_t2, walked] = fleets.map(|(fleet, _)| fleet_memory(&fleet));
        prop_assert!(parked == walked, "pool memory differs at the end");
        prop_assert!(parked_t2 == walked, "pool memory differs at the end, 2 threads");
    }
}
