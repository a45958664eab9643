//! Bounded explorer of the pod's control actor.
//!
//! Depth-first over input sequences for small pods (2–3 hosts, at most
//! three instances), driving [`ControlActor::process`] the way the pod's
//! shell does: each polling round delivers the telemetry and heartbeats
//! that are due, then runs the NIC, rebalance and host checks. Between
//! rounds the environment may fail a link, crash or restart a host, heat
//! or cool an instance, or the operator may migrate, repair, launch or
//! terminate; any order the actor gives may be refused by its frontend.
//! The telemetry and heartbeat periods are two polls long, so the silence
//! deadlines fall inside the depth bound. States are deduplicated by a
//! hash of the actor's snapshot (its state, not its ever-growing raft log)
//! and of the environment. After every step the invariants that
//! `Explorer::after` checks must hold; a violation panics with the input
//! sequence that reached it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use oasis_core::allocator::{
    Check, ControlActor, ControlEffects, ControlInput, FleetCommand, Order, OrderKind, Placed,
    RebalancePolicy,
};
use oasis_core::config::{BufferPlacement, OasisConfig};
use oasis_core::pod::PodBuilder;
use oasis_core::snapshot::{SnapshotWriter, Snapshottable};
use oasis_net::addr::Ipv4Addr;
use oasis_sim::detmap::DetSet;
use oasis_sim::time::{SimDuration, SimTime};

/// Rounds per sequence.
const ROUNDS: u32 = 12;
/// Environment and operator inputs per sequence, and the rounds they may
/// come in (later ones could not play out before the bound).
const PERTURBATIONS: u32 = 2;
const PERTURB_ROUNDS: u32 = 4;
/// Refused orders per sequence.
const REFUSALS: u32 = 2;
/// Instances at most.
const MAX_INSTANCES: usize = 3;
const LEASE_MBPS: u32 = 30_000;
/// A lease two of which fit a 100 Gbit/s NIC and three do not.
const BIG_LEASE_MBPS: u32 = 45_000;
/// Telemetry bytes a hot instance moves per window.
const HOT_BYTES: u64 = 1_000_000;

fn poll() -> SimDuration {
    SimDuration::from_micros(100)
}

fn cfg() -> OasisConfig {
    OasisConfig {
        allocator_poll: poll(),
        telemetry_period: poll() * 2,
        heartbeat_period: poll() * 2,
        ..Default::default()
    }
}

/// Silence tolerated before a NIC or host is declared failed.
fn deadline(period: SimDuration) -> SimDuration {
    period * 3 + poll() * 2
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum HostKind {
    /// Oasis frontend, no NIC.
    Plain,
    /// Oasis frontend and an Oasis NIC with its backend.
    Nic,
    /// Baseline (Junction) host with its own NIC: no frontend, no backend.
    Baseline,
}

/// A pod layout, built once with [`PodBuilder`] so the actor starts from
/// the registrations the real builder logs.
struct Layout {
    name: &'static str,
    hosts: Vec<HostKind>,
    backup_on: Option<usize>,
    rebalance: bool,
    /// Hosts of the instances launched before the search.
    launch: Vec<usize>,
    /// Launched instances that start hot.
    hot: Vec<usize>,
    /// Every instance's lease, Mbit/s.
    lease_mbps: u32,
}

impl Layout {
    /// NIC id → host, in the builder's numbering.
    fn nic_hosts(&self) -> Vec<usize> {
        let nic = |(h, k): (usize, &HostKind)| (*k != HostKind::Plain).then_some(h);
        self.hosts.iter().enumerate().filter_map(nic).collect()
    }

    fn frontend(&self, host: usize) -> bool {
        self.hosts[host] != HostKind::Baseline
    }

    /// Does NIC `nic` have a backend that sends telemetry?
    fn reports(&self, nic: usize) -> bool {
        self.nic_hosts()
            .get(nic)
            .is_some_and(|&h| self.hosts[h] == HostKind::Nic)
    }

    fn actor(&self) -> ControlActor {
        let mut b = PodBuilder::new(cfg());
        for kind in &self.hosts {
            match kind {
                HostKind::Plain => b.add_host(),
                HostKind::Nic => b.add_nic_host(),
                HostKind::Baseline => b.add_baseline_host(BufferPlacement::LocalDdr),
            };
        }
        if let Some(h) = self.backup_on {
            b = b.backup_nic_on(h);
        }
        let mut actor = b.build().allocator.actor.clone();
        if self.rebalance {
            actor.enable_rebalancing(RebalancePolicy::new(2.0, 1, poll() * 2));
        }
        actor
    }
}

#[derive(Clone, Hash)]
struct Inst {
    ip: Ipv4Addr,
    host: usize,
    /// The NIC its frontend serves it from (the datapath's view).
    nic: u32,
    hot: bool,
}

#[derive(Clone, Copy, Hash, PartialEq, Eq)]
enum Phase {
    Between,
    Nics,
    Rebalance,
    Hosts,
}

#[derive(Clone)]
struct World {
    actor: ControlActor,
    round: u32,
    phase: Phase,
    crashed: Vec<bool>,
    insts: Vec<Inst>,
    next_ip: u32,
    /// Last telemetry delivered per NIC, last heartbeat per host.
    last_report: Vec<SimTime>,
    last_beat: Vec<Option<SimTime>>,
    /// Healthy → failed NIC transitions seen so far.
    nic_failures: u64,
    perturbations: u32,
    refusals: u32,
}

impl World {
    fn now(&self) -> SimTime {
        SimTime::ZERO + poll() * self.round as u64
    }

    fn key(&self) -> u64 {
        let mut w = SnapshotWriter::new();
        self.actor.snapshot_state(&mut w);
        let mut h = DefaultHasher::new();
        w.finish().hash(&mut h);
        (
            self.round,
            self.phase,
            &self.crashed,
            &self.insts,
            self.next_ip,
        )
            .hash(&mut h);
        (&self.last_report, &self.last_beat, self.nic_failures).hash(&mut h);
        (self.perturbations, self.refusals).hash(&mut h);
        h.finish()
    }

    fn failed_nics(&self) -> Vec<bool> {
        let nics = &self.actor.books().nics;
        nics.iter()
            .map(|n| n.as_ref().is_some_and(|n| n.failed))
            .collect()
    }
}

/// The step just taken, for the failure report and the checks.
#[derive(Clone, Copy)]
enum Step {
    Round,
    Tick(Check),
    LinkFailed(u32),
    Other,
}

struct Explorer<'a> {
    layout: &'a Layout,
    seen: DetSet<u64>,
    path: Vec<String>,
}

impl Explorer<'_> {
    fn fail(&self, what: String) -> ! {
        panic!(
            "{}: {what}\ninput sequence (each round runs the NIC, rebalance and host \
             checks):\n  {}",
            self.layout.name,
            self.path.join("\n  ")
        );
    }

    /// Carry out `fx`'s orders, accepting all of them, or refusing one
    /// while the refusal budget lasts; continue the search from each.
    fn perform(&mut self, w: World, fx: ControlEffects, step: Step, before: &[bool]) {
        let n = fx.orders.len();
        let choices: Vec<Option<usize>> = if w.refusals > 0 {
            std::iter::once(None).chain((0..n).map(Some)).collect()
        } else {
            vec![None]
        };
        for refuse in choices {
            let mut w = w.clone();
            if refuse.is_some() {
                w.refusals -= 1;
            }
            for (i, &order) in fx.orders.iter().enumerate() {
                if order.kind == OrderKind::Rebalance {
                    self.check_room(&w, order);
                }
                if refuse == Some(i) {
                    self.path.push(format!("    refused {order:?}"));
                    continue;
                }
                let sent_at = w.now();
                w.actor
                    .process(sent_at, ControlInput::Accepted { order, sent_at });
                if let Some(inst) = w.insts.iter_mut().find(|i| i.ip == order.ip) {
                    inst.nic = order.nic;
                }
            }
            self.after(w, step, before);
            if refuse.is_some() {
                self.path.pop();
            }
        }
    }

    fn check_room(&self, w: &World, order: Order) {
        let nic = w.actor.books().nics[order.nic as usize].as_ref();
        let room = nic
            .is_some_and(|n| !n.failed && n.allocated_mbps + order.lease_mbps <= n.capacity_mbps);
        if !room {
            self.fail(format!("rebalance moves {order:?} onto a NIC without room"));
        }
    }

    /// Check every invariant after `step`, then search on from `w`.
    fn after(&mut self, mut w: World, step: Step, before: &[bool]) {
        let books = w.actor.books().clone();
        if !w.actor.consistent_with_log() {
            self.fail("books diverged from the log".into());
        }
        // NIC failures: a silent NIC is failed only by the NIC check, only
        // if it reports at all, and only after its deadline; a link
        // failure fails only its NIC; nothing else fails a NIC.
        let failed = w.failed_nics();
        for (nic, &now_failed) in failed.iter().enumerate() {
            if !now_failed || before.get(nic).copied().unwrap_or(false) {
                continue;
            }
            w.nic_failures += 1;
            match step {
                Step::LinkFailed(n) if n as usize == nic => {}
                Step::Tick(Check::Nics) => {
                    if !self.layout.reports(nic) {
                        self.fail(format!("NIC {nic} failed for silence but never reports"));
                    }
                    let silent = w.now().since(w.last_report[nic]);
                    if silent <= deadline(cfg().telemetry_period) {
                        self.fail(format!("NIC {nic} failed after only {silent:?} of silence"));
                    }
                }
                _ => self.fail(format!("NIC {nic} failed outside a NIC check")),
            }
        }
        if w.actor.failovers != w.nic_failures {
            self.fail(format!(
                "{} failovers counted for {} NIC failures",
                w.actor.failovers, w.nic_failures
            ));
        }
        for (id, n) in books.nics.iter().enumerate() {
            if let Some(n) = n.as_ref().filter(|n| n.allocated_mbps > n.capacity_mbps) {
                self.fail(format!("NIC {id} over capacity: {n:?}"));
            }
        }
        // The books agree with the frontends, and every instance is
        // served by a healthy NIC unless a reroute to a healthy backup is
        // due, or the backup has no room for it beside the reroutes that
        // are (or there is no healthy backup to reroute to).
        if books.instances.len() != w.insts.len() {
            self.fail(format!(
                "books lease {} instances, frontends serve {}",
                books.instances.len(),
                w.insts.len()
            ));
        }
        let backup = books.backup_nic();
        for inst in &w.insts {
            let booked = books.instances.iter().find(|i| i.ip == inst.ip);
            if booked.map(|i| i.nic) != Some(inst.nic) {
                self.fail(format!(
                    "books put {} on {:?}, its frontend serves it from NIC {}",
                    inst.ip,
                    booked.map(|i| i.nic),
                    inst.nic
                ));
            }
            let Some(nic) = books.nics.get(inst.nic as usize).and_then(Option::as_ref) else {
                self.fail(format!(
                    "{} served by unregistered NIC {}",
                    inst.ip, inst.nic
                ));
            };
            if let (true, Some(backup)) = (nic.failed, backup) {
                let mut probe = w.actor.clone();
                let retry = probe.process(w.now(), ControlInput::Tick(Check::Nics));
                let due = retry
                    .orders
                    .iter()
                    .any(|o| o.ip == inst.ip && o.nic == backup);
                let b = books.nics[backup as usize].as_ref();
                let ordered: u32 = retry.orders.iter().map(|o| o.lease_mbps).sum();
                let lease = booked.map_or(0, |i| i.lease_mbps);
                let room = b.is_some_and(|b| b.allocated_mbps + ordered + lease <= b.capacity_mbps);
                if !due && room {
                    self.fail(format!(
                        "{} stranded on failed NIC {} with no reroute to backup {backup} due",
                        inst.ip, inst.nic
                    ));
                }
            }
        }
        if self.seen.insert(w.key()) {
            self.explore(w);
        }
    }

    /// Run `input` at the current time and search on from each way its
    /// orders can go.
    fn input(&mut self, w: &World, label: String, input: ControlInput, step: Step) {
        let mut w = w.clone();
        w.perturbations -= 1;
        self.path.push(format!("r{} {label}", w.round));
        let before = w.failed_nics();
        let fx = w.actor.process(w.now(), input);
        self.perform(w, fx, step, &before);
        self.path.pop();
    }

    fn explore(&mut self, w: World) {
        let now = w.now();
        let before = w.failed_nics();
        match w.phase {
            Phase::Between if w.round == ROUNDS => {}
            Phase::Between => {
                let mut next = w.clone();
                self.round(&mut next);
                self.path.push(format!("r{} round", next.round));
                self.after(next, Step::Round, &before);
                self.path.pop();
                if w.perturbations > 0 && w.round < PERTURB_ROUNDS {
                    self.perturb(&w);
                }
            }
            Phase::Nics | Phase::Rebalance => {
                let (check, next) = if w.phase == Phase::Nics {
                    (Check::Nics, Phase::Rebalance)
                } else {
                    (Check::Rebalance, Phase::Hosts)
                };
                let mut w = w;
                let fx = w.actor.process(now, ControlInput::Tick(check));
                w.phase = next;
                self.perform(w, fx, Step::Tick(check), &before);
            }
            Phase::Hosts => {
                let mut w = w;
                if w.round.is_multiple_of(2) {
                    for host in 0..w.crashed.len() {
                        if self.layout.frontend(host) && !w.crashed[host] {
                            w.actor
                                .process(now, ControlInput::Heartbeat { host: host as u32 });
                            w.last_beat[host] = Some(now);
                        }
                    }
                }
                let fx = w.actor.process(now, ControlInput::Tick(Check::Hosts));
                for &host in &fx.failed_hosts {
                    let silent = w.last_beat[host as usize].map(|t| now.since(t));
                    if silent.is_none_or(|s| s <= deadline(cfg().heartbeat_period)) {
                        self.fail(format!("host {host} declared failed after {silent:?}"));
                    }
                    w.insts.retain(|i| i.host != host as usize);
                }
                w.phase = Phase::Between;
                self.after(w, Step::Tick(Check::Hosts), &before);
            }
        }
    }

    /// Start the next round: time advances and the due telemetry arrives.
    fn round(&self, w: &mut World) {
        w.round += 1;
        w.phase = Phase::Nics;
        let now = w.now();
        if !w.round.is_multiple_of(2) {
            return;
        }
        for nic in 0..w.last_report.len() {
            let host = self.layout.nic_hosts()[nic];
            if !self.layout.reports(nic) || w.crashed[host] {
                continue;
            }
            let hot = w.insts.iter().filter(|i| i.hot && i.nic == nic as u32);
            let load_bytes = hot.count() as u64 * HOT_BYTES;
            let report = ControlInput::Telemetry {
                nic: nic as u32,
                load_bytes,
            };
            w.actor.process(now, report);
            w.last_report[nic] = now;
        }
    }

    /// Every environment and operator input possible between rounds.
    fn perturb(&mut self, w: &World) {
        let nics = self.layout.nic_hosts();
        for nic in 0..nics.len() as u32 {
            let link = ControlInput::LinkFailed { nic };
            if self.layout.reports(nic as usize) {
                self.input(w, format!("link {nic} down"), link, Step::LinkFailed(nic));
            }
            if w.failed_nics().get(nic as usize) == Some(&true) {
                let repair = ControlInput::MarkNicRepaired { nic };
                self.input(w, format!("repair NIC {nic}"), repair, Step::Other);
            }
        }
        for host in 0..w.crashed.len() {
            if !self.layout.frontend(host) {
                continue;
            }
            let mut next = w.clone();
            next.perturbations -= 1;
            next.crashed[host] ^= true;
            let what = if next.crashed[host] {
                "crash"
            } else {
                "restart"
            };
            self.path.push(format!("r{} {what} host {host}", w.round));
            self.after(next, Step::Other, &w.failed_nics());
            self.path.pop();
            if w.insts.len() < MAX_INSTANCES {
                let mut next = w.clone();
                next.perturbations -= 1;
                let ip = Ipv4Addr::instance(next.next_ip);
                self.path
                    .push(format!("r{} launch {ip} on host {host}", w.round));
                place(&mut next, host, self.layout.lease_mbps);
                self.after(next, Step::Other, &w.failed_nics());
                self.path.pop();
            }
        }
        for (i, inst) in w.insts.iter().enumerate() {
            let ip = inst.ip;
            let mut gone = w.clone();
            gone.insts.remove(i);
            let terminate = ControlInput::Terminate { ip };
            self.input(&gone, format!("terminate {ip}"), terminate, Step::Other);
            for nic in (0..nics.len() as u32).filter(|&n| n != inst.nic) {
                let migrate = ControlInput::Migrate { ip, nic };
                self.input(
                    w,
                    format!("migrate {ip} to NIC {nic}"),
                    migrate,
                    Step::Other,
                );
            }
            if self.layout.rebalance {
                let mut next = w.clone();
                next.perturbations -= 1;
                next.insts[i].hot ^= true;
                self.path.push(format!("r{} toggle load of {ip}", w.round));
                self.after(next, Step::Other, &w.failed_nics());
                self.path.pop();
            }
        }
    }
}

/// Launch the next instance on `host`: the actor places it, and its
/// frontend serves it from the NIC it was placed on.
fn place(w: &mut World, host: usize, lease_mbps: u32) {
    let ip = Ipv4Addr::instance(w.next_ip);
    w.next_ip += 1;
    let launch = ControlInput::Launch {
        host: host as u32,
        ip,
        lease_mbps,
    };
    if let Some(Placed::Nic(nic)) = w.actor.process(w.now(), launch).placed {
        let hot = false;
        w.insts.push(Inst { ip, host, nic, hot });
    }
}

/// Explore `layout`; returns the number of distinct states.
fn explore(layout: &Layout) -> usize {
    let actor = layout.actor();
    let nics = actor.books().nics.len().max(layout.nic_hosts().len());
    let mut w = World {
        actor,
        round: 0,
        phase: Phase::Between,
        crashed: vec![false; layout.hosts.len()],
        insts: Vec::new(),
        next_ip: 1,
        last_report: vec![SimTime::ZERO; nics],
        last_beat: vec![None; layout.hosts.len()],
        nic_failures: 0,
        perturbations: PERTURBATIONS,
        refusals: REFUSALS,
    };
    for &host in &layout.launch {
        place(&mut w, host, layout.lease_mbps);
    }
    assert_eq!(
        w.insts.len(),
        layout.launch.len(),
        "{}: placed",
        layout.name
    );
    for &i in &layout.hot {
        w.insts[i].hot = true;
    }
    let mut ex = Explorer {
        layout,
        seen: DetSet::default(),
        path: Vec::new(),
    };
    ex.seen.insert(w.key());
    ex.explore(w);
    ex.seen.len()
}

#[test]
fn control_actor_keeps_its_invariants() {
    let layouts = [
        // Two NICs plus a backup, all Oasis, rebalancing on: failover,
        // refused reroutes, host failure and the rebalancer.
        Layout {
            name: "two NICs + backup",
            hosts: vec![HostKind::Nic, HostKind::Nic, HostKind::Nic],
            backup_on: Some(2),
            rebalance: true,
            launch: vec![0, 0, 1],
            hot: vec![0],
            lease_mbps: LEASE_MBPS,
        },
        // A Junction NIC beside an Oasis one: only the Oasis NIC is pooled.
        Layout {
            name: "Junction NIC",
            hosts: vec![HostKind::Baseline, HostKind::Nic, HostKind::Plain],
            backup_on: None,
            rebalance: false,
            launch: vec![1, 2],
            hot: vec![],
            lease_mbps: LEASE_MBPS,
        },
        // Leases the backup cannot hold all of: a failover reroutes only
        // what fits, and the rest waits on the failed NIC.
        Layout {
            name: "backup fills up",
            hosts: vec![HostKind::Nic, HostKind::Nic, HostKind::Nic],
            backup_on: Some(2),
            rebalance: false,
            launch: vec![0, 0, 2],
            hot: vec![],
            lease_mbps: BIG_LEASE_MBPS,
        },
    ];
    for layout in &layouts {
        let states = explore(layout);
        println!("control explorer, {}: {states} states", layout.name);
    }
}

/// A reroute the frontend refuses is not logged, and the next NIC check
/// retries it: exactly one `Assign` moves the instance, once accepted.
#[test]
fn refused_reroute_is_retried_and_logged_once() {
    let layout = Layout {
        name: "refusal",
        hosts: vec![HostKind::Nic, HostKind::Nic],
        backup_on: Some(1),
        rebalance: false,
        launch: vec![],
        hot: vec![],
        lease_mbps: LEASE_MBPS,
    };
    let mut actor = layout.actor();
    let ip = Ipv4Addr::instance(1);
    let t0 = SimTime::ZERO;
    let launch = ControlInput::Launch {
        host: 0,
        ip,
        lease_mbps: LEASE_MBPS,
    };
    actor.process(t0, launch);
    let nic_of = |a: &ControlActor| {
        a.books()
            .instances
            .iter()
            .find(|i| i.ip == ip)
            .map(|i| i.nic)
    };
    assert_eq!(nic_of(&actor), Some(0));

    // The link fails; the reroute to the backup is refused.
    let fx = actor.process(t0, ControlInput::LinkFailed { nic: 0 });
    assert_eq!(fx.orders.len(), 1);
    assert_eq!(fx.orders[0].nic, 1);
    assert_eq!(nic_of(&actor), Some(0), "a refused reroute is not logged");
    assert_eq!(actor.reroutes_sent, 0);

    // The next NIC check orders it again; this time it is taken.
    let t1 = t0 + poll();
    let retry = actor.process(t1, ControlInput::Tick(Check::Nics));
    assert_eq!(retry.orders, fx.orders, "the refused reroute is retried");
    let order = retry.orders[0];
    actor.process(t1, ControlInput::Accepted { order, sent_at: t1 });
    assert_eq!(nic_of(&actor), Some(1));
    assert_eq!(actor.reroutes_sent, 1);
    assert_eq!(actor.failovers, 1);
    assert!(actor.consistent_with_log());

    // Nothing is left to retry, and one `Assign` moved the instance.
    let t2 = t1 + poll();
    let calm = actor.process(t2, ControlInput::Tick(Check::Nics));
    assert!(calm.orders.is_empty());
    let moves = actor
        .log()
        .filter(|c| matches!(c, FleetCommand::Assign { nic: 1, .. }));
    assert_eq!(moves.count(), 1);
}

/// A failover orders to the backup only the leases it has room for: with
/// 45 Gbit/s on the backup already, one of NIC 0's two 45 Gbit/s instances
/// moves and the other waits on the failed NIC (the backup once ended at
/// 135 000 of 100 000 Mbit/s). The NIC check retries it when room appears.
#[test]
fn failover_reroutes_only_what_the_backup_holds() {
    let layout = Layout {
        name: "full backup",
        hosts: vec![HostKind::Nic, HostKind::Nic, HostKind::Nic],
        backup_on: Some(2),
        rebalance: false,
        launch: vec![],
        hot: vec![],
        lease_mbps: BIG_LEASE_MBPS,
    };
    let mut actor = layout.actor();
    let t0 = SimTime::ZERO;
    let mut nic_of = Vec::new();
    for (k, host) in [0u32, 0, 0, 2].into_iter().enumerate() {
        let ip = Ipv4Addr::instance(k as u32 + 1);
        let launch = ControlInput::Launch {
            host,
            ip,
            lease_mbps: BIG_LEASE_MBPS,
        };
        nic_of.push(actor.process(t0, launch).placed);
    }
    let on = |nic| Some(Placed::Nic(nic));
    assert_eq!(nic_of, [on(0), on(0), on(1), on(2)]);

    let accept_all = |actor: &mut ControlActor, fx: ControlEffects, at: SimTime| {
        for order in fx.orders {
            actor.process(at, ControlInput::Accepted { order, sent_at: at });
        }
    };
    let fx = actor.process(t0, ControlInput::LinkFailed { nic: 0 });
    assert_eq!(
        fx.orders.len(),
        1,
        "room for one of the two: {:?}",
        fx.orders
    );
    accept_all(&mut actor, fx, t0);
    let nics = |a: &ControlActor| {
        a.books()
            .nics
            .iter()
            .flatten()
            .map(|n| n.allocated_mbps)
            .collect::<Vec<_>>()
    };
    assert_eq!(nics(&actor), [45_000, 45_000, 90_000]);
    let t1 = t0 + poll();
    let calm = actor.process(t1, ControlInput::Tick(Check::Nics));
    assert!(calm.orders.is_empty(), "no room yet: {:?}", calm.orders);

    // The backup's own-host instance leaves: the stranded one follows.
    actor.process(
        t1,
        ControlInput::Terminate {
            ip: Ipv4Addr::instance(4),
        },
    );
    let retry = actor.process(t1, ControlInput::Tick(Check::Nics));
    assert_eq!(retry.orders.len(), 1);
    assert_eq!(retry.orders[0].nic, 2);
    accept_all(&mut actor, retry, t1);
    assert_eq!(nics(&actor), [0, 45_000, 90_000]);
    assert!(actor.consistent_with_log());
}

/// Two NICs that go silent in the same NIC check share one backup: their
/// reroutes are sized against one running total, so with 45 Gbit/s on the
/// backup already only one of their two 45 Gbit/s instances moves (each
/// failover once saw room for one, and the backup ended at 135 000 of
/// 100 000 Mbit/s).
#[test]
fn nics_silent_in_one_check_share_the_backup_room() {
    let layout = Layout {
        name: "two silent",
        hosts: vec![HostKind::Nic; 4],
        backup_on: Some(3),
        rebalance: false,
        launch: vec![],
        hot: vec![],
        lease_mbps: BIG_LEASE_MBPS,
    };
    let mut actor = layout.actor();
    let t0 = SimTime::ZERO;
    for (k, host) in [0u32, 1, 3].into_iter().enumerate() {
        let launch = ControlInput::Launch {
            host,
            ip: Ipv4Addr::instance(k as u32 + 1),
            lease_mbps: BIG_LEASE_MBPS,
        };
        assert_eq!(actor.process(t0, launch).placed, Some(Placed::Nic(host)));
    }

    // NICs 2 and 3 keep reporting; NICs 0 and 1 fall silent together.
    let t1 = t0 + deadline(cfg().telemetry_period) + poll();
    for nic in [2, 3] {
        actor.process(t1, ControlInput::Telemetry { nic, load_bytes: 0 });
    }
    let fx = actor.process(t1, ControlInput::Tick(Check::Nics));
    assert_eq!(actor.failovers, 2);
    assert_eq!(
        fx.orders.len(),
        1,
        "room for one of the two: {:?}",
        fx.orders
    );
    for order in fx.orders {
        actor.process(t1, ControlInput::Accepted { order, sent_at: t1 });
    }
    for n in actor.books().nics.iter().flatten() {
        assert!(n.allocated_mbps <= n.capacity_mbps, "{n:?}");
    }
    assert_eq!(
        actor.books().nics[3].as_ref().map(|n| n.allocated_mbps),
        Some(90_000)
    );
    assert!(actor.consistent_with_log());
}
