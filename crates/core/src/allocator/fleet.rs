//! The one replicated control-plane state machine, and fleet-scope
//! placement: topology-aware placement over many pods.
//!
//! A [`FleetState`] holds two sets of books. The pod books — one
//! [`PodCapacity`] per pod, the links between pods, the fleet's instances —
//! answer *which pod and host get the instance at all*, with device
//! backends allowed to land on a different, reachable pod when the home
//! pod's devices strand. The device books ([`DeviceBooks`]) answer *which
//! NIC / which SSD inside this pod*. A pod runs the machine with device
//! commands; a fleet runs it with fleet commands.
//!
//! The split mirrors the paper's §2.3 fleet argument. Each pod contributes
//! a [`PodCapacity`] — what its device books could serve — and placement
//! runs against those summaries, consulting
//! [`FleetTopology::spill_order`] (hop count, then uplink latency, then pod
//! index — deterministically tie-broken) to pick the nearest neighbor pod
//! whenever an instance's CPU/memory fit locally but its chunky device
//! request does not.
//!
//! Every state-changing [`FleetCommand`] flows through a replicated Raft
//! log: the state machine ([`FleetState::apply`]) is a pure function of
//! the log, so replicas converge and [`FleetAllocator::consistent_with_log`]
//! can re-derive the live state from the committed prefix. Command
//! timestamps travel *in* the commands, never from the applying replica's
//! clock.

use oasis_cxl::topology::{CrossPodLink, FleetTopology, PodTopology, SpillHop};
use oasis_obs::MetricSink;
use oasis_raft::{RaftConfig, RaftNode};
use oasis_sim::time::{SimDuration, SimTime};

use super::command::{FleetCommand, TransferPath, ANY_POD};
use super::devices::DeviceBooks;
use crate::error::FleetError;
use crate::metrics;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};

/// The pod-local capacity layer: what one pod can still serve, as seen by
/// the fleet. CPU and memory are per-host (instances run on exactly one
/// host); NIC bandwidth and SSD capacity are pod-wide, because inside a
/// pod every device is reachable over CXL (§2.3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PodCapacity {
    /// vCPUs per host.
    pub vcpus_per_host: u32,
    /// Memory per host, GB.
    pub mem_gb_per_host: u32,
    /// vCPUs in use, per host.
    pub host_vcpus_used: Vec<u32>,
    /// Memory in use, per host (GB).
    pub host_mem_used: Vec<u32>,
    /// Pod-wide allocatable NIC bandwidth, Mbit/s (backup NICs excluded).
    pub nic_mbps_cap: u64,
    /// NIC bandwidth currently leased, Mbit/s.
    pub nic_mbps_used: u64,
    /// Pod-wide allocatable SSD capacity.
    pub ssd_cap: u64,
    /// SSD capacity currently leased.
    pub ssd_used: u64,
}

impl PodCapacity {
    /// Number of hosts in the pod.
    pub fn hosts(&self) -> usize {
        self.host_vcpus_used.len()
    }

    /// Can this pod's pooled devices absorb another `(nic_mbps, ssd)`
    /// lease?
    pub fn devices_fit(&self, nic_mbps: u64, ssd: u64) -> bool {
        self.nic_mbps_used.saturating_add(nic_mbps) <= self.nic_mbps_cap
            && self.ssd_used.saturating_add(ssd) <= self.ssd_cap
    }

    /// Post-placement CPU/memory slack of `host` if it took the request,
    /// or `None` if the request does not fit. The slack pair is the
    /// best-fit key: smaller slack packs tighter.
    fn host_slack(&self, host: usize, vcpus: u32, mem_gb: u32) -> Option<(u32, u32)> {
        let vs = self
            .vcpus_per_host
            .checked_sub(self.host_vcpus_used[host].checked_add(vcpus)?)?;
        let ms = self
            .mem_gb_per_host
            .checked_sub(self.host_mem_used[host].checked_add(mem_gb)?)?;
        Some((vs, ms))
    }
}

/// One live instance in the fleet state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetInstance {
    /// vCPUs held.
    pub vcpus: u32,
    /// Memory held, GB.
    pub mem_gb: u32,
    /// SSD capacity held.
    pub ssd: u32,
    /// NIC bandwidth held, Mbit/s.
    pub nic_mbps: u32,
    /// Pod whose host runs the instance.
    pub pod: u32,
    /// Host index within `pod`.
    pub host: u32,
    /// Pod serving the device backends (== `pod` unless spilled).
    pub device_pod: u32,
    /// When the current lease epoch started (command time, ns). Reset on
    /// resize so spill traffic is integrated rate-by-rate.
    pub placed_at: u64,
}

/// An open migration ticket: the target-side reservation made by
/// `MigrateInstance` and released by exactly one `FinishMigration` (or a
/// `KillInstance` racing the migration). While the ticket is open the
/// instance's resources are held on *both* pods, which is what makes
/// commit and rollback both safe: neither side's capacity can be given
/// away mid-copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationTicket {
    /// Target pod.
    pub dst_pod: u32,
    /// Reserved host index within the target pod.
    pub dst_host: u32,
    /// Transfer path of the pre-copy stream.
    pub path: TransferPath,
    /// When the ticket opened (command time, ns).
    pub opened_at: u64,
}

/// Per-pod utilization line in a [`FleetStateReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PodUtilization {
    /// Pod index.
    pub pod: usize,
    /// Hosts in the pod.
    pub hosts: usize,
    /// vCPUs in use across the pod.
    pub vcpus_used: u64,
    /// vCPU capacity across the pod.
    pub vcpus_cap: u64,
    /// NIC bandwidth leased, Mbit/s.
    pub nic_mbps_used: u64,
    /// NIC bandwidth capacity, Mbit/s.
    pub nic_mbps_cap: u64,
    /// SSD capacity leased.
    pub ssd_used: u64,
    /// SSD capacity.
    pub ssd_cap: u64,
    /// Instances whose device backends this pod serves.
    pub placements: u64,
}

/// Answer to [`FleetCommand::QueryFleetState`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStateReport {
    /// Per-pod utilization.
    pub pods: Vec<PodUtilization>,
    /// Instances currently live.
    pub live: u64,
    /// `CreateInstance` commands that placed.
    pub placed: u64,
    /// `CreateInstance` commands that found no capacity.
    pub rejected: u64,
    /// Instances killed.
    pub killed: u64,
    /// Placements whose devices spilled to a neighbor pod.
    pub spill_placements: u64,
    /// Closed-out cross-pod spill traffic, bytes.
    pub spill_bytes: u64,
}

/// Outcome of one applied (or read-only) fleet command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetResponse {
    /// The pod was registered.
    PodRegistered {
        /// Its index.
        pod: usize,
    },
    /// The link was registered.
    LinkAdded,
    /// The instance was placed.
    Created {
        /// Fleet instance id.
        id: u64,
        /// Pod whose host runs it.
        pod: usize,
        /// Host index within that pod.
        host: usize,
        /// Pod serving its devices (== `pod` unless spilled).
        device_pod: usize,
    },
    /// No host in the home scope could take the instance.
    Rejected,
    /// The instance's device leases were changed in place.
    Resized {
        /// Fleet instance id.
        id: u64,
    },
    /// The device pod could not absorb the new leases; nothing changed.
    ResizeRejected {
        /// Fleet instance id.
        id: u64,
    },
    /// The instance was torn down.
    Killed {
        /// Fleet instance id.
        id: u64,
    },
    /// A migration ticket was opened; the instance's resources are now
    /// reserved on the target pod while it keeps running on the source.
    MigrationStarted {
        /// Fleet instance id.
        id: u64,
        /// Target pod.
        dst_pod: usize,
        /// Reserved host within the target pod.
        dst_host: usize,
    },
    /// The migration ticket closed: `committed` tells whether the
    /// instance landed on the target or rolled back to the source.
    MigrationFinished {
        /// Fleet instance id.
        id: u64,
        /// Committed (target) vs aborted (source).
        committed: bool,
    },
    /// A device command updated the device books.
    Booked,
    /// The utilization report.
    State(FleetStateReport),
}

/// Bytes a `nic_mbps` lease moves across an uplink over `[from, to]` ns.
/// 1 Mbit/s × 1 ns = 1e6 / 1e9 bits = 1/8000 bytes; integer arithmetic so
/// every replica computes the same value.
fn cross_pod_bytes(nic_mbps: u32, from_ns: u64, to_ns: u64) -> u64 {
    ((nic_mbps as u128) * (to_ns.saturating_sub(from_ns) as u128) / 8000) as u64
}

/// Every pod's spill order, derived from the pods and links: `by_pod[p]`
/// = neighbor pods of `p` in preference order
/// ([`FleetTopology::spill_order`]). A topology change marks it stale and
/// the next `CreateInstance` rebuilds it, so a fleet of P pods and L links
/// pays for one rebuild instead of P + L.
#[derive(Clone, Debug, Default)]
struct SpillOrders {
    by_pod: Vec<Vec<SpillHop>>,
    fresh: bool,
}

/// The orders are a function of state that is compared elsewhere, so they
/// are not state themselves: a replica that has not rebuilt them yet (or a
/// state just restored) equals one that has.
impl PartialEq for SpillOrders {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for SpillOrders {}

/// The replicated control-plane state machine: a pure function of the
/// [`FleetCommand`] log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetState {
    /// Pod-local capacity layers, by pod index.
    pub pods: Vec<PodCapacity>,
    /// Registered links as `(a, b, latency_ns)`.
    links: Vec<(u32, u32, u64)>,
    /// Derived from `pods` and `links`; excluded from equality and from
    /// the snapshot.
    spill: SpillOrders,
    /// Instance slots by fleet id (`None` = rejected or killed).
    pub instances: Vec<Option<FleetInstance>>,
    /// Placements that succeeded.
    pub placed: u64,
    /// Placements that found no capacity.
    pub rejected: u64,
    /// Instances killed.
    pub killed: u64,
    /// Resizes that succeeded.
    pub resizes: u64,
    /// Resizes refused for lack of device capacity.
    pub resize_rejections: u64,
    /// Per *home* pod: placements whose devices spilled to a neighbor.
    pub spill_placements: Vec<u64>,
    /// Per *home* pod: closed-out cross-pod traffic, bytes.
    pub spill_bytes: Vec<u64>,
    /// Per *device* pod: placements it serves devices for.
    pub pod_placements: Vec<u64>,
    /// Open migration tickets, sorted by instance id (a sorted `Vec`
    /// keeps `Eq` and iteration deterministic).
    pub migrations: Vec<(u64, MigrationTicket)>,
    /// Migration tickets opened.
    pub migrations_started: u64,
    /// Migrations committed onto their target pod.
    pub migrations_committed: u64,
    /// Migrations rolled back onto their source pod.
    pub migrations_aborted: u64,
    /// The device books a pod's control actor keeps.
    pub devices: DeviceBooks,
}

/// A pass-2 spill candidate: the `(hops, vcpu slack, mem slack)` ranking
/// key and the `(pod, host, device_pod)` placement it ranks.
type SpillCandidate = ((u32, u32, u32), (usize, usize, usize));

impl FleetState {
    /// The topology this state implies — pods plus registered uplinks —
    /// which placement consults for spill ordering.
    pub fn topology(&self) -> FleetTopology {
        FleetTopology {
            pods: self
                .pods
                .iter()
                .map(|p| PodTopology::production(p.hosts(), 0))
                .collect(),
            links: self
                .links
                .iter()
                .map(|&(a, b, ns)| CrossPodLink {
                    a: a as usize,
                    b: b as usize,
                    latency: SimDuration::from_nanos(ns),
                })
                .collect(),
        }
    }

    /// Is there already a link between `a` and `b` (either direction)?
    pub fn has_link(&self, a: usize, b: usize) -> bool {
        self.links.iter().any(|&(la, lb, _)| {
            (la as usize, lb as usize) == (a, b) || (la as usize, lb as usize) == (b, a)
        })
    }

    /// Is `id` a live instance?
    pub fn is_live(&self, id: u64) -> bool {
        matches!(self.instances.get(id as usize), Some(Some(_)))
    }

    /// The open migration ticket for `id`, if any.
    pub fn migration(&self, id: u64) -> Option<&MigrationTicket> {
        self.migrations
            .iter()
            .find(|&&(mid, _)| mid == id)
            .map(|(_, t)| t)
    }

    /// The host a migration of `inst` to `dst_pod` would reserve (best-fit
    /// by post-reservation slack), or `None` when the pod cannot take the
    /// instance's CPU/memory/devices — or is the pod it already runs on.
    /// Shared by command validation and [`apply`](Self::apply), so the
    /// two cannot disagree about feasibility.
    fn migration_fit(&self, inst: &FleetInstance, dst_pod: usize) -> Option<usize> {
        if dst_pod == inst.pod as usize || dst_pod >= self.pods.len() {
            return None;
        }
        let pc = &self.pods[dst_pod];
        if !pc.devices_fit(inst.nic_mbps as u64, inst.ssd as u64) {
            return None;
        }
        let mut best: Option<((u32, u32), usize)> = None;
        for h in 0..pc.hosts() {
            if let Some(key) = pc.host_slack(h, inst.vcpus, inst.mem_gb) {
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, h));
                }
            }
        }
        best.map(|(_, h)| h)
    }

    /// Release the target-side reservation held by an open ticket.
    fn release_ticket(&mut self, inst: &FleetInstance, ticket: &MigrationTicket) {
        let pc = &mut self.pods[ticket.dst_pod as usize];
        pc.host_vcpus_used[ticket.dst_host as usize] -= inst.vcpus;
        pc.host_mem_used[ticket.dst_host as usize] -= inst.mem_gb;
        pc.nic_mbps_used -= inst.nic_mbps as u64;
        pc.ssd_used -= inst.ssd as u64;
    }

    /// Rebuild the spill orders if a topology change left them stale.
    fn refresh_spill(&mut self) {
        if !self.spill.fresh {
            let topo = self.topology();
            self.spill.by_pod = (0..self.pods.len()).map(|p| topo.spill_order(p)).collect();
            self.spill.fresh = true;
        }
    }

    /// Deterministic two-pass placement over the in-scope pods: the home
    /// pod alone when one is pinned (none when it does not exist), every
    /// pod for `ANY_POD`. Pass 1: a host whose *own* pod can serve the
    /// devices, best-fit by `(vcpu slack, mem slack)` with the first
    /// minimum winning — exactly the pod-scoped policy the trace replayer
    /// always used. Pass 2 (only when pass 1 strands): a host whose
    /// CPU/memory fit, with devices on the first pod in its home pod's
    /// spill order that can serve them; candidates ranked by
    /// `(hops, vcpu slack, mem slack)`, first minimum wins. Needs fresh
    /// spill orders.
    fn place(
        &self,
        vcpus: u32,
        mem_gb: u32,
        ssd: u32,
        nic_mbps: u32,
        home_pod: Option<usize>,
    ) -> Option<(usize, usize, usize)> {
        let n = self.pods.len();
        let scope = match home_pod {
            Some(hp) => hp.min(n)..hp.saturating_add(1).min(n),
            None => 0..n,
        };
        let mut best: Option<((u32, u32), (usize, usize))> = None;
        for p in scope.clone() {
            let pc = &self.pods[p];
            if !pc.devices_fit(nic_mbps as u64, ssd as u64) {
                continue;
            }
            for h in 0..pc.hosts() {
                if let Some(key) = pc.host_slack(h, vcpus, mem_gb) {
                    if best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, (p, h)));
                    }
                }
            }
        }
        if let Some((_, (p, h))) = best {
            return Some((p, h, p));
        }
        // Pass 2: spill device backends to the nearest feasible neighbor.
        let mut best: Option<SpillCandidate> = None;
        for p in scope {
            let pc = &self.pods[p];
            let Some(hop) = self.spill.by_pod[p]
                .iter()
                .find(|hop| self.pods[hop.pod].devices_fit(nic_mbps as u64, ssd as u64))
            else {
                continue;
            };
            for h in 0..pc.hosts() {
                if let Some((vs, ms)) = pc.host_slack(h, vcpus, mem_gb) {
                    let key = (hop.hops, vs, ms);
                    if best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, (p, h, hop.pod)));
                    }
                }
            }
        }
        best.map(|(_, placed)| placed)
    }

    /// Close out the spill-traffic epoch `[inst.placed_at, now]` for a
    /// spilled instance.
    fn flush_spill(&mut self, inst: &FleetInstance, now: u64) {
        if inst.device_pod != inst.pod {
            let b = &mut self.spill_bytes[inst.pod as usize];
            *b = b.saturating_add(cross_pod_bytes(inst.nic_mbps, inst.placed_at, now));
        }
    }

    /// Apply a committed command. Infallible and deterministic: commands
    /// are validated before they are proposed, and a malformed or stale
    /// command (which a correct proposer never logs) degrades to a
    /// `Rejected` outcome rather than diverging replicas.
    pub fn apply(&mut self, cmd: &FleetCommand) -> FleetResponse {
        match *cmd {
            FleetCommand::RegisterPod {
                pod: _,
                hosts,
                vcpus_per_host,
                mem_gb_per_host,
                nic_mbps,
                ssd_cap,
            } => {
                self.pods.push(PodCapacity {
                    vcpus_per_host,
                    mem_gb_per_host,
                    host_vcpus_used: vec![0; hosts as usize],
                    host_mem_used: vec![0; hosts as usize],
                    nic_mbps_cap: nic_mbps,
                    nic_mbps_used: 0,
                    ssd_cap,
                    ssd_used: 0,
                });
                self.spill_placements.push(0);
                self.spill_bytes.push(0);
                self.pod_placements.push(0);
                self.spill.fresh = false;
                FleetResponse::PodRegistered {
                    pod: self.pods.len() - 1,
                }
            }
            FleetCommand::AddLink { a, b, latency_ns } => {
                self.links.push((a, b, latency_ns));
                self.spill.fresh = false;
                FleetResponse::LinkAdded
            }
            FleetCommand::CreateInstance {
                at,
                vcpus,
                mem_gb,
                ssd,
                nic_mbps,
                home_pod,
            } => {
                let home = (home_pod != ANY_POD).then_some(home_pod as usize);
                let id = self.instances.len() as u64;
                self.refresh_spill();
                match self.place(vcpus, mem_gb, ssd, nic_mbps, home) {
                    Some((pod, host, device_pod)) => {
                        let pc = &mut self.pods[pod];
                        pc.host_vcpus_used[host] += vcpus;
                        pc.host_mem_used[host] += mem_gb;
                        let dc = &mut self.pods[device_pod];
                        dc.nic_mbps_used = dc.nic_mbps_used.saturating_add(nic_mbps as u64);
                        dc.ssd_used = dc.ssd_used.saturating_add(ssd as u64);
                        self.instances.push(Some(FleetInstance {
                            vcpus,
                            mem_gb,
                            ssd,
                            nic_mbps,
                            pod: pod as u32,
                            host: host as u32,
                            device_pod: device_pod as u32,
                            placed_at: at,
                        }));
                        self.placed += 1;
                        self.pod_placements[device_pod] += 1;
                        if device_pod != pod {
                            self.spill_placements[pod] += 1;
                        }
                        FleetResponse::Created {
                            id,
                            pod,
                            host,
                            device_pod,
                        }
                    }
                    None => {
                        self.instances.push(None);
                        self.rejected += 1;
                        FleetResponse::Rejected
                    }
                }
            }
            FleetCommand::ResizeInstance {
                at,
                id,
                nic_mbps,
                ssd,
            } => {
                let Some(Some(inst)) = self.instances.get(id as usize).copied() else {
                    return FleetResponse::Rejected;
                };
                if self.migration(id).is_some() {
                    // The ticket's target reservation was sized for the
                    // current leases; repricing mid-copy would desync it.
                    self.resize_rejections += 1;
                    return FleetResponse::ResizeRejected { id };
                }
                let dp = inst.device_pod as usize;
                let dc = &self.pods[dp];
                let nic_ok = (dc.nic_mbps_used - inst.nic_mbps as u64)
                    .saturating_add(nic_mbps as u64)
                    <= dc.nic_mbps_cap;
                let ssd_ok =
                    (dc.ssd_used - inst.ssd as u64).saturating_add(ssd as u64) <= dc.ssd_cap;
                if !(nic_ok && ssd_ok) {
                    self.resize_rejections += 1;
                    return FleetResponse::ResizeRejected { id };
                }
                // Close the old-rate spill epoch before the rate changes.
                self.flush_spill(&inst, at);
                let dc = &mut self.pods[dp];
                dc.nic_mbps_used =
                    (dc.nic_mbps_used - inst.nic_mbps as u64).saturating_add(nic_mbps as u64);
                dc.ssd_used = (dc.ssd_used - inst.ssd as u64).saturating_add(ssd as u64);
                if let Some(Some(inst)) = self.instances.get_mut(id as usize) {
                    inst.nic_mbps = nic_mbps;
                    inst.ssd = ssd;
                    inst.placed_at = at;
                }
                self.resizes += 1;
                FleetResponse::Resized { id }
            }
            FleetCommand::KillInstance { at, id } => {
                let Some(slot) = self.instances.get_mut(id as usize) else {
                    return FleetResponse::Rejected;
                };
                let Some(inst) = slot.take() else {
                    return FleetResponse::Rejected;
                };
                self.flush_spill(&inst, at);
                let pc = &mut self.pods[inst.pod as usize];
                pc.host_vcpus_used[inst.host as usize] -= inst.vcpus;
                pc.host_mem_used[inst.host as usize] -= inst.mem_gb;
                let dc = &mut self.pods[inst.device_pod as usize];
                dc.nic_mbps_used -= inst.nic_mbps as u64;
                dc.ssd_used -= inst.ssd as u64;
                // A kill racing an open migration also rolls back the
                // target reservation — nothing may leak on either side.
                if let Some(pos) = self.migrations.iter().position(|&(mid, _)| mid == id) {
                    let (_, ticket) = self.migrations.remove(pos);
                    self.release_ticket(&inst, &ticket);
                    self.migrations_aborted += 1;
                }
                self.killed += 1;
                FleetResponse::Killed { id }
            }
            FleetCommand::MigrateInstance {
                at,
                id,
                dst_pod,
                path,
            } => {
                let Some(Some(inst)) = self.instances.get(id as usize).copied() else {
                    return FleetResponse::Rejected;
                };
                if self.migration(id).is_some() {
                    return FleetResponse::Rejected;
                }
                let Some(dst_host) = self.migration_fit(&inst, dst_pod as usize) else {
                    return FleetResponse::Rejected;
                };
                let pc = &mut self.pods[dst_pod as usize];
                pc.host_vcpus_used[dst_host] += inst.vcpus;
                pc.host_mem_used[dst_host] += inst.mem_gb;
                pc.nic_mbps_used = pc.nic_mbps_used.saturating_add(inst.nic_mbps as u64);
                pc.ssd_used = pc.ssd_used.saturating_add(inst.ssd as u64);
                let ticket = MigrationTicket {
                    dst_pod,
                    dst_host: dst_host as u32,
                    path,
                    opened_at: at,
                };
                let pos = self.migrations.partition_point(|&(mid, _)| mid < id);
                self.migrations.insert(pos, (id, ticket));
                self.migrations_started += 1;
                FleetResponse::MigrationStarted {
                    id,
                    dst_pod: dst_pod as usize,
                    dst_host,
                }
            }
            FleetCommand::FinishMigration { at, id, commit } => {
                // Exactly-once: the ticket is removed before anything is
                // released, so a replayed FinishMigration finds no ticket
                // and degrades to Rejected instead of double-releasing.
                let Some(pos) = self.migrations.iter().position(|&(mid, _)| mid == id) else {
                    return FleetResponse::Rejected;
                };
                let (_, ticket) = self.migrations.remove(pos);
                let Some(Some(inst)) = self.instances.get(id as usize).copied() else {
                    return FleetResponse::Rejected;
                };
                if commit {
                    // Land on the target: close the source's spill epoch,
                    // release every source-side resource, re-home.
                    self.flush_spill(&inst, at);
                    let sp = &mut self.pods[inst.pod as usize];
                    sp.host_vcpus_used[inst.host as usize] -= inst.vcpus;
                    sp.host_mem_used[inst.host as usize] -= inst.mem_gb;
                    let sd = &mut self.pods[inst.device_pod as usize];
                    sd.nic_mbps_used -= inst.nic_mbps as u64;
                    sd.ssd_used -= inst.ssd as u64;
                    if let Some(Some(i)) = self.instances.get_mut(id as usize) {
                        i.pod = ticket.dst_pod;
                        i.host = ticket.dst_host;
                        i.device_pod = ticket.dst_pod;
                        i.placed_at = at;
                    }
                    self.pod_placements[ticket.dst_pod as usize] += 1;
                    self.migrations_committed += 1;
                } else {
                    // Roll back: drop the target reservation; the source
                    // side never changed, so the instance just keeps
                    // running where it was.
                    self.release_ticket(&inst, &ticket);
                    self.migrations_aborted += 1;
                }
                FleetResponse::MigrationFinished {
                    id,
                    committed: commit,
                }
            }
            FleetCommand::QueryFleetState => FleetResponse::State(self.report()),
            _ => self.devices.apply(cmd),
        }
    }

    /// The fleet-wide utilization report.
    pub fn report(&self) -> FleetStateReport {
        FleetStateReport {
            pods: self
                .pods
                .iter()
                .enumerate()
                .map(|(p, pc)| PodUtilization {
                    pod: p,
                    hosts: pc.hosts(),
                    vcpus_used: pc.host_vcpus_used.iter().map(|&v| v as u64).sum(),
                    vcpus_cap: pc.hosts() as u64 * pc.vcpus_per_host as u64,
                    nic_mbps_used: pc.nic_mbps_used,
                    nic_mbps_cap: pc.nic_mbps_cap,
                    ssd_used: pc.ssd_used,
                    ssd_cap: pc.ssd_cap,
                    placements: self.pod_placements[p],
                })
                .collect(),
            live: self.instances.iter().flatten().count() as u64,
            placed: self.placed,
            rejected: self.rejected,
            killed: self.killed,
            spill_placements: self.spill_placements.iter().sum(),
            spill_bytes: self.spill_bytes.iter().sum(),
        }
    }

    /// Export the fleet counters through the `core.fleet_*` registry.
    /// Spill placements/bytes are tagged by *home* pod, placements by
    /// *device* pod; zero-valued tags are skipped, like the engine
    /// exporters do.
    pub fn export_metrics(&self, sink: &mut MetricSink) {
        sink.set(metrics::FLEET_PODS, 0, self.pods.len() as u64);
        sink.set(metrics::FLEET_LINKS, 0, self.links.len() as u64);
        sink.set(metrics::FLEET_INSTANCES_PLACED, 0, self.placed);
        sink.set(metrics::FLEET_PLACEMENTS_REJECTED, 0, self.rejected);
        sink.set(metrics::FLEET_INSTANCES_KILLED, 0, self.killed);
        sink.set(metrics::FLEET_RESIZES, 0, self.resizes);
        sink.set(metrics::FLEET_RESIZES_REJECTED, 0, self.resize_rejections);
        for (p, &v) in self.spill_placements.iter().enumerate() {
            if v != 0 {
                sink.set(metrics::FLEET_SPILL_PLACEMENTS, p as u32, v);
            }
        }
        for (p, &v) in self.spill_bytes.iter().enumerate() {
            if v != 0 {
                sink.set(metrics::FLEET_SPILL_BYTES, p as u32, v);
            }
        }
        for (p, &v) in self.pod_placements.iter().enumerate() {
            if v != 0 {
                sink.set(metrics::FLEET_POD_PLACEMENTS, p as u32, v);
            }
        }
        // Zero-valued migration tallies are skipped so runs that never
        // migrate keep their exports (and figure JSON) byte-identical.
        for (name, v) in [
            (metrics::FLEET_MIGRATIONS_STARTED, self.migrations_started),
            (
                metrics::FLEET_MIGRATIONS_COMMITTED,
                self.migrations_committed,
            ),
            (metrics::FLEET_MIGRATIONS_ABORTED, self.migrations_aborted),
        ] {
            if v != 0 {
                sink.set(name, 0, v);
            }
        }
    }
}

impl Snapshottable for FleetState {
    /// Byte-stable by construction: every collection is written in its
    /// (deterministic) storage order; `spill` is derived from the link
    /// set and rebuilt after restore instead of being serialized.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_list(&self.pods, |w, pc| {
            w.put_u32(pc.vcpus_per_host);
            w.put_u32(pc.mem_gb_per_host);
            w.put_u64(pc.host_vcpus_used.len() as u64);
            for &v in &pc.host_vcpus_used {
                w.put_u32(v);
            }
            for &m in &pc.host_mem_used {
                w.put_u32(m);
            }
            w.put_u64(pc.nic_mbps_cap);
            w.put_u64(pc.nic_mbps_used);
            w.put_u64(pc.ssd_cap);
            w.put_u64(pc.ssd_used);
        });
        w.put_list(&self.links, |w, &(a, b, ns)| {
            w.put_u32(a);
            w.put_u32(b);
            w.put_u64(ns);
        });
        w.put_slots(&self.instances, |w, _, i| {
            w.put_u32(i.vcpus);
            w.put_u32(i.mem_gb);
            w.put_u32(i.ssd);
            w.put_u32(i.nic_mbps);
            w.put_u32(i.pod);
            w.put_u32(i.host);
            w.put_u32(i.device_pod);
            w.put_u64(i.placed_at);
        });
        for v in [
            self.placed,
            self.rejected,
            self.killed,
            self.resizes,
            self.resize_rejections,
        ] {
            w.put_u64(v);
        }
        for table in [
            &self.spill_placements,
            &self.spill_bytes,
            &self.pod_placements,
        ] {
            w.put_list(table, |w, &v| w.put_u64(v));
        }
        w.put_list(&self.migrations, |w, &(id, t)| {
            w.put_u64(id);
            w.put_u32(t.dst_pod);
            w.put_u32(t.dst_host);
            w.put_u8(t.path.to_byte());
            w.put_u64(t.opened_at);
        });
        for v in [
            self.migrations_started,
            self.migrations_committed,
            self.migrations_aborted,
        ] {
            w.put_u64(v);
        }
        self.devices.write(w, |_, _| {}, |_, _| {});
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.pods = r.list("fleet pod", |r| {
            let vcpus_per_host = r.u32("fleet pod vcpus/host")?;
            let mem_gb_per_host = r.u32("fleet pod mem/host")?;
            let hosts = r.count("fleet pod host count")?;
            let host_vcpus_used = (0..hosts)
                .map(|_| r.u32("fleet pod host vcpus"))
                .collect::<Result<_, _>>()?;
            let host_mem_used = (0..hosts)
                .map(|_| r.u32("fleet pod host mem"))
                .collect::<Result<_, _>>()?;
            Ok(PodCapacity {
                vcpus_per_host,
                mem_gb_per_host,
                host_vcpus_used,
                host_mem_used,
                nic_mbps_cap: r.u64("fleet pod nic cap")?,
                nic_mbps_used: r.u64("fleet pod nic used")?,
                ssd_cap: r.u64("fleet pod ssd cap")?,
                ssd_used: r.u64("fleet pod ssd used")?,
            })
        })?;
        self.links = r.list("fleet link", |r| {
            let a = r.u32("fleet link a")?;
            let b = r.u32("fleet link b")?;
            Ok((a, b, r.u64("fleet link latency")?))
        })?;
        self.instances = r.slots("fleet instance", |r, _| {
            Ok(FleetInstance {
                vcpus: r.u32("fleet instance vcpus")?,
                mem_gb: r.u32("fleet instance mem")?,
                ssd: r.u32("fleet instance ssd")?,
                nic_mbps: r.u32("fleet instance nic")?,
                pod: r.u32("fleet instance pod")?,
                host: r.u32("fleet instance host")?,
                device_pod: r.u32("fleet instance device pod")?,
                placed_at: r.u64("fleet instance placed_at")?,
            })
        })?;
        self.placed = r.u64("fleet placed")?;
        self.rejected = r.u64("fleet rejected")?;
        self.killed = r.u64("fleet killed")?;
        self.resizes = r.u64("fleet resizes")?;
        self.resize_rejections = r.u64("fleet resize rejections")?;
        let mut table = || r.list("fleet table", |r| r.u64("fleet table entry"));
        self.spill_placements = table()?;
        self.spill_bytes = table()?;
        self.pod_placements = table()?;
        self.migrations = r.list("fleet migration", |r| {
            let id = r.u64("fleet migration id")?;
            let dst_pod = r.u32("fleet migration dst pod")?;
            let dst_host = r.u32("fleet migration dst host")?;
            let path = TransferPath::from_byte(r.u8("fleet migration path")?)
                .ok_or(SnapshotError::Corrupt("fleet migration path"))?;
            let opened_at = r.u64("fleet migration opened_at")?;
            let ticket = MigrationTicket {
                dst_pod,
                dst_host,
                path,
                opened_at,
            };
            Ok((id, ticket))
        })?;
        if self.migrations.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(SnapshotError::Corrupt("fleet migration order"));
        }
        self.migrations_started = r.u64("fleet migrations started")?;
        self.migrations_committed = r.u64("fleet migrations committed")?;
        self.migrations_aborted = r.u64("fleet migrations aborted")?;
        self.devices = DeviceBooks::read(r, |_, _| Ok(()), |_, _| Ok(()))?;
        self.spill = SpillOrders::default();
        Ok(())
    }
}

/// The allocator service: validates typed commands, runs them through a
/// Raft log, and applies the committed prefix to a [`FleetState`].
/// Single-replica (commands commit immediately), with the multi-node
/// convergence covered in [`super::replicated`]. A [`Fleet`] runs one for
/// its pods; every pod's control actor runs one for its devices.
///
/// [`Fleet`]: crate::fleet::Fleet
#[derive(Clone)]
pub struct FleetAllocator {
    /// The replicated state (readable for reports and tests).
    pub state: FleetState,
    raft: RaftNode,
    /// Compaction point: the state a restore installed and the commit
    /// index it was installed at.
    /// [`consistent_with_log`](Self::consistent_with_log) replays only the
    /// entries after the index on top of the state, so the invariant holds
    /// across a restore even though the log holds another history.
    base: FleetState,
    base_index: u64,
}

impl Default for FleetAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetAllocator {
    /// An allocator backed by a single-replica Raft group.
    pub fn new() -> Self {
        let mut raft = RaftNode::new(0, vec![], RaftConfig::default(), 0xF1EE7);
        // A single-node group elects itself on the first tick.
        raft.tick(SimTime::from_millis(25));
        assert!(raft.is_leader());
        FleetAllocator {
            state: FleetState::default(),
            raft,
            base: FleetState::default(),
            base_index: 0,
        }
    }

    /// Write the applied state into `w` as a checkpoint (log-compaction
    /// point).
    pub fn checkpoint(&self, w: &mut SnapshotWriter) {
        self.state.snapshot_state(w);
    }

    /// Install a checkpoint written by [`checkpoint`](Self::checkpoint) as
    /// the live state and the compaction point.
    pub fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let mut state = FleetState::default();
        state.restore_state(r)?;
        self.install(state);
        Ok(())
    }

    /// Make `state` the live state and the compaction point at the current
    /// commit index.
    pub(super) fn install(&mut self, state: FleetState) {
        self.base = state.clone();
        self.base_index = self.raft.commit_index();
        self.state = state;
    }

    /// Execute one control-plane command at simulation time `now`:
    /// validate it against the live state, append it to the log (reads are
    /// not logged), apply everything committed, and return the outcome.
    pub fn execute(
        &mut self,
        now: SimTime,
        cmd: &FleetCommand,
    ) -> Result<FleetResponse, FleetError> {
        match *cmd {
            FleetCommand::QueryFleetState => {
                return Ok(FleetResponse::State(self.state.report()));
            }
            FleetCommand::RegisterPod { pod, .. } if pod as usize != self.state.pods.len() => {
                return Err(FleetError::NoSuchPod(pod as usize));
            }
            FleetCommand::AddLink { a, b, .. } => {
                let (a, b) = (a as usize, b as usize);
                if a == b {
                    return Err(FleetError::SelfLink { pod: a });
                }
                for p in [a, b] {
                    if p >= self.state.pods.len() {
                        return Err(FleetError::NoSuchPod(p));
                    }
                }
                if self.state.has_link(a, b) {
                    return Err(FleetError::DuplicateLink {
                        a: a.min(b),
                        b: a.max(b),
                    });
                }
            }
            FleetCommand::CreateInstance { home_pod, .. }
                if home_pod != ANY_POD && home_pod as usize >= self.state.pods.len() =>
            {
                return Err(FleetError::NoSuchPod(home_pod as usize));
            }
            FleetCommand::ResizeInstance { id, .. } => {
                if !self.state.is_live(id) {
                    return Err(FleetError::NoSuchInstance(id));
                }
                if self.state.migration(id).is_some() {
                    return Err(FleetError::MigrationInProgress(id));
                }
            }
            FleetCommand::KillInstance { id, .. } if !self.state.is_live(id) => {
                return Err(FleetError::NoSuchInstance(id));
            }
            FleetCommand::MigrateInstance { id, dst_pod, .. } => {
                let Some(Some(inst)) = self.state.instances.get(id as usize).copied() else {
                    return Err(FleetError::NoSuchInstance(id));
                };
                if dst_pod as usize >= self.state.pods.len() {
                    return Err(FleetError::NoSuchPod(dst_pod as usize));
                }
                if self.state.migration(id).is_some() {
                    return Err(FleetError::MigrationInProgress(id));
                }
                if self.state.migration_fit(&inst, dst_pod as usize).is_none() {
                    return Err(FleetError::MigrationInfeasible {
                        id,
                        dst_pod: dst_pod as usize,
                    });
                }
            }
            FleetCommand::FinishMigration { id, .. } => {
                if !self.state.is_live(id) {
                    return Err(FleetError::NoSuchInstance(id));
                }
                if self.state.migration(id).is_none() {
                    return Err(FleetError::NotMigrating(id));
                }
            }
            // The rest are valid as they stand. Device commands carry a
            // device their proposer already picked from the books.
            _ => {}
        }
        self.raft
            .propose(now, cmd.encode())
            .ok_or(FleetError::NotLeader)?;
        let mut last = FleetResponse::Rejected;
        for (_, bytes) in self.raft.drain_committed() {
            if let Some(c) = FleetCommand::decode(bytes) {
                last = self.state.apply(&c);
            }
        }
        Ok(last)
    }

    /// Replay the committed log after the compaction point on top of its
    /// state (empty unless a checkpoint was restored) and compare with the
    /// live state — the "state is consistent with the log" invariant.
    pub fn consistent_with_log(&self) -> bool {
        let mut replayed = self.base.clone();
        for cmd in self.committed() {
            replayed.apply(&cmd);
        }
        replayed == self.state
    }

    /// The commands committed after the compaction point, in log order.
    pub fn committed(&self) -> impl Iterator<Item = FleetCommand> + '_ {
        let commit = self.raft.commit_index() as usize;
        let entries = self.raft.log_entries().iter().take(commit);
        // An election's no-op barrier is empty and decodes to nothing.
        let commands = entries.skip(self.base_index as usize).map(|e| &e.command);
        commands.filter_map(|c| FleetCommand::decode(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register(alloc: &mut FleetAllocator, hosts: u32) -> usize {
        let pod = alloc.state.pods.len() as u32;
        match alloc
            .execute(
                SimTime::ZERO,
                &FleetCommand::RegisterPod {
                    pod,
                    hosts,
                    vcpus_per_host: 96,
                    mem_gb_per_host: 512,
                    nic_mbps: hosts as u64 * 100_000,
                    ssd_cap: hosts as u64 * 12_288,
                },
            )
            .unwrap()
        {
            FleetResponse::PodRegistered { pod } => pod,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn try_link(
        alloc: &mut FleetAllocator,
        a: u32,
        b: u32,
        latency_ns: u64,
    ) -> Result<FleetResponse, FleetError> {
        alloc.execute(SimTime::ZERO, &FleetCommand::AddLink { a, b, latency_ns })
    }

    fn link(alloc: &mut FleetAllocator, a: u32, b: u32) {
        try_link(alloc, a, b, 2_000).unwrap();
    }

    fn kill(alloc: &mut FleetAllocator, at: u64, id: u64) -> FleetResponse {
        let cmd = FleetCommand::KillInstance { at, id };
        alloc.execute(SimTime::from_nanos(at), &cmd).unwrap()
    }

    fn try_resize(
        alloc: &mut FleetAllocator,
        at: u64,
        id: u64,
        nic_mbps: u32,
        ssd: u32,
    ) -> Result<FleetResponse, FleetError> {
        let cmd = FleetCommand::ResizeInstance {
            at,
            id,
            nic_mbps,
            ssd,
        };
        alloc.execute(SimTime::from_nanos(at), &cmd)
    }

    fn create(alloc: &mut FleetAllocator, at: u64, nic_mbps: u32, ssd: u32) -> FleetResponse {
        alloc
            .execute(
                SimTime::from_nanos(at),
                &FleetCommand::CreateInstance {
                    at,
                    vcpus: 8,
                    mem_gb: 32,
                    ssd,
                    nic_mbps,
                    home_pod: ANY_POD,
                },
            )
            .unwrap()
    }

    #[test]
    fn validation_rejects_bad_topology_commands() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 2);
        register(&mut alloc, 2);
        let err = alloc.execute(
            SimTime::ZERO,
            &FleetCommand::RegisterPod {
                pod: 7,
                hosts: 1,
                vcpus_per_host: 1,
                mem_gb_per_host: 1,
                nic_mbps: 1,
                ssd_cap: 1,
            },
        );
        assert_eq!(err, Err(FleetError::NoSuchPod(7)));
        assert_eq!(
            try_link(&mut alloc, 1, 1, 1),
            Err(FleetError::SelfLink { pod: 1 })
        );
        assert_eq!(try_link(&mut alloc, 0, 5, 1), Err(FleetError::NoSuchPod(5)));
        link(&mut alloc, 0, 1);
        assert_eq!(
            try_link(&mut alloc, 1, 0, 9),
            Err(FleetError::DuplicateLink { a: 0, b: 1 })
        );
        assert_eq!(
            alloc.execute(SimTime::ZERO, &FleetCommand::KillInstance { at: 0, id: 3 }),
            Err(FleetError::NoSuchInstance(3))
        );
    }

    #[test]
    fn local_placement_is_best_fit_first_minimum() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 3);
        // Load host 1 so it has the least slack; the next create must
        // best-fit onto it, not first-fit onto host 0.
        alloc.state.pods[0].host_vcpus_used[1] = 80;
        alloc.state.pods[0].host_mem_used[1] = 400;
        match create(&mut alloc, 0, 1_000, 0) {
            FleetResponse::Created {
                pod,
                host,
                device_pod,
                ..
            } => {
                assert_eq!((pod, host, device_pod), (0, 1, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strand_spills_devices_to_nearest_linked_pod() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 2);
        register(&mut alloc, 2);
        link(&mut alloc, 0, 1);
        // Exhaust pod 0's NIC bandwidth; CPU/memory stay free.
        alloc.state.pods[0].nic_mbps_used = alloc.state.pods[0].nic_mbps_cap;
        // Also fill pod 1's hosts so only pod 0 can run the instance.
        for h in 0..2 {
            alloc.state.pods[1].host_vcpus_used[h] = 96;
        }
        let resp = create(&mut alloc, 10, 5_000, 100);
        match resp {
            FleetResponse::Created {
                id,
                pod,
                device_pod,
                ..
            } => {
                assert_eq!(pod, 0);
                assert_eq!(device_pod, 1, "devices spill over the uplink");
                assert_eq!(alloc.state.spill_placements[0], 1);
                assert_eq!(alloc.state.spill_bytes[0], 0, "open epoch not yet flushed");
                // Kill after 8 ms: 5_000 Mbit/s * 8e6 ns / 8000 = 5e6 B.
                kill(&mut alloc, 8_000_010, id);
                assert_eq!(alloc.state.spill_bytes[0], 5_000_000);
                assert_eq!(alloc.state.pods[1].nic_mbps_used, 0);
                assert_eq!(alloc.state.pods[1].ssd_used, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_spill_without_links_and_rejection_is_counted() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        register(&mut alloc, 1);
        alloc.state.pods[0].nic_mbps_used = alloc.state.pods[0].nic_mbps_cap;
        alloc.state.pods[1].host_vcpus_used[0] = 96;
        assert_eq!(create(&mut alloc, 0, 5_000, 0), FleetResponse::Rejected);
        assert_eq!(alloc.state.rejected, 1);
        assert_eq!(alloc.state.spill_placements, vec![0, 0]);
    }

    #[test]
    fn resize_reprices_devices_and_rejects_over_capacity() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        let FleetResponse::Created { id, .. } = create(&mut alloc, 0, 10_000, 100) else {
            panic!("create failed");
        };
        assert_eq!(
            try_resize(&mut alloc, 5, id, 45_000, 500).unwrap(),
            FleetResponse::Resized { id }
        );
        assert_eq!(alloc.state.pods[0].nic_mbps_used, 45_000);
        assert_eq!(alloc.state.pods[0].ssd_used, 500);
        assert_eq!(
            try_resize(&mut alloc, 6, id, 200_000, 0).unwrap(),
            FleetResponse::ResizeRejected { id }
        );
        assert_eq!(
            alloc.state.pods[0].nic_mbps_used, 45_000,
            "rejected resize is a no-op"
        );
        assert_eq!(alloc.state.resize_rejections, 1);
    }

    #[test]
    fn query_reports_utilization_without_logging() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 2);
        create(&mut alloc, 0, 10_000, 200);
        let before = alloc.raft.log_entries().len();
        let FleetResponse::State(report) = alloc
            .execute(SimTime::ZERO, &FleetCommand::QueryFleetState)
            .unwrap()
        else {
            panic!("expected a report");
        };
        assert_eq!(
            alloc.raft.log_entries().len(),
            before,
            "reads are not logged"
        );
        assert_eq!(report.live, 1);
        assert_eq!(report.placed, 1);
        assert_eq!(report.pods[0].nic_mbps_used, 10_000);
        assert_eq!(report.pods[0].vcpus_used, 8);
    }

    #[test]
    fn state_stays_consistent_with_log() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 2);
        register(&mut alloc, 2);
        link(&mut alloc, 0, 1);
        let mut live = Vec::new();
        for i in 0..20u64 {
            if let FleetResponse::Created { id, .. } = create(&mut alloc, i * 100, 20_000, 1_000) {
                live.push(id);
            }
            if i % 3 == 2 {
                if let Some(id) = live.first().copied() {
                    live.remove(0);
                    kill(&mut alloc, i * 100 + 1, id);
                }
            }
        }
        assert!(alloc.state.placed > 0);
        assert!(alloc.consistent_with_log());
    }

    #[test]
    fn compensating_kill_restores_state_and_stays_consistent_with_log() {
        // A create immediately undone by its kill is the control plane's
        // compensation idiom (the trace replayer leans on it for failed
        // placements). The kill must release every resource the create
        // took — including spilled device capacity on the *neighbor* pod —
        // and a log replay must reproduce the exact post-compensation
        // state, spill accounting included.
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        register(&mut alloc, 1);
        link(&mut alloc, 0, 1);
        // Saturate pod 0's NIC so the next create spills to pod 1.
        let base = match create(&mut alloc, 0, 90_000, 0) {
            FleetResponse::Created { id, .. } => id,
            other => panic!("unexpected {other:?}"),
        };
        let home_create = |alloc: &mut FleetAllocator, at: u64| {
            alloc
                .execute(
                    SimTime::from_nanos(at),
                    &FleetCommand::CreateInstance {
                        at,
                        vcpus: 8,
                        mem_gb: 32,
                        ssd: 0,
                        nic_mbps: 20_000,
                        home_pod: 0,
                    },
                )
                .unwrap()
        };
        let (spilled_id, pod, device_pod) = match home_create(&mut alloc, 10) {
            FleetResponse::Created {
                id,
                pod,
                device_pod,
                ..
            } => (id, pod, device_pod),
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(pod, device_pod, "the second lease must spill");
        let before_nic: Vec<u64> = alloc.state.pods.iter().map(|p| p.nic_mbps_used).collect();

        // Compensate.
        kill(&mut alloc, 1_000, spilled_id);
        let after_nic: Vec<u64> = alloc.state.pods.iter().map(|p| p.nic_mbps_used).collect();
        assert_eq!(after_nic[device_pod], before_nic[device_pod] - 20_000);
        assert!(
            alloc.state.spill_bytes[pod] > 0,
            "the spilled lease's traffic epoch was closed into its home pod"
        );
        assert!(alloc.consistent_with_log());

        // The compensated capacity is genuinely reusable: the same lease
        // fits again and lands on the same neighbor.
        match home_create(&mut alloc, 2_000) {
            FleetResponse::Created { device_pod: dp, .. } => assert_eq!(dp, device_pod),
            other => panic!("unexpected {other:?}"),
        }
        // And the original instance was untouched throughout.
        assert!(alloc.state.is_live(base));
        assert!(alloc.consistent_with_log());
    }

    fn try_migrate(
        alloc: &mut FleetAllocator,
        at: u64,
        id: u64,
        dst_pod: u32,
        path: TransferPath,
    ) -> Result<FleetResponse, FleetError> {
        let cmd = FleetCommand::MigrateInstance {
            at,
            id,
            dst_pod,
            path,
        };
        alloc.execute(SimTime::from_nanos(at), &cmd)
    }

    fn migrate(alloc: &mut FleetAllocator, at: u64, id: u64, dst: u32) -> FleetResponse {
        try_migrate(alloc, at, id, dst, TransferPath::Cxl).unwrap()
    }

    fn try_finish(
        alloc: &mut FleetAllocator,
        at: u64,
        id: u64,
        commit: bool,
    ) -> Result<FleetResponse, FleetError> {
        let cmd = FleetCommand::FinishMigration { at, id, commit };
        alloc.execute(SimTime::from_nanos(at), &cmd)
    }

    fn finish(alloc: &mut FleetAllocator, at: u64, id: u64, commit: bool) -> FleetResponse {
        try_finish(alloc, at, id, commit).unwrap()
    }

    #[test]
    fn migration_commit_rehomes_and_releases_source() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 2);
        register(&mut alloc, 2);
        link(&mut alloc, 0, 1);
        let FleetResponse::Created { id, pod, .. } = create(&mut alloc, 0, 20_000, 500) else {
            panic!("create failed");
        };
        assert_eq!(pod, 0);
        let FleetResponse::MigrationStarted {
            dst_pod, dst_host, ..
        } = migrate(&mut alloc, 100, id, 1)
        else {
            panic!("migrate refused");
        };
        assert_eq!(dst_pod, 1);
        // While the ticket is open, both pods hold the resources.
        assert_eq!(alloc.state.pods[0].nic_mbps_used, 20_000);
        assert_eq!(alloc.state.pods[1].nic_mbps_used, 20_000);
        assert_eq!(
            finish(&mut alloc, 8_000_100, id, true),
            FleetResponse::MigrationFinished {
                id,
                committed: true
            }
        );
        let inst = alloc.state.instances[id as usize].unwrap();
        assert_eq!(
            (inst.pod, inst.host, inst.device_pod),
            (1, dst_host as u32, 1)
        );
        assert_eq!(alloc.state.pods[0].nic_mbps_used, 0, "source released");
        assert_eq!(alloc.state.pods[0].host_vcpus_used, vec![0, 0]);
        assert_eq!(alloc.state.pods[1].nic_mbps_used, 20_000);
        assert_eq!(alloc.state.migrations, vec![]);
        assert_eq!(alloc.state.migrations_committed, 1);
        assert!(alloc.consistent_with_log());
    }

    #[test]
    fn migration_abort_rolls_back_target_only() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        register(&mut alloc, 1);
        link(&mut alloc, 0, 1);
        let FleetResponse::Created { id, .. } = create(&mut alloc, 0, 30_000, 0) else {
            panic!("create failed");
        };
        migrate(&mut alloc, 50, id, 1);
        assert_eq!(
            finish(&mut alloc, 60, id, false),
            FleetResponse::MigrationFinished {
                id,
                committed: false
            }
        );
        let inst = alloc.state.instances[id as usize].unwrap();
        assert_eq!(inst.pod, 0, "instance stays on the source");
        assert_eq!(alloc.state.pods[1].nic_mbps_used, 0, "target rolled back");
        assert_eq!(alloc.state.pods[1].host_vcpus_used, vec![0]);
        assert_eq!(alloc.state.migrations_aborted, 1);
        assert!(alloc.consistent_with_log());
    }

    #[test]
    fn migration_is_exactly_once() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        register(&mut alloc, 1);
        link(&mut alloc, 0, 1);
        let FleetResponse::Created { id, .. } = create(&mut alloc, 0, 10_000, 0) else {
            panic!("create failed");
        };
        // Double-start is refused while the ticket is open.
        migrate(&mut alloc, 10, id, 1);
        assert_eq!(
            try_migrate(&mut alloc, 11, id, 1, TransferPath::Nic),
            Err(FleetError::MigrationInProgress(id))
        );
        // Resize is refused mid-copy.
        assert_eq!(
            try_resize(&mut alloc, 12, id, 5_000, 0),
            Err(FleetError::MigrationInProgress(id))
        );
        finish(&mut alloc, 20, id, true);
        // Double-finish finds no ticket.
        assert_eq!(
            try_finish(&mut alloc, 21, id, false),
            Err(FleetError::NotMigrating(id))
        );
        // And the state machine itself rejects a replayed finish: apply
        // it directly, bypassing validation, like a replica replaying a
        // duplicated log suffix would.
        let before = alloc.state.clone();
        let resp = alloc.state.apply(&FleetCommand::FinishMigration {
            at: 22,
            id,
            commit: true,
        });
        assert_eq!(resp, FleetResponse::Rejected);
        assert_eq!(alloc.state, before, "replayed finish is a no-op");
    }

    #[test]
    fn kill_during_migration_releases_both_sides() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        register(&mut alloc, 1);
        link(&mut alloc, 0, 1);
        let FleetResponse::Created { id, .. } = create(&mut alloc, 0, 10_000, 200) else {
            panic!("create failed");
        };
        migrate(&mut alloc, 10, id, 1);
        kill(&mut alloc, 20, id);
        for p in 0..2 {
            assert_eq!(alloc.state.pods[p].nic_mbps_used, 0, "pod {p}");
            assert_eq!(alloc.state.pods[p].ssd_used, 0, "pod {p}");
            assert_eq!(alloc.state.pods[p].host_vcpus_used, vec![0], "pod {p}");
        }
        assert_eq!(alloc.state.migrations, vec![]);
        assert!(alloc.consistent_with_log());
    }

    #[test]
    fn migration_validation_errors() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        register(&mut alloc, 1);
        let FleetResponse::Created { id, .. } = create(&mut alloc, 0, 10_000, 0) else {
            panic!("create failed");
        };
        assert_eq!(
            try_migrate(&mut alloc, 0, 99, 1, TransferPath::Cxl),
            Err(FleetError::NoSuchInstance(99))
        );
        assert_eq!(
            try_migrate(&mut alloc, 0, id, 7, TransferPath::Cxl),
            Err(FleetError::NoSuchPod(7))
        );
        // Migrating onto the pod it already runs on is infeasible.
        assert_eq!(
            try_migrate(&mut alloc, 0, id, 0, TransferPath::Cxl),
            Err(FleetError::MigrationInfeasible { id, dst_pod: 0 })
        );
        // A saturated target is infeasible too.
        alloc.state.pods[1].nic_mbps_used = alloc.state.pods[1].nic_mbps_cap;
        assert_eq!(
            try_migrate(&mut alloc, 0, id, 1, TransferPath::Cxl),
            Err(FleetError::MigrationInfeasible { id, dst_pod: 1 })
        );
        assert_eq!(
            try_finish(&mut alloc, 0, id, true),
            Err(FleetError::NotMigrating(id))
        );
    }

    #[test]
    fn fleet_state_snapshot_roundtrips() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 2);
        register(&mut alloc, 2);
        link(&mut alloc, 0, 1);
        let FleetResponse::Created { id, .. } = create(&mut alloc, 0, 20_000, 500) else {
            panic!("create failed");
        };
        create(&mut alloc, 10, 15_000, 0);
        migrate(&mut alloc, 100, id, 1);

        let mut w = SnapshotWriter::new();
        alloc.state.snapshot_state(&mut w);
        let bytes = w.finish();

        let mut restored = FleetState::default();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, alloc.state);

        // Byte stability: re-snapshot reproduces identical bytes.
        let mut w2 = SnapshotWriter::new();
        restored.snapshot_state(&mut w2);
        assert_eq!(w2.finish(), bytes);

        // The restored state keeps functioning: the open ticket commits.
        let resp = restored.apply(&FleetCommand::FinishMigration {
            at: 200,
            id,
            commit: true,
        });
        assert_eq!(
            resp,
            FleetResponse::MigrationFinished {
                id,
                committed: true
            }
        );
    }

    #[test]
    fn checkpoint_compacts_the_log() {
        let mut src = FleetAllocator::new();
        register(&mut src, 2);
        let FleetResponse::Created { id, .. } = create(&mut src, 0, 10_000, 100) else {
            panic!("create failed");
        };
        let mut w = SnapshotWriter::new();
        src.checkpoint(&mut w);
        let bytes = w.finish();

        // Resume into a fresh allocator (empty log) and keep operating:
        // consistent_with_log must hold because the base carries the
        // pre-checkpoint history.
        let mut resumed = FleetAllocator::new();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        resumed.restore(&mut r).unwrap();
        assert_eq!(resumed.state, src.state);
        assert!(resumed.consistent_with_log());
        kill(&mut resumed, 1_000, id);
        assert!(resumed.consistent_with_log());
        assert_eq!(resumed.state.killed, 1);
    }

    #[test]
    fn corrupt_fleet_snapshot_is_a_typed_error() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        let mut w = SnapshotWriter::new();
        alloc.state.snapshot_state(&mut w);
        let mut bytes = w.finish();
        // Flip the migration-path byte region by truncating mid-stream.
        bytes.truncate(bytes.len() - 4);
        let mut restored = FleetState::default();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(restored.restore_state(&mut r).is_err());
    }

    #[test]
    fn export_covers_all_fleet_counters() {
        let mut alloc = FleetAllocator::new();
        register(&mut alloc, 1);
        create(&mut alloc, 0, 10_000, 0);
        let mut sink = MetricSink::new();
        alloc.state.export_metrics(&mut sink);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(crate::metrics::FLEET_PODS, 0), 1);
        assert_eq!(snap.counter(crate::metrics::FLEET_INSTANCES_PLACED, 0), 1);
        assert_eq!(snap.counter(crate::metrics::FLEET_POD_PLACEMENTS, 0), 1);
    }
}
