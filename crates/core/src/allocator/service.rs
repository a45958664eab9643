//! The pod's control decisions: a pure machine, [`ControlActor`], whose
//! one entry point takes an input and returns effects. The pod's shell
//! ([`crate::pod::PodAllocator`]) turns channel traffic into its inputs
//! and carries out its effects.

use oasis_net::addr::Ipv4Addr;
use oasis_sim::time::{SimDuration, SimTime};

use crate::config::OasisConfig;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};

use super::command::FleetCommand;
use super::devices::{present, DeviceBooks, InstanceInfo, NicInfo};
use super::fleet::{FleetAllocator, FleetState};

/// What a NIC's telemetry last said, as the control actor heard it. The
/// actor's own: the replicated books never read a clock.
#[derive(Clone, Copy, Debug, Default)]
struct NicTelemetry {
    /// Receipt time of the last record (registration counts as one).
    at: SimTime,
    /// Bytes moved in the last telemetry window (load signal).
    load_bytes: u64,
}

/// One stimulus for the [`ControlActor`]. Each is stamped with the time
/// the shell handled it ([`ControlActor::process`]'s `now`).
#[derive(Clone, Copy, Debug)]
pub enum ControlInput {
    /// NIC `nic`'s backend moved `load_bytes` in its last telemetry window.
    Telemetry { nic: u32, load_bytes: u64 },
    /// A backend reported NIC `nic`'s link down.
    LinkFailed { nic: u32 },
    /// Host `host`'s frontend is alive.
    Heartbeat { host: u32 },
    /// A periodic check of a polling round.
    Tick(Check),
    /// The frontend took `order`, which went out at `sent_at`: the lease
    /// moves, and runs from `sent_at`.
    Accepted { order: Order, sent_at: SimTime },
    /// Operator: gracefully migrate instance `ip` to NIC `nic` (§3.3.4),
    /// if `nic` is registered, healthy and has room.
    Migrate { ip: Ipv4Addr, nic: u32 },
    /// Operator: NIC `nic` is usable for placements again.
    MarkNicRepaired { nic: u32 },
    /// Place new instance `ip` on `host` with a `lease_mbps` NIC lease.
    Launch {
        host: u32,
        ip: Ipv4Addr,
        lease_mbps: u32,
    },
    /// Carve `blocks` of SSD for instance `ip` on `host`.
    CreateVolume {
        host: u32,
        ip: Ipv4Addr,
        blocks: u32,
    },
    /// Instance `ip` is gone: release its lease and volumes.
    Terminate { ip: Ipv4Addr },
}

/// The checks of a polling round, in the order the shell runs them.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// Reroute instances stranded on a failed NIC by a refused order, then
    /// fail NICs whose telemetry went silent (§3.5).
    Nics,
    /// §6 load balancing.
    Rebalance,
    /// Declare hosts whose heartbeats went silent failed.
    Hosts,
}

/// A lease move the actor orders a host's frontend to make. It is logged
/// only once the frontend takes it ([`ControlInput::Accepted`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Order {
    /// The instance's host, whose frontend is told.
    pub host: u32,
    /// The instance.
    pub ip: Ipv4Addr,
    /// Its lease, Mbit/s.
    pub lease_mbps: u32,
    /// The NIC it moves to.
    pub nic: u32,
    /// Why it moves.
    pub kind: OrderKind,
}

/// Why an instance moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderKind {
    /// Failover to the backup NIC (§3.3.3).
    Reroute,
    /// The operator's migration.
    Migrate,
    /// The rebalancer's migration (§6).
    Rebalance,
}

impl Order {
    /// Order `inst` to NIC `nic`.
    fn new(inst: &InstanceInfo, nic: u32, kind: OrderKind) -> Self {
        let (host, ip, lease_mbps) = (inst.host, inst.ip, inst.lease_mbps);
        Order {
            host,
            ip,
            lease_mbps,
            nic,
            kind,
        }
    }
}

/// Where a placement input landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placed {
    /// [`ControlInput::Launch`]: the serving NIC.
    Nic(u32),
    /// [`ControlInput::CreateVolume`]: the SSD and the volume's first
    /// block.
    Volume { ssd: u32, base_block: u32 },
}

/// What one decision asks of the world.
#[derive(Debug, Default)]
pub struct ControlEffects {
    /// Orders to send, in order.
    pub orders: Vec<Order>,
    /// Hosts just declared failed: the embedding reclaims their pool
    /// regions and stops their engines.
    pub failed_hosts: Vec<u32>,
    /// The answer to a placement input (`None` when nothing fits).
    pub placed: Option<Placed>,
}

/// The §6 load-balancing policy: when one NIC's telemetry load exceeds the
/// least-loaded NIC's by `ratio`, gracefully migrate one of its instances
/// there. A cooldown bounds the migration rate so bursty traffic cannot
/// cause flapping.
#[derive(Clone, Debug)]
pub struct RebalancePolicy {
    /// Hot/cold load ratio that triggers a migration.
    pub ratio: f64,
    /// Minimum hot-NIC load (bytes per telemetry window) before the policy
    /// acts at all.
    pub min_load_bytes: u64,
    /// Minimum time between migrations.
    pub cooldown: SimDuration,
    last_migration: SimTime,
}

impl RebalancePolicy {
    /// Policy with the given trigger ratio and cooldown.
    pub fn new(ratio: f64, min_load_bytes: u64, cooldown: SimDuration) -> Self {
        RebalancePolicy {
            ratio,
            min_load_bytes,
            cooldown,
            last_migration: SimTime::ZERO,
        }
    }
}

/// The pod's control decisions (§3.5, §6): the replicated device books (a
/// [`FleetAllocator`] run with device commands), the telemetry, heartbeats
/// and leases it has heard, and every decision taken on them. It holds no
/// channel, pool or clock: [`process`](Self::process) is its one decision
/// method, so it can be driven without a pod.
#[derive(Clone, Default)]
pub struct ControlActor {
    cfg: OasisConfig,
    machine: FleetAllocator,
    /// Telemetry per NIC id.
    telemetry: Vec<NicTelemetry>,
    /// Lease expiry per instance IP: logged at assignment, renewed by the
    /// serving NIC's telemetry (§3.5).
    lease_expiry: Vec<(Ipv4Addr, SimTime)>,
    /// Last heartbeat receipt per frontend host, tracked lazily: a host
    /// enters the table on its first heartbeat, so deployments that never
    /// send heartbeats are never subject to detection.
    last_heartbeat: Vec<(u32, SimTime)>,
    /// Load-rebalancing policy (§6), if enabled.
    rebalance: Option<RebalancePolicy>,
    /// Reroutes the frontends took (stat).
    pub reroutes_sent: u64,
    /// Failovers executed (stat).
    pub failovers: u64,
    /// Rebalancer migrations the frontends took (stat).
    pub rebalance_migrations: u64,
    /// `(host, silent_since, detected_at)` per host-failure declaration
    /// (detection-latency distribution for the chaos report).
    pub host_failure_detections: Vec<(u32, SimTime, SimTime)>,
}

impl ControlActor {
    /// An actor with empty books around a single-replica
    /// [`FleetAllocator`] (commands commit immediately; see
    /// [`super::replicated`] for the multi-node state-machine tests).
    pub fn new(cfg: OasisConfig) -> Self {
        ControlActor {
            cfg,
            ..Default::default()
        }
    }

    /// Enable the §6 telemetry-driven load-balancing policy.
    pub fn enable_rebalancing(&mut self, policy: RebalancePolicy) {
        self.rebalance = Some(policy);
    }

    /// The replicated device books.
    pub fn books(&self) -> &DeviceBooks {
        &self.machine.state.devices
    }

    /// The books' "consistent with the log" invariant
    /// ([`FleetAllocator::consistent_with_log`]).
    pub fn consistent_with_log(&self) -> bool {
        self.machine.consistent_with_log()
    }

    /// The commands logged since the compaction point
    /// ([`FleetAllocator::committed`]).
    pub fn log(&self) -> impl Iterator<Item = FleetCommand> + '_ {
        self.machine.committed()
    }

    /// Decide on `input`, received at `now`: log what it changes and say
    /// what the world must do about it.
    pub fn process(&mut self, now: SimTime, input: ControlInput) -> ControlEffects {
        let mut fx = ControlEffects::default();
        match input {
            ControlInput::Telemetry { nic, load_bytes } => self.heard(now, nic, load_bytes),
            ControlInput::LinkFailed { nic } => self.fail_nic(now, nic, &mut fx),
            ControlInput::Heartbeat { host } => self.note_heartbeat(now, host),
            ControlInput::Tick(Check::Nics) => {
                // An instance on a failed NIC had its reroute refused, or
                // the backup had no room for it.
                let stranded = self.books().instances.iter();
                let stranded = stranded.filter(|i| self.nic(i.nic).is_some_and(|n| n.failed));
                self.reroute(stranded, &mut fx);
                for nic in self.silent_nics(now) {
                    self.fail_nic(now, nic, &mut fx);
                }
            }
            ControlInput::Tick(Check::Rebalance) => fx.orders.extend(self.rebalance(now)),
            ControlInput::Tick(Check::Hosts) => fx.failed_hosts = self.detect_dead_hosts(now),
            ControlInput::Accepted { order, sent_at } => self.accepted(now, order, sent_at),
            ControlInput::Migrate { ip, nic } => {
                let inst = self.books().instances.iter().find(|i| i.ip == ip);
                if let Some(inst) = inst.filter(|i| self.fits(nic, i.lease_mbps)) {
                    fx.orders.push(Order::new(inst, nic, OrderKind::Migrate));
                }
            }
            ControlInput::MarkNicRepaired { nic } => {
                self.execute(now, &FleetCommand::MarkRepaired { nic });
            }
            ControlInput::Launch {
                host,
                ip,
                lease_mbps,
            } => {
                let nic = self.books().pick_nic(host, lease_mbps);
                if let Some(nic) = nic {
                    self.execute(
                        now,
                        &FleetCommand::Assign {
                            ip,
                            host,
                            nic,
                            lease_mbps,
                        },
                    );
                }
                fx.placed = nic.map(Placed::Nic);
            }
            ControlInput::CreateVolume { host, ip, blocks } => {
                let books = self.books();
                let ssd = books.pick_ssd(host, blocks);
                let base_block =
                    ssd.and_then(|s| Some(books.ssds.get(s as usize)?.as_ref()?.next_block));
                if let (Some(ssd), Some(base_block)) = (ssd, base_block) {
                    self.execute(
                        now,
                        &FleetCommand::AssignVolume {
                            ip,
                            ssd,
                            base_block,
                            blocks,
                        },
                    );
                    fx.placed = Some(Placed::Volume { ssd, base_block });
                }
            }
            ControlInput::Terminate { ip } => {
                self.execute(now, &FleetCommand::Unassign { ip });
                self.execute(now, &FleetCommand::ReleaseVolumes { ip });
            }
        }
        fx
    }

    /// Log a device command and apply it, recording the actor's own side
    /// of it: a registered NIC counts as heard from now, a lease runs
    /// three telemetry periods from now, and a released one is forgotten.
    /// Outside [`process`](Self::process) only the pod's builder calls it,
    /// to register devices.
    pub(crate) fn execute(&mut self, now: SimTime, cmd: &FleetCommand) {
        match *cmd {
            FleetCommand::RegisterNic { nic, .. } => {
                let len = self.telemetry.len().max(nic as usize + 1);
                self.telemetry.resize(len, NicTelemetry::default());
                self.heard(now, nic, 0);
            }
            FleetCommand::Assign { ip, .. } => self.renew_lease(ip, now),
            FleetCommand::Unassign { ip } => self.lease_expiry.retain(|&(l, _)| l != ip),
            _ => {}
        }
        #[expect(
            clippy::expect_used,
            reason = "single-node Raft group: only a non-leader refuses a command, and none \
                      exists here"
        )]
        self.machine
            .execute(now, cmd)
            .expect("single-node allocator group is always leader");
    }

    /// NIC `nic`, if registered.
    fn nic(&self, nic: u32) -> Option<&NicInfo> {
        self.books().nics.get(nic as usize)?.as_ref()
    }

    /// Is NIC `nic` registered, healthy, and with room for `lease_mbps`?
    fn fits(&self, nic: u32, lease_mbps: u32) -> bool {
        self.nic(nic).is_some_and(|n| {
            !n.failed && n.allocated_mbps.saturating_add(lease_mbps) <= n.capacity_mbps
        })
    }

    /// What NIC `nic`'s telemetry last said.
    fn heard_from(&self, nic: usize) -> NicTelemetry {
        self.telemetry.get(nic).copied().unwrap_or_default()
    }

    /// Take NIC `nic`'s telemetry record; it renews the leases of the
    /// instances the NIC serves (§3.5).
    fn heard(&mut self, now: SimTime, nic: u32, load_bytes: u64) {
        if let Some(t) = self.telemetry.get_mut(nic as usize) {
            *t = NicTelemetry {
                at: now,
                load_bytes,
            };
        }
        for inst in self.books().instances_on(nic) {
            self.renew_lease(inst.ip, now);
        }
    }

    /// Extend `ip`'s lease to three telemetry periods after `now`.
    fn renew_lease(&mut self, ip: Ipv4Addr, now: SimTime) {
        // oasis-check: allow(unchecked-epoch-arithmetic) an instant, not a deadline check: SimTime + SimDuration saturates by construction
        let expiry = now + self.cfg.telemetry_period * 3;
        match self.lease_expiry.iter_mut().find(|(l, _)| *l == ip) {
            Some(entry) => entry.1 = expiry,
            None => self.lease_expiry.push((ip, expiry)),
        }
    }

    /// Fail NIC `nic` over: mark it failed and order the instances it
    /// serves to the backup (§3.5 failure management), as many as it has
    /// room for. A NIC that is unknown or already failed changes nothing.
    fn fail_nic(&mut self, now: SimTime, nic: u32, fx: &mut ControlEffects) {
        if self.nic(nic).is_none_or(|n| n.failed) {
            return;
        }
        self.failovers += 1;
        self.execute(now, &FleetCommand::MarkFailed { nic });
        let moves = self.books().instances_on(nic);
        self.reroute(moves.iter(), fx);
    }

    /// Order `stranded` to the backup NIC, in turn, each only if its lease
    /// fits beside what the backup holds and every order to it already in
    /// `fx` (one NIC check may fail several NICs over, and the books move
    /// only once the orders are accepted). The rest stay on their failed
    /// NIC; the next NIC check retries them once room appears.
    fn reroute<'a>(
        &self,
        stranded: impl Iterator<Item = &'a InstanceInfo>,
        fx: &mut ControlEffects,
    ) {
        let Some(backup) = self.books().backup_nic() else {
            return;
        };
        let to_backup = fx.orders.iter().filter(|o| o.nic == backup);
        let mut ordered = to_backup.fold(0u32, |sum, o| sum.saturating_add(o.lease_mbps));
        for inst in stranded {
            let total = ordered.saturating_add(inst.lease_mbps);
            if self.fits(backup, total) {
                ordered = total;
                fx.orders.push(Order::new(inst, backup, OrderKind::Reroute));
            }
        }
    }

    /// Healthy NICs whose telemetry has been silent past the deadline:
    /// host failures are inferred from missing telemetry (§3.5).
    fn silent_nics(&self, now: SimTime) -> Vec<u32> {
        let deadline = self.cfg.telemetry_period * 3 + self.cfg.allocator_poll * 2;
        present(&self.books().nics)
            .filter(|&(i, n)| !n.failed && now.since(self.heard_from(i).at) > deadline)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// §6 load balancing: migrate an instance off the hottest NIC when its
    /// telemetry load dwarfs the coldest usable NIC's.
    fn rebalance(&self, now: SimTime) -> Option<Order> {
        let policy = self.rebalance.as_ref()?;
        if now.since(policy.last_migration) < policy.cooldown {
            return None;
        }
        let usable: Vec<(u32, u64)> = present(&self.books().nics)
            .filter(|(_, n)| !n.failed && !n.backup)
            .map(|(i, _)| (i as u32, self.heard_from(i).load_bytes))
            .collect();
        let &(hot, hot_load) = usable.iter().max_by_key(|&&(_, l)| l)?;
        let &(cold, cold_load) = usable.iter().min_by_key(|&&(_, l)| l)?;
        #[expect(
            clippy::float_arithmetic,
            clippy::cast_precision_loss,
            reason = "trigger compare on local telemetry; migration itself goes through the log"
        )]
        let hot_enough = hot_load as f64 > policy.ratio * (cold_load.max(1)) as f64;
        if hot == cold || hot_load < policy.min_load_bytes || !hot_enough {
            return None;
        }
        // Move the instance with the largest lease first (it most likely
        // carries the load).
        let moves = self.books().instances_on(hot);
        let inst = moves.iter().max_by_key(|i| i.lease_mbps)?;
        let fits = self.fits(cold, inst.lease_mbps);
        fits.then(|| Order::new(inst, cold, OrderKind::Rebalance))
    }

    /// The frontend took `order`: log the lease move, running from when
    /// the order went out, and count it; a rebalancer migration restarts
    /// the cooldown now.
    fn accepted(&mut self, now: SimTime, order: Order, sent_at: SimTime) {
        let (ip, host, nic, lease_mbps) = (order.ip, order.host, order.nic, order.lease_mbps);
        self.execute(
            sent_at,
            &FleetCommand::Assign {
                ip,
                host,
                nic,
                lease_mbps,
            },
        );
        match order.kind {
            OrderKind::Reroute => self.reroutes_sent += 1,
            OrderKind::Migrate => {}
            OrderKind::Rebalance => {
                self.rebalance_migrations += 1;
                if let Some(policy) = &mut self.rebalance {
                    policy.last_migration = now;
                }
            }
        }
    }

    /// Record a heartbeat from `host`. A heartbeat from a host previously
    /// declared failed means it restarted: the declaration is reverted
    /// through the log.
    fn note_heartbeat(&mut self, now: SimTime, host: u32) {
        match self.last_heartbeat.iter_mut().find(|(h, _)| *h == host) {
            Some(entry) => entry.1 = now,
            None => self.last_heartbeat.push((host, now)),
        }
        if self.books().failed_hosts.contains(&host) {
            self.execute(now, &FleetCommand::MarkHostRestarted { host });
        }
    }

    /// Declare hosts dead after three silent heartbeat periods (plus a
    /// polling-slack margin). Reclaim goes through the Raft log so every
    /// replica agrees on what was released.
    fn detect_dead_hosts(&mut self, now: SimTime) -> Vec<u32> {
        let deadline = self.cfg.heartbeat_period * 3 + self.cfg.allocator_poll * 2;
        let failed = &self.books().failed_hosts;
        let dead: Vec<(u32, SimTime)> = self
            .last_heartbeat
            .iter()
            .filter(|&&(h, last)| now.since(last) > deadline && !failed.contains(&h))
            .copied()
            .collect();
        for &(host, last) in &dead {
            self.execute(now, &FleetCommand::MarkHostFailed { host });
            self.host_failure_detections.push((host, last, now));
        }
        dead.into_iter().map(|(host, _)| host).collect()
    }
}

impl Snapshottable for ControlActor {
    /// Serializes the device books with the actor's telemetry and lease
    /// expiries interleaved, plus the failure detector's working set. The
    /// Raft log itself is *not* serialized: the pod runs a single-replica
    /// group where every command commits immediately, so the applied books
    /// are authoritative. A restore makes them the compaction point: the
    /// node keeps its own log, and only entries committed after the
    /// restore replay on top.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        self.books().write(
            w,
            |w, nic| {
                let t = self.heard_from(nic);
                w.put_u64(t.at.as_nanos());
                w.put_u64(t.load_bytes);
            },
            |w, ip| {
                let expiry = self.lease_expiry.iter().find(|(l, _)| *l == ip);
                w.put_u64(expiry.map_or(0, |&(_, at)| at.as_nanos()));
            },
        );
        w.put_u64(self.reroutes_sent);
        w.put_u64(self.failovers);
        w.put_u64(self.rebalance_migrations);
        w.put_list(&self.last_heartbeat, |w, &(host, at)| {
            w.put_u32(host);
            w.put_u64(at.as_nanos());
        });
        // Two retired host lists (failed and restarted hosts not yet taken
        // by the embedding) keep their slots, written empty.
        w.put_list::<u32>(&[], |_, _| {});
        w.put_list::<u32>(&[], |_, _| {});
        w.put_list(&self.host_failure_detections, |w, &(host, since, at)| {
            w.put_u32(host);
            w.put_u64(since.as_nanos());
            w.put_u64(at.as_nanos());
        });
        // Rebalance policy: knobs are construction-time config; only the
        // cooldown cursor mutates.
        w.put_bool(self.rebalance.is_some());
        if let Some(p) = &self.rebalance {
            w.put_u64(p.last_migration.as_nanos());
        }
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let mut telemetry = Vec::new();
        let mut lease_expiry = Vec::new();
        let books = DeviceBooks::read(
            r,
            |r, nic| {
                telemetry.resize(nic + 1, NicTelemetry::default());
                telemetry[nic] = NicTelemetry {
                    at: SimTime(r.u64("alloc nic telemetry")?),
                    load_bytes: r.u64("alloc nic load")?,
                };
                Ok(())
            },
            |r, ip| {
                lease_expiry.push((ip, SimTime(r.u64("alloc instance expiry")?)));
                Ok(())
            },
        )?;
        self.reroutes_sent = r.u64("alloc reroutes")?;
        self.failovers = r.u64("alloc failovers")?;
        self.rebalance_migrations = r.u64("alloc rebalance migrations")?;
        self.last_heartbeat = r.list("alloc heartbeat", |r| {
            Ok((
                r.u32("alloc heartbeat host")?,
                SimTime(r.u64("alloc heartbeat time")?),
            ))
        })?;
        let host = |r: &mut SnapshotReader<'_>| r.u32("alloc host");
        r.list("alloc newly-failed hosts", host)?;
        r.list("alloc newly-restarted hosts", host)?;
        self.host_failure_detections = r.list("alloc detection", |r| {
            let host = r.u32("alloc detection host")?;
            let since = SimTime(r.u64("alloc detection since")?);
            Ok((host, since, SimTime(r.u64("alloc detection at")?)))
        })?;
        let has_policy = r.bool("alloc rebalance present")?;
        if has_policy != self.rebalance.is_some() {
            return Err(SnapshotError::Corrupt("alloc rebalance presence"));
        }
        if let Some(p) = &mut self.rebalance {
            p.last_migration = SimTime(r.u64("alloc rebalance cursor")?);
        }
        self.telemetry = telemetry;
        self.lease_expiry = lease_expiry;
        let mut state = FleetState::default();
        state.devices = books;
        self.machine.install(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_nics() -> FleetState {
        let mut s = FleetState::default();
        for (nic, host, backup) in [(0u32, 0u32, false), (1, 1, false), (2, 2, true)] {
            s.apply(&FleetCommand::RegisterNic {
                nic,
                host,
                capacity_mbps: 100_000,
                backup,
            });
        }
        s
    }

    fn assign(s: &mut FleetState, i: u32, nic: u32, lease_mbps: u32) {
        s.apply(&FleetCommand::Assign {
            ip: Ipv4Addr::instance(i),
            host: 0,
            nic,
            lease_mbps,
        });
    }

    #[test]
    fn local_first_placement() {
        let s = state_with_nics();
        assert_eq!(s.devices.pick_nic(0, 10_000), Some(0));
        assert_eq!(s.devices.pick_nic(1, 10_000), Some(1));
    }

    #[test]
    fn remote_least_loaded_when_no_local() {
        let mut s = state_with_nics();
        // Host 3 has no NIC; nic 0 is loaded, nic 1 free.
        assign(&mut s, 1, 0, 50_000);
        assert_eq!(s.devices.pick_nic(3, 10_000), Some(1));
    }

    #[test]
    fn backup_excluded_from_remote_placement() {
        let mut s = state_with_nics();
        // Fill both non-backup NICs.
        assign(&mut s, 1, 0, 100_000);
        assign(&mut s, 2, 1, 100_000);
        // Remote host cannot land on the backup.
        assert_eq!(s.devices.pick_nic(3, 10_000), None);
        // But the backup's own host can use it node-locally (§3.3.3).
        assert_eq!(s.devices.pick_nic(2, 10_000), Some(2));
    }

    #[test]
    fn capacity_respected() {
        let mut s = state_with_nics();
        assign(&mut s, 1, 0, 95_000);
        // nic0 can't take 10G more; falls to nic1 even for host 0.
        assert_eq!(s.devices.pick_nic(0, 10_000), Some(1));
    }

    #[test]
    fn failed_nic_skipped_and_leases_revoked() {
        let mut s = state_with_nics();
        assign(&mut s, 1, 0, 10_000);
        s.apply(&FleetCommand::MarkFailed { nic: 0 });
        assert_ne!(s.devices.pick_nic(0, 10_000), Some(0));
        // Reassign revokes the old lease.
        assign(&mut s, 1, 1, 10_000);
        assert_eq!(s.devices.nics[0].as_ref().unwrap().allocated_mbps, 0);
        assert_eq!(s.devices.nics[1].as_ref().unwrap().allocated_mbps, 10_000);
        assert_eq!(s.devices.instances_on(1).len(), 1);
    }

    #[test]
    fn allocator_places_via_raft_log() {
        let mut actor = ControlActor::new(OasisConfig::default());
        actor.execute(
            SimTime::ZERO,
            &FleetCommand::RegisterNic {
                nic: 0,
                host: 0,
                capacity_mbps: 100_000,
                backup: false,
            },
        );
        let launch = ControlInput::Launch {
            host: 0,
            ip: Ipv4Addr::instance(1),
            lease_mbps: 5_000,
        };
        let fx = actor.process(SimTime::ZERO, launch);
        assert_eq!(fx.placed, Some(Placed::Nic(0)));
        assert_eq!(actor.books().instances.len(), 1);
        assert_eq!(
            actor.books().nics[0].as_ref().unwrap().allocated_mbps,
            5_000
        );
        assert!(actor.consistent_with_log());
    }
}
