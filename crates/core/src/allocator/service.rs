//! The pod's control-plane actor: channels, telemetry, heartbeats,
//! failover and rebalancing around the replicated device books.

use oasis_channel::{Receiver, Sender};
use oasis_cxl::{CxlPool, HostCtx};
use oasis_net::addr::Ipv4Addr;
use oasis_sim::time::{SimDuration, SimTime};

use crate::config::OasisConfig;
use crate::msg::{NetMsg, NetOp};

use super::command::FleetCommand;
use super::devices::{DeviceBooks, InstanceInfo};
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

/// Control-plane actor: drives the replicated device books (a
/// [`FleetAllocator`] run with device commands) and owns the channels to
/// every frontend and backend and the failure/telemetry logic.
pub struct PodAllocator {
    /// The core the allocator service runs on.
    pub core: HostCtx,
    cfg: OasisConfig,
    machine: FleetAllocator,
    /// Telemetry per NIC id.
    telemetry: Vec<NicTelemetry>,
    /// Lease expiry per instance IP: logged at assignment, renewed by the
    /// serving NIC's telemetry (§3.5).
    lease_expiry: Vec<(Ipv4Addr, SimTime)>,
    /// (host, sender) per frontend.
    to_frontends: Vec<(usize, Sender)>,
    from_frontends: Vec<(usize, Receiver)>,
    /// (nic, receiver/sender) per backend.
    from_backends: Vec<(u32, Receiver)>,
    /// Reroute commands issued (stat).
    pub reroutes_sent: u64,
    /// Failovers executed (stat).
    pub failovers: u64,
    /// Load-rebalancing policy (§6), if enabled.
    rebalance: Option<RebalancePolicy>,
    /// Graceful migrations initiated by the rebalancer (stat).
    pub rebalance_migrations: u64,
    /// Last heartbeat receipt per frontend host, tracked lazily: a host
    /// enters the table on its first heartbeat, so deployments that never
    /// send heartbeats are never subject to detection.
    last_heartbeat: Vec<(u32, SimTime)>,
    /// Hosts declared failed since the embedding last asked
    /// ([`PodAllocator::take_failed_hosts`]).
    newly_failed_hosts: Vec<u32>,
    /// Hosts that heartbeated again after a failure, since last asked.
    newly_restarted_hosts: Vec<u32>,
    /// `(host, silent_since, detected_at)` per host-failure declaration
    /// (detection-latency distribution for the chaos report).
    pub host_failure_detections: Vec<(u32, SimTime, SimTime)>,
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

impl PodAllocator {
    /// Create the allocator around a single-replica [`FleetAllocator`]
    /// (commands commit immediately; see [`super::replicated`] for the
    /// multi-node state-machine tests).
    pub fn new(core: HostCtx, cfg: OasisConfig) -> Self {
        PodAllocator {
            core,
            cfg,
            machine: FleetAllocator::new(),
            telemetry: Vec::new(),
            lease_expiry: Vec::new(),
            to_frontends: Vec::new(),
            from_frontends: Vec::new(),
            from_backends: Vec::new(),
            reroutes_sent: 0,
            failovers: 0,
            rebalance: None,
            rebalance_migrations: 0,
            last_heartbeat: Vec::new(),
            newly_failed_hosts: Vec::new(),
            newly_restarted_hosts: Vec::new(),
            host_failure_detections: Vec::new(),
        }
    }

    /// Enable the §6 telemetry-driven load-balancing policy.
    pub fn enable_rebalancing(&mut self, policy: RebalancePolicy) {
        self.rebalance = Some(policy);
    }

    /// Wire the channel pair for a frontend on `host`.
    pub fn add_frontend(&mut self, host: usize, to: Sender, from: Receiver) {
        self.to_frontends.push((host, to));
        self.from_frontends.push((host, from));
    }

    /// Wire the receive channel from a backend for `nic`.
    pub fn add_backend(&mut self, nic: u32, from: Receiver) {
        self.from_backends.push((nic, from));
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

    /// Log a device command and apply it, recording the actor's own side
    /// of it: a registered NIC counts as heard from now, a lease runs
    /// three telemetry periods from now, and a released one is forgotten.
    pub(crate) fn execute(&mut self, cmd: &FleetCommand) {
        let now = self.core.clock;
        match *cmd {
            FleetCommand::RegisterNic { nic, .. } => {
                let idx = nic as usize;
                if self.telemetry.len() <= idx {
                    self.telemetry.resize(idx + 1, NicTelemetry::default());
                }
                self.telemetry[idx] = NicTelemetry {
                    at: now,
                    load_bytes: 0,
                };
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

    /// What NIC `nic`'s telemetry last said.
    fn heard(&self, nic: usize) -> NicTelemetry {
        self.telemetry.get(nic).copied().unwrap_or_default()
    }

    /// Extend `ip`'s lease to three telemetry periods after `now`.
    fn renew_lease(&mut self, ip: Ipv4Addr, now: SimTime) {
        // oasis-check: allow(unchecked-epoch-arithmetic) SimTime + SimDuration saturates by construction
        let expiry = now + self.cfg.telemetry_period * 3;
        match self.lease_expiry.iter_mut().find(|(l, _)| *l == ip) {
            Some(entry) => entry.1 = expiry,
            None => self.lease_expiry.push((ip, expiry)),
        }
    }

    /// Synchronous volume placement: carve `blocks` out of an SSD
    /// (local-first, then most-free) and record it through the Raft log.
    /// Returns `(ssd, base_block)`.
    pub fn place_volume(&mut self, host: usize, ip: Ipv4Addr, blocks: u32) -> Option<(u32, u32)> {
        let ssd = self.books().pick_ssd(host as u32, blocks)?;
        let base = self.books().ssds.get(ssd as usize)?.as_ref()?.next_block;
        self.execute(&FleetCommand::AssignVolume {
            ip,
            ssd,
            base_block: base,
            blocks,
        });
        Some((ssd, base))
    }

    /// Synchronous placement at instance launch: pick a NIC (local-first)
    /// and record the lease. Returns the chosen NIC.
    pub fn place_instance(&mut self, host: usize, ip: Ipv4Addr, lease_mbps: u32) -> Option<u32> {
        let nic = self.books().pick_nic(host as u32, lease_mbps)?;
        self.execute(&FleetCommand::Assign {
            ip,
            host: host as u32,
            nic,
            lease_mbps,
        });
        Some(nic)
    }

    fn fail_nic_internal(&mut self, pool: &mut CxlPool, nic: u32) {
        let nics = &self.books().nics;
        if nics
            .get(nic as usize)
            .and_then(Option::as_ref)
            .is_none_or(|n| n.failed)
        {
            return;
        }
        self.failovers += 1;
        self.execute(&FleetCommand::MarkFailed { nic });
        let Some(backup) = self.books().backup_nic() else {
            return;
        };
        // Revoke leases on the failed device and reroute every affected
        // instance to the backup (§3.5 failure management).
        for inst in self.books().instances_on(nic) {
            if self.move_lease(pool, &inst, backup, NetOp::Reroute) {
                self.reroutes_sent += 1;
            }
        }
    }

    /// Move `inst`'s lease to `nic` through the log and tell its host's
    /// frontend with `op`. True when the frontend took the message.
    fn move_lease(&mut self, pool: &mut CxlPool, inst: &InstanceInfo, nic: u32, op: NetOp) -> bool {
        self.execute(&FleetCommand::Assign {
            ip: inst.ip,
            host: inst.host,
            nic,
            lease_mbps: inst.lease_mbps,
        });
        let msg = NetMsg {
            ptr: nic as u64,
            size: 0,
            op,
            ip: inst.ip,
        };
        let host = inst.host as usize;
        let Some((_, tx)) = self.to_frontends.iter_mut().find(|(h, _)| *h == host) else {
            return false;
        };
        let sent = tx
            .try_send(&mut self.core, pool, &msg.encode())
            .unwrap_or(false);
        if sent {
            tx.flush(&mut self.core, pool);
        }
        sent
    }

    /// Record a heartbeat from `host`. A heartbeat from a host previously
    /// declared failed means it restarted: the declaration is reverted
    /// through the log and the embedding is told so it can re-admit the
    /// host's engines.
    fn note_heartbeat(&mut self, host: u32) {
        let now = self.core.clock;
        match self.last_heartbeat.iter_mut().find(|(h, _)| *h == host) {
            Some(entry) => entry.1 = now,
            None => self.last_heartbeat.push((host, now)),
        }
        if self.books().failed_hosts.contains(&host) {
            self.execute(&FleetCommand::MarkHostRestarted { host });
            self.newly_restarted_hosts.push(host);
        }
    }

    /// Declare hosts dead after three silent heartbeat periods (plus a
    /// polling-slack margin). Reclaim goes through the Raft log so every
    /// replica agrees on what was released.
    fn detect_dead_hosts(&mut self) {
        let deadline = self.cfg.heartbeat_period * 3 + self.cfg.allocator_poll * 2;
        let now = self.core.clock;
        let dead: Vec<(u32, SimTime)> = self
            .last_heartbeat
            .iter()
            // oasis-check: allow(unchecked-epoch-arithmetic) SimTime + SimDuration saturates by construction
            .filter(|&&(h, last)| now > last + deadline && !self.books().failed_hosts.contains(&h))
            .map(|&(h, last)| (h, last))
            .collect();
        for (host, last) in dead {
            self.execute(&FleetCommand::MarkHostFailed { host });
            self.host_failure_detections.push((host, last, now));
            self.newly_failed_hosts.push(host);
        }
    }

    /// Are there failure declarations the embedding has not taken yet?
    pub fn has_newly_failed_hosts(&self) -> bool {
        !self.newly_failed_hosts.is_empty()
    }

    /// Hosts declared failed since the last call (for the embedding to
    /// reclaim pool regions and stop the dead host's engines).
    pub fn take_failed_hosts(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.newly_failed_hosts)
    }

    /// Hosts that heartbeated again after a failure, since the last call.
    pub fn take_restarted_hosts(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.newly_restarted_hosts)
    }

    /// Command a graceful migration of `ip` to `nic` (§3.3.4), e.g. for
    /// load balancing.
    pub fn migrate_instance(&mut self, pool: &mut CxlPool, ip: Ipv4Addr, nic: u32) {
        if let Some(inst) = self.books().instances.iter().find(|i| i.ip == ip).cloned() {
            self.move_lease(pool, &inst, nic, NetOp::Migrate);
        }
    }

    /// One control-plane polling round. Advances the clock by the
    /// allocator's polling period (it is not a busy-polling data-path
    /// core).
    pub fn step(&mut self, pool: &mut CxlPool) {
        self.core.advance(self.cfg.allocator_poll.as_nanos());
        let mut buf = [0u8; 16];

        // Backend reports: telemetry and failures.
        let mut failed_nics = Vec::new();
        for bi in 0..self.from_backends.len() {
            loop {
                let (nic, rx) = &mut self.from_backends[bi];
                if !rx.try_recv(&mut self.core, pool, &mut buf) {
                    break;
                }
                let nic = *nic;
                let Some(msg) = NetMsg::decode(&buf) else {
                    continue;
                };
                match msg.op {
                    NetOp::LinkFailed => failed_nics.push(msg.ptr as u32),
                    NetOp::Telemetry => {
                        let now = self.core.clock;
                        if let Some(t) = self.telemetry.get_mut(nic as usize) {
                            *t = NicTelemetry {
                                at: now,
                                load_bytes: msg.ptr,
                            };
                        }
                        // Telemetry renews the leases of instances served
                        // by this device (§3.5).
                        let served: Vec<Ipv4Addr> = self
                            .books()
                            .instances
                            .iter()
                            .filter(|i| i.nic == nic)
                            .map(|i| i.ip)
                            .collect();
                        for ip in served {
                            self.renew_lease(ip, now);
                        }
                    }
                    _ => {}
                }
            }
        }
        for nic in failed_nics {
            self.fail_nic_internal(pool, nic);
        }

        // Host failures are inferred from missing telemetry (§3.5).
        let deadline = self.cfg.telemetry_period * 3 + self.cfg.allocator_poll * 2;
        let stale: Vec<u32> = self
            .books()
            .nics
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
            // oasis-check: allow(unchecked-epoch-arithmetic) SimTime + SimDuration saturates by construction
            .filter(|&(i, n)| !n.failed && self.core.clock > self.heard(i).at + deadline)
            .map(|(i, _)| i as u32)
            .collect();
        for nic in stale {
            self.fail_nic_internal(pool, nic);
        }

        // §6 load balancing: migrate an instance off the hottest NIC when
        // its telemetry load dwarfs the coldest usable NIC's.
        if let Some(mut policy) = self.rebalance.take() {
            if self.core.clock >= policy.last_migration + policy.cooldown {
                let usable: Vec<(u32, u64)> = self
                    .books()
                    .nics
                    .iter()
                    .enumerate()
                    .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
                    .filter(|(_, n)| !n.failed && !n.backup)
                    .map(|(i, _)| (i as u32, self.heard(i).load_bytes))
                    .collect();
                if let (Some(&(hot, hot_load)), Some(&(cold, cold_load))) = (
                    usable.iter().max_by_key(|&&(_, l)| l),
                    usable.iter().min_by_key(|&&(_, l)| l),
                ) {
                    #[expect(
                        clippy::float_arithmetic,
                        clippy::cast_precision_loss,
                        reason = "trigger compare on local telemetry; migration itself goes \
                                  through the log"
                    )]
                    let hot_enough = hot_load as f64 > policy.ratio * (cold_load.max(1)) as f64;
                    if hot != cold && hot_load >= policy.min_load_bytes && hot_enough {
                        // Move the instance with the largest lease first
                        // (it most likely carries the load).
                        if let Some(inst) = self
                            .books()
                            .instances_on(hot)
                            .into_iter()
                            .max_by_key(|i| i.lease_mbps)
                        {
                            let cold_ok = self
                                .books()
                                .nics
                                .get(cold as usize)
                                .and_then(Option::as_ref)
                                .is_some_and(|n| {
                                    n.allocated_mbps.saturating_add(inst.lease_mbps)
                                        <= n.capacity_mbps
                                });
                            if cold_ok {
                                self.migrate_instance(pool, inst.ip, cold);
                                self.rebalance_migrations += 1;
                                policy.last_migration = self.core.clock;
                            }
                        }
                    }
                }
            }
            self.rebalance = Some(policy);
        }

        // Frontend requests (AllocRequest over channels).
        let mut responses = Vec::new();
        for fi in 0..self.from_frontends.len() {
            loop {
                let (host, rx) = &mut self.from_frontends[fi];
                if !rx.try_recv(&mut self.core, pool, &mut buf) {
                    break;
                }
                let host = *host;
                let Some(msg) = NetMsg::decode(&buf) else {
                    continue;
                };
                match msg.op {
                    NetOp::AllocRequest => responses.push((host, msg.ip, msg.size as u32)),
                    NetOp::Heartbeat => self.note_heartbeat(msg.ptr as u32),
                    _ => {}
                }
            }
        }
        self.detect_dead_hosts();
        for (host, ip, lease) in responses {
            let nic = self.place_instance(host, ip, lease.max(1));
            let msg = NetMsg {
                ptr: nic.map(|n| n as u64).unwrap_or(u64::MAX),
                size: 0,
                op: NetOp::AllocResponse,
                ip,
            };
            if let Some((_, tx)) = self.to_frontends.iter_mut().find(|(h, _)| *h == host) {
                let _ = tx.try_send(&mut self.core, pool, &msg.encode());
                tx.flush(&mut self.core, pool);
            }
        }

        // Publish consumed counters so producers can reuse slots.
        for (_, rx) in &mut self.from_backends {
            rx.publish_consumed(&mut self.core, pool);
        }
        for (_, rx) in &mut self.from_frontends {
            rx.publish_consumed(&mut self.core, pool);
        }
    }
}

impl crate::snapshot::Snapshottable for PodAllocator {
    /// Serializes the device books with the actor's telemetry and lease
    /// expiries interleaved, plus the failure detector's working set. The
    /// Raft log itself is *not* serialized: the pod runs a single-replica
    /// group where every command commits immediately, so the applied books
    /// are authoritative. A restore makes them the compaction point: the
    /// node keeps its own log, and only entries committed after the
    /// restore replay on top.
    fn snapshot_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        self.books().write(
            w,
            |w, nic| {
                let t = self.heard(nic);
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
        w.put_list(&self.newly_failed_hosts, |w, &h| w.put_u32(h));
        w.put_list(&self.newly_restarted_hosts, |w, &h| w.put_u32(h));
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

    fn restore_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{SnapshotError, SnapshotReader};
        self.core.clock = SimTime(r.u64("alloc clock")?);
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
        self.newly_failed_hosts = r.list("alloc newly-failed hosts", host)?;
        self.newly_restarted_hosts = r.list("alloc newly-restarted hosts", host)?;
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
    use oasis_cxl::pool::PortId;

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
        let core = HostCtx::new(PortId(0), 0);
        let mut alloc = PodAllocator::new(core, OasisConfig::default());
        alloc.execute(&FleetCommand::RegisterNic {
            nic: 0,
            host: 0,
            capacity_mbps: 100_000,
            backup: false,
        });
        let nic = alloc.place_instance(0, Ipv4Addr::instance(1), 5_000);
        assert_eq!(nic, Some(0));
        assert_eq!(alloc.books().instances.len(), 1);
        assert_eq!(
            alloc.books().nics[0].as_ref().unwrap().allocated_mbps,
            5_000
        );
        assert!(alloc.consistent_with_log());
    }
}
