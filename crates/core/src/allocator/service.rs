//! The allocator service: state machine + control-plane actor.

use oasis_channel::{Receiver, Sender};
use oasis_cxl::{CxlPool, HostCtx};
use oasis_net::addr::Ipv4Addr;
use oasis_raft::{RaftConfig, RaftNode};
use oasis_sim::time::{SimDuration, SimTime};

use crate::config::OasisConfig;
use crate::msg::{NetMsg, NetOp};

use super::command::AllocCommand;

/// A NIC known to the allocator.
#[derive(Clone, Debug)]
pub struct NicInfo {
    /// Host the NIC is attached to.
    pub host: u32,
    /// Allocatable bandwidth, Mbit/s.
    pub capacity_mbps: u32,
    /// Currently leased bandwidth, Mbit/s.
    pub allocated_mbps: u32,
    /// Reserved as the pod's failover backup.
    pub backup: bool,
    /// Marked failed.
    pub failed: bool,
    /// Last telemetry receipt (allocator clock).
    pub last_telemetry: SimTime,
    /// Bytes moved in the last telemetry window (load signal).
    pub recent_load_bytes: u64,
}

/// An instance known to the allocator.
#[derive(Clone, Debug)]
pub struct InstanceInfo {
    /// Instance IP.
    pub ip: Ipv4Addr,
    /// Instance host.
    pub host: u32,
    /// Serving NIC.
    pub nic: u32,
    /// Leased bandwidth, Mbit/s.
    pub lease_mbps: u32,
    /// Lease expiry (renewed by the serving NIC's telemetry).
    pub lease_expiry: SimTime,
}

/// An SSD known to the allocator.
#[derive(Clone, Debug)]
pub struct SsdInfo {
    /// Host the SSD is attached to.
    pub host: u32,
    /// Allocatable capacity in blocks.
    pub capacity_blocks: u32,
    /// Next unallocated block (volumes are carved bump-style; released
    /// capacity is reclaimed only when the SSD drains, like real
    /// ephemeral-store slabs).
    pub next_block: u32,
    /// Blocks currently leased.
    pub allocated_blocks: u32,
}

/// A compute-offload accelerator known to the allocator.
#[derive(Clone, Debug)]
pub struct AccelInfo {
    /// Host the accelerator is attached to.
    pub host: u32,
}

/// A block volume carved for an instance (§3.4: local NVMe is ephemeral).
#[derive(Clone, Debug)]
pub struct VolumeInfo {
    /// Owning instance IP.
    pub ip: Ipv4Addr,
    /// SSD the volume lives on.
    pub ssd: u32,
    /// First block.
    pub base_block: u32,
    /// Length in blocks.
    pub blocks: u32,
}

/// The replicated allocator state (the Raft state machine).
#[derive(Clone, Debug, Default)]
pub struct AllocState {
    /// NICs by id.
    pub nics: Vec<Option<NicInfo>>,
    /// Instances.
    pub instances: Vec<InstanceInfo>,
    /// SSDs by id.
    pub ssds: Vec<Option<SsdInfo>>,
    /// Accelerators by id.
    pub accels: Vec<Option<AccelInfo>>,
    /// Volumes.
    pub volumes: Vec<VolumeInfo>,
    /// Hosts currently declared dead (ISSUE 2), sorted ascending.
    pub failed_hosts: Vec<u32>,
}

impl AllocState {
    /// Apply a committed command.
    pub fn apply(&mut self, now: SimTime, lease_ttl: SimDuration, cmd: &AllocCommand) {
        match *cmd {
            AllocCommand::RegisterNic {
                nic,
                host,
                capacity_mbps,
                backup,
            } => {
                let idx = nic as usize;
                if self.nics.len() <= idx {
                    self.nics.resize_with(idx + 1, || None);
                }
                self.nics[idx] = Some(NicInfo {
                    host,
                    capacity_mbps,
                    allocated_mbps: 0,
                    backup,
                    failed: false,
                    last_telemetry: now,
                    recent_load_bytes: 0,
                });
            }
            AllocCommand::Assign {
                ip,
                host,
                nic,
                lease_mbps,
            } => {
                // Release any previous assignment first.
                self.release(ip);
                if let Some(Some(n)) = self.nics.get_mut(nic as usize) {
                    n.allocated_mbps = n.allocated_mbps.saturating_add(lease_mbps);
                }
                self.instances.push(InstanceInfo {
                    ip,
                    host,
                    nic,
                    lease_mbps,
                    // oasis-check: allow(unchecked-epoch-arithmetic) SimTime + SimDuration saturates by construction
                    lease_expiry: now + lease_ttl,
                });
            }
            AllocCommand::Unassign { ip } => {
                self.release(ip);
            }
            AllocCommand::MarkFailed { nic } => {
                if let Some(Some(n)) = self.nics.get_mut(nic as usize) {
                    n.failed = true;
                }
            }
            AllocCommand::MarkRepaired { nic } => {
                if let Some(Some(n)) = self.nics.get_mut(nic as usize) {
                    n.failed = false;
                }
            }
            AllocCommand::RegisterSsd {
                ssd,
                host,
                capacity_blocks,
            } => {
                let idx = ssd as usize;
                if self.ssds.len() <= idx {
                    self.ssds.resize_with(idx + 1, || None);
                }
                self.ssds[idx] = Some(SsdInfo {
                    host,
                    capacity_blocks,
                    next_block: 0,
                    allocated_blocks: 0,
                });
            }
            AllocCommand::AssignVolume {
                ip,
                ssd,
                base_block,
                blocks,
            } => {
                if let Some(Some(s)) = self.ssds.get_mut(ssd as usize) {
                    s.next_block = s.next_block.max(base_block + blocks);
                    s.allocated_blocks += blocks;
                }
                self.volumes.push(VolumeInfo {
                    ip,
                    ssd,
                    base_block,
                    blocks,
                });
            }
            AllocCommand::ReleaseVolumes { ip } => {
                self.release_volumes(ip);
            }
            AllocCommand::MarkHostFailed { host } => {
                if let Err(at) = self.failed_hosts.binary_search(&host) {
                    self.failed_hosts.insert(at, host);
                }
                // Everything the dead host's instances held goes back to
                // the pool of allocatable resources: NIC leases and
                // volumes. Nothing may leak while the host is down.
                let dead: Vec<Ipv4Addr> = self
                    .instances
                    .iter()
                    .filter(|i| i.host == host)
                    .map(|i| i.ip)
                    .collect();
                for ip in dead {
                    self.release(ip);
                    self.release_volumes(ip);
                }
            }
            AllocCommand::MarkHostRestarted { host } => {
                if let Ok(at) = self.failed_hosts.binary_search(&host) {
                    self.failed_hosts.remove(at);
                }
            }
            AllocCommand::RegisterAccel { accel, host } => {
                let idx = accel as usize;
                if self.accels.len() <= idx {
                    self.accels.resize_with(idx + 1, || None);
                }
                self.accels[idx] = Some(AccelInfo { host });
            }
        }
    }

    fn release_volumes(&mut self, ip: Ipv4Addr) {
        let mut freed: Vec<(u32, u32)> = Vec::new();
        self.volumes.retain(|v| {
            if v.ip == ip {
                freed.push((v.ssd, v.blocks));
                false
            } else {
                true
            }
        });
        for (ssd, blocks) in freed {
            if let Some(Some(s)) = self.ssds.get_mut(ssd as usize) {
                s.allocated_blocks = s.allocated_blocks.saturating_sub(blocks);
                if s.allocated_blocks == 0 {
                    s.next_block = 0;
                }
            }
        }
    }

    fn release(&mut self, ip: Ipv4Addr) {
        if let Some(pos) = self.instances.iter().position(|i| i.ip == ip) {
            let inst = self.instances.remove(pos);
            if let Some(Some(n)) = self.nics.get_mut(inst.nic as usize) {
                n.allocated_mbps = n.allocated_mbps.saturating_sub(inst.lease_mbps);
            }
        }
    }

    /// Local-first, then least-loaded placement (§3.5). Backup NICs are
    /// kept underutilized: only instances local to the backup's host use it
    /// (§3.3.3).
    pub fn pick_nic(&self, host: u32, lease_mbps: u32) -> Option<u32> {
        let usable = |id: usize, n: &NicInfo, local: bool| {
            !n.failed
                && n.allocated_mbps.saturating_add(lease_mbps) <= n.capacity_mbps
                && (!n.backup || (local && n.host == host))
                && id < u32::MAX as usize
        };
        // Local first.
        if let Some((id, _)) = self
            .nics
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
            .find(|&(i, n)| n.host == host && usable(i, n, true))
        {
            return Some(id as u32);
        }
        // Otherwise least allocated.
        self.nics
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
            .filter(|&(i, n)| usable(i, n, false))
            .min_by_key(|&(_, n)| n.allocated_mbps)
            .map(|(i, _)| i as u32)
    }

    /// The designated backup NIC, if registered and healthy.
    pub fn backup_nic(&self) -> Option<u32> {
        self.nics
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
            .find(|(_, n)| n.backup && !n.failed)
            .map(|(i, _)| i as u32)
    }

    /// Pick an SSD for a volume: local-first, then the SSD with the most
    /// free contiguous space (§3.5's local-first policy applied to the
    /// storage dimension; pooling makes remote capacity usable, which is
    /// the Fig. 2 benefit).
    pub fn pick_ssd(&self, host: u32, blocks: u32) -> Option<u32> {
        let fits = |s: &SsdInfo| s.next_block + blocks <= s.capacity_blocks;
        if let Some((id, _)) = self
            .ssds
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .find(|(_, s)| s.host == host && fits(s))
        {
            return Some(id as u32);
        }
        self.ssds
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(_, s)| fits(s))
            .max_by_key(|(_, s)| s.capacity_blocks - s.next_block)
            .map(|(i, _)| i as u32)
    }

    /// Pick an accelerator for a host's jobs: local-first, then the
    /// lowest-numbered remote device (§3.5's local-first policy applied to
    /// the compute dimension; pooling makes remote accelerators usable at
    /// all).
    pub fn pick_accel(&self, host: u32) -> Option<u32> {
        if let Some((id, _)) = self
            .accels
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|a| (i, a)))
            .find(|(_, a)| a.host == host)
        {
            return Some(id as u32);
        }
        self.accels
            .iter()
            .position(|a| a.is_some())
            .map(|i| i as u32)
    }

    /// Instances currently served by `nic`.
    pub fn instances_on(&self, nic: u32) -> Vec<InstanceInfo> {
        self.instances
            .iter()
            .filter(|i| i.nic == nic)
            .cloned()
            .collect()
    }

    /// The pod-local capacity summary the fleet layer places against:
    /// `(nic_mbps, ssd_blocks)` of allocatable capacity. The backup NIC is
    /// excluded — it is reserved for failover (§3.3.3), not for leases —
    /// and failed devices don't count.
    pub fn capacity_summary(&self) -> (u64, u64) {
        let nic_mbps = self
            .nics
            .iter()
            .flatten()
            .filter(|n| !n.backup && !n.failed)
            .map(|n| n.capacity_mbps as u64)
            .sum();
        let ssd_blocks = self
            .ssds
            .iter()
            .flatten()
            .map(|s| s.capacity_blocks as u64)
            .sum();
        (nic_mbps, ssd_blocks)
    }
}

/// Control-plane actor: owns the state machine (behind a Raft node), the
/// channels to every frontend and backend, and the failure/telemetry
/// logic.
pub struct PodAllocator {
    /// The core the allocator service runs on.
    pub core: HostCtx,
    /// The replicated state (readable for tests and reports).
    pub state: AllocState,
    cfg: OasisConfig,
    raft: RaftNode,
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
    // oasis-check: allow(float-determinism) local trigger knob compared against telemetry; never enters replicated state
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
    // oasis-check: allow(float-determinism) constructor for the local trigger knob above
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
    /// Create the allocator with a single-replica Raft group (commands
    /// commit immediately; see [`super::replicated`] for the multi-node
    /// state-machine tests).
    pub fn new(core: HostCtx, cfg: OasisConfig) -> Self {
        let mut raft = RaftNode::new(0, vec![], RaftConfig::default(), 0xA110C);
        // A single-node group elects itself on the first tick.
        raft.tick(SimTime::from_millis(25));
        assert!(raft.is_leader());
        PodAllocator {
            core,
            state: AllocState::default(),
            cfg,
            raft,
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

    /// Propose a command through Raft and apply everything committed.
    pub fn propose(&mut self, cmd: AllocCommand) {
        let now = self.core.clock;
        // oasis-check: allow(no-panic) single-node Raft group: propose can
        // only fail on a non-leader, which cannot exist here.
        self.raft
            .propose(now, cmd.encode())
            .expect("single-node allocator group is always leader");
        self.drain_applied();
    }

    fn drain_applied(&mut self) {
        let now = self.core.clock;
        let ttl = self.cfg.telemetry_period * 3;
        for (_, bytes) in self.raft.drain_committed() {
            if let Some(cmd) = AllocCommand::decode(bytes) {
                self.state.apply(now, ttl, &cmd);
            }
        }
    }

    /// Synchronous volume placement: carve `blocks` out of an SSD
    /// (local-first, then most-free) and record it through the Raft log.
    /// Returns `(ssd, base_block)`.
    pub fn place_volume(&mut self, host: usize, ip: Ipv4Addr, blocks: u32) -> Option<(u32, u32)> {
        let ssd = self.state.pick_ssd(host as u32, blocks)?;
        let base = self.state.ssds.get(ssd as usize)?.as_ref()?.next_block;
        self.propose(AllocCommand::AssignVolume {
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
        let nic = self.state.pick_nic(host as u32, lease_mbps)?;
        self.propose(AllocCommand::Assign {
            ip,
            host: host as u32,
            nic,
            lease_mbps,
        });
        Some(nic)
    }

    fn fail_nic_internal(&mut self, pool: &mut CxlPool, nic: u32) {
        let already_failed = self
            .state
            .nics
            .get(nic as usize)
            .and_then(|n| n.as_ref())
            .map(|n| n.failed)
            .unwrap_or(true);
        if already_failed {
            return;
        }
        self.failovers += 1;
        self.propose(AllocCommand::MarkFailed { nic });
        let Some(backup) = self.state.backup_nic() else {
            return;
        };
        // Revoke leases on the failed device and reroute every affected
        // instance to the backup (§3.5 failure management).
        for inst in self.state.instances_on(nic) {
            self.propose(AllocCommand::Assign {
                ip: inst.ip,
                host: inst.host,
                nic: backup,
                lease_mbps: inst.lease_mbps,
            });
            let msg = NetMsg {
                ptr: backup as u64,
                size: 0,
                op: NetOp::Reroute,
                ip: inst.ip,
            };
            if let Some((_, tx)) = self
                .to_frontends
                .iter_mut()
                .find(|(h, _)| *h == inst.host as usize)
            {
                if tx
                    .try_send(&mut self.core, pool, &msg.encode())
                    .unwrap_or(false)
                {
                    tx.flush(&mut self.core, pool);
                    self.reroutes_sent += 1;
                }
            }
        }
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
        if self.state.failed_hosts.contains(&host) {
            self.propose(AllocCommand::MarkHostRestarted { host });
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
            .filter(|&&(h, last)| now > last + deadline && !self.state.failed_hosts.contains(&h))
            .map(|&(h, last)| (h, last))
            .collect();
        for (host, last) in dead {
            self.propose(AllocCommand::MarkHostFailed { host });
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

    /// Replay the committed prefix of the Raft log through a fresh state
    /// machine and compare with the live state on every log-derived field
    /// (times like lease expiries are volatile and excluded). This is the
    /// chaos harness's "allocator state is consistent with the log"
    /// invariant.
    pub fn consistent_with_log(&self) -> bool {
        let mut replayed = AllocState::default();
        let commit = self.raft.commit_index();
        for entry in self.raft.log_entries().iter().take(commit as usize) {
            if entry.command.is_empty() {
                continue; // election no-op barrier
            }
            if let Some(cmd) = AllocCommand::decode(&entry.command) {
                replayed.apply(SimTime::ZERO, SimDuration::ZERO, &cmd);
            }
        }
        Self::log_view(&replayed) == Self::log_view(&self.state)
    }

    /// The log-derived projection of an [`AllocState`] (excludes telemetry
    /// timestamps and lease expiries, which are allocator-local).
    // The tuple type is written out once, here, as documentation of exactly
    // which fields the log determines; a named struct would hide that.
    #[allow(clippy::type_complexity)]
    fn log_view(
        s: &AllocState,
    ) -> (
        Vec<Option<(u32, u32, u32, bool, bool)>>,
        Vec<(Ipv4Addr, u32, u32, u32)>,
        Vec<Option<(u32, u32, u32, u32)>>,
        Vec<Option<u32>>,
        Vec<(Ipv4Addr, u32, u32, u32)>,
        Vec<u32>,
    ) {
        (
            s.nics
                .iter()
                .map(|n| {
                    n.as_ref().map(|n| {
                        (
                            n.host,
                            n.capacity_mbps,
                            n.allocated_mbps,
                            n.backup,
                            n.failed,
                        )
                    })
                })
                .collect(),
            s.instances
                .iter()
                .map(|i| (i.ip, i.host, i.nic, i.lease_mbps))
                .collect(),
            s.ssds
                .iter()
                .map(|s| {
                    s.as_ref()
                        .map(|s| (s.host, s.capacity_blocks, s.next_block, s.allocated_blocks))
                })
                .collect(),
            s.accels
                .iter()
                .map(|a| a.as_ref().map(|a| a.host))
                .collect(),
            s.volumes
                .iter()
                .map(|v| (v.ip, v.ssd, v.base_block, v.blocks))
                .collect(),
            s.failed_hosts.clone(),
        )
    }

    /// Command a graceful migration of `ip` to `nic` (§3.3.4), e.g. for
    /// load balancing.
    pub fn migrate_instance(&mut self, pool: &mut CxlPool, ip: Ipv4Addr, nic: u32) {
        let Some(inst) = self.state.instances.iter().find(|i| i.ip == ip).cloned() else {
            return;
        };
        self.propose(AllocCommand::Assign {
            ip,
            host: inst.host,
            nic,
            lease_mbps: inst.lease_mbps,
        });
        let msg = NetMsg {
            ptr: nic as u64,
            size: 0,
            op: NetOp::Migrate,
            ip,
        };
        if let Some((_, tx)) = self
            .to_frontends
            .iter_mut()
            .find(|(h, _)| *h == inst.host as usize)
        {
            if tx
                .try_send(&mut self.core, pool, &msg.encode())
                .unwrap_or(false)
            {
                tx.flush(&mut self.core, pool);
            }
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
                        let ttl = self.cfg.telemetry_period * 3;
                        if let Some(Some(n)) = self.state.nics.get_mut(nic as usize) {
                            n.last_telemetry = now;
                            n.recent_load_bytes = msg.ptr;
                        }
                        // Telemetry renews the leases of instances served
                        // by this device (§3.5).
                        for inst in self.state.instances.iter_mut().filter(|i| i.nic == nic) {
                            // oasis-check: allow(unchecked-epoch-arithmetic) SimTime + SimDuration saturates by construction
                            inst.lease_expiry = now + ttl;
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
            .state
            .nics
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i as u32, n)))
            .filter(|(_, n)| !n.failed && self.core.clock > n.last_telemetry + deadline)
            .map(|(i, _)| i)
            .collect();
        for nic in stale {
            self.fail_nic_internal(pool, nic);
        }

        // §6 load balancing: migrate an instance off the hottest NIC when
        // its telemetry load dwarfs the coldest usable NIC's.
        if let Some(mut policy) = self.rebalance.take() {
            if self.core.clock >= policy.last_migration + policy.cooldown {
                let usable: Vec<(u32, u64)> = self
                    .state
                    .nics
                    .iter()
                    .enumerate()
                    .filter_map(|(i, n)| n.as_ref().map(|n| (i as u32, n)))
                    .filter(|(_, n)| !n.failed && !n.backup)
                    .map(|(i, n)| (i, n.recent_load_bytes))
                    .collect();
                if let (Some(&(hot, hot_load)), Some(&(cold, cold_load))) = (
                    usable.iter().max_by_key(|&&(_, l)| l),
                    usable.iter().min_by_key(|&&(_, l)| l),
                ) {
                    // oasis-check: allow(float-determinism) trigger compare on local telemetry; migration itself goes through the log
                    if hot != cold
                        && hot_load >= policy.min_load_bytes
                        && hot_load as f64 > policy.ratio * (cold_load.max(1)) as f64
                    {
                        // Move the instance with the largest lease first
                        // (it most likely carries the load).
                        if let Some(inst) = self
                            .state
                            .instances_on(hot)
                            .into_iter()
                            .max_by_key(|i| i.lease_mbps)
                        {
                            let cold_ok = self
                                .state
                                .nics
                                .get(cold as usize)
                                .and_then(|n| n.as_ref())
                                .map(|n| {
                                    n.allocated_mbps.saturating_add(inst.lease_mbps)
                                        <= n.capacity_mbps
                                })
                                .unwrap_or(false);
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
    /// Serializes the full lease ledger ([`AllocState`]) plus the failure
    /// detector's working set. The Raft node itself is *not* serialized:
    /// the pod runtime runs a single-replica group where every command
    /// commits immediately, so the applied state machine is authoritative
    /// and the restored node starts from an empty (already-compacted) log.
    fn snapshot_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        let s = &self.state;
        w.put_u64(s.nics.len() as u64);
        for slot in &s.nics {
            w.put_bool(slot.is_some());
            if let Some(n) = slot {
                w.put_u32(n.host);
                w.put_u32(n.capacity_mbps);
                w.put_u32(n.allocated_mbps);
                w.put_bool(n.backup);
                w.put_bool(n.failed);
                w.put_u64(n.last_telemetry.as_nanos());
                w.put_u64(n.recent_load_bytes);
            }
        }
        w.put_u64(s.instances.len() as u64);
        for i in &s.instances {
            w.put_u32(u32::from_le_bytes(i.ip.0));
            w.put_u32(i.host);
            w.put_u32(i.nic);
            w.put_u32(i.lease_mbps);
            w.put_u64(i.lease_expiry.as_nanos());
        }
        w.put_u64(s.ssds.len() as u64);
        for slot in &s.ssds {
            w.put_bool(slot.is_some());
            if let Some(d) = slot {
                w.put_u32(d.host);
                w.put_u32(d.capacity_blocks);
                w.put_u32(d.next_block);
                w.put_u32(d.allocated_blocks);
            }
        }
        w.put_u64(s.accels.len() as u64);
        for slot in &s.accels {
            w.put_bool(slot.is_some());
            if let Some(a) = slot {
                w.put_u32(a.host);
            }
        }
        w.put_u64(s.volumes.len() as u64);
        for v in &s.volumes {
            w.put_u32(u32::from_le_bytes(v.ip.0));
            w.put_u32(v.ssd);
            w.put_u32(v.base_block);
            w.put_u32(v.blocks);
        }
        w.put_u64(s.failed_hosts.len() as u64);
        for &h in &s.failed_hosts {
            w.put_u32(h);
        }
        w.put_u64(self.reroutes_sent);
        w.put_u64(self.failovers);
        w.put_u64(self.rebalance_migrations);
        w.put_u64(self.last_heartbeat.len() as u64);
        for &(host, at) in &self.last_heartbeat {
            w.put_u32(host);
            w.put_u64(at.as_nanos());
        }
        w.put_u64(self.newly_failed_hosts.len() as u64);
        for &h in &self.newly_failed_hosts {
            w.put_u32(h);
        }
        w.put_u64(self.newly_restarted_hosts.len() as u64);
        for &h in &self.newly_restarted_hosts {
            w.put_u32(h);
        }
        w.put_u64(self.host_failure_detections.len() as u64);
        for &(host, since, at) in &self.host_failure_detections {
            w.put_u32(host);
            w.put_u64(since.as_nanos());
            w.put_u64(at.as_nanos());
        }
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
        use crate::snapshot::SnapshotError;
        self.core.clock = SimTime(r.u64("alloc clock")?);
        let n = r.count("alloc nic count")?;
        let mut nics = Vec::with_capacity(n);
        for _ in 0..n {
            nics.push(if r.bool("alloc nic present")? {
                Some(NicInfo {
                    host: r.u32("alloc nic host")?,
                    capacity_mbps: r.u32("alloc nic capacity")?,
                    allocated_mbps: r.u32("alloc nic allocated")?,
                    backup: r.bool("alloc nic backup")?,
                    failed: r.bool("alloc nic failed")?,
                    last_telemetry: SimTime(r.u64("alloc nic telemetry")?),
                    recent_load_bytes: r.u64("alloc nic load")?,
                })
            } else {
                None
            });
        }
        self.state.nics = nics;
        let n = r.count("alloc instance count")?;
        let mut instances = Vec::with_capacity(n);
        for _ in 0..n {
            instances.push(InstanceInfo {
                ip: Ipv4Addr(r.u32("alloc instance ip")?.to_le_bytes()),
                host: r.u32("alloc instance host")?,
                nic: r.u32("alloc instance nic")?,
                lease_mbps: r.u32("alloc instance lease")?,
                lease_expiry: SimTime(r.u64("alloc instance expiry")?),
            });
        }
        self.state.instances = instances;
        let n = r.count("alloc ssd count")?;
        let mut ssds = Vec::with_capacity(n);
        for _ in 0..n {
            ssds.push(if r.bool("alloc ssd present")? {
                Some(SsdInfo {
                    host: r.u32("alloc ssd host")?,
                    capacity_blocks: r.u32("alloc ssd capacity")?,
                    next_block: r.u32("alloc ssd next")?,
                    allocated_blocks: r.u32("alloc ssd allocated")?,
                })
            } else {
                None
            });
        }
        self.state.ssds = ssds;
        let n = r.count("alloc accel count")?;
        let mut accels = Vec::with_capacity(n);
        for _ in 0..n {
            accels.push(if r.bool("alloc accel present")? {
                Some(AccelInfo {
                    host: r.u32("alloc accel host")?,
                })
            } else {
                None
            });
        }
        self.state.accels = accels;
        let n = r.count("alloc volume count")?;
        let mut volumes = Vec::with_capacity(n);
        for _ in 0..n {
            volumes.push(VolumeInfo {
                ip: Ipv4Addr(r.u32("alloc volume ip")?.to_le_bytes()),
                ssd: r.u32("alloc volume ssd")?,
                base_block: r.u32("alloc volume base")?,
                blocks: r.u32("alloc volume blocks")?,
            });
        }
        self.state.volumes = volumes;
        let n = r.count("alloc failed-host count")?;
        let mut failed_hosts = Vec::with_capacity(n);
        for _ in 0..n {
            failed_hosts.push(r.u32("alloc failed host")?);
        }
        self.state.failed_hosts = failed_hosts;
        self.reroutes_sent = r.u64("alloc reroutes")?;
        self.failovers = r.u64("alloc failovers")?;
        self.rebalance_migrations = r.u64("alloc rebalance migrations")?;
        let n = r.count("alloc heartbeat count")?;
        let mut last_heartbeat = Vec::with_capacity(n);
        for _ in 0..n {
            let host = r.u32("alloc heartbeat host")?;
            let at = SimTime(r.u64("alloc heartbeat time")?);
            last_heartbeat.push((host, at));
        }
        self.last_heartbeat = last_heartbeat;
        let n = r.count("alloc newly-failed count")?;
        let mut newly_failed = Vec::with_capacity(n);
        for _ in 0..n {
            newly_failed.push(r.u32("alloc newly-failed host")?);
        }
        self.newly_failed_hosts = newly_failed;
        let n = r.count("alloc newly-restarted count")?;
        let mut newly_restarted = Vec::with_capacity(n);
        for _ in 0..n {
            newly_restarted.push(r.u32("alloc newly-restarted host")?);
        }
        self.newly_restarted_hosts = newly_restarted;
        let n = r.count("alloc detection count")?;
        let mut detections = Vec::with_capacity(n);
        for _ in 0..n {
            let host = r.u32("alloc detection host")?;
            let since = SimTime(r.u64("alloc detection since")?);
            let at = SimTime(r.u64("alloc detection at")?);
            detections.push((host, since, at));
        }
        self.host_failure_detections = detections;
        let has_policy = r.bool("alloc rebalance present")?;
        if has_policy != self.rebalance.is_some() {
            return Err(SnapshotError::Corrupt("alloc rebalance presence"));
        }
        if let Some(p) = &mut self.rebalance {
            p.last_migration = SimTime(r.u64("alloc rebalance cursor")?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_cxl::pool::PortId;

    fn state_with_nics() -> AllocState {
        let mut s = AllocState::default();
        let ttl = SimDuration::from_millis(300);
        for (nic, host, backup) in [(0u32, 0u32, false), (1, 1, false), (2, 2, true)] {
            s.apply(
                SimTime::ZERO,
                ttl,
                &AllocCommand::RegisterNic {
                    nic,
                    host,
                    capacity_mbps: 100_000,
                    backup,
                },
            );
        }
        s
    }

    #[test]
    fn local_first_placement() {
        let s = state_with_nics();
        assert_eq!(s.pick_nic(0, 10_000), Some(0));
        assert_eq!(s.pick_nic(1, 10_000), Some(1));
    }

    #[test]
    fn remote_least_loaded_when_no_local() {
        let mut s = state_with_nics();
        // Host 3 has no NIC; nic 0 is loaded, nic 1 free.
        s.apply(
            SimTime::ZERO,
            SimDuration::from_millis(300),
            &AllocCommand::Assign {
                ip: Ipv4Addr::instance(1),
                host: 0,
                nic: 0,
                lease_mbps: 50_000,
            },
        );
        assert_eq!(s.pick_nic(3, 10_000), Some(1));
    }

    #[test]
    fn backup_excluded_from_remote_placement() {
        let mut s = state_with_nics();
        // Fill both non-backup NICs.
        for (i, nic) in [(1u32, 0u32), (2, 1)] {
            s.apply(
                SimTime::ZERO,
                SimDuration::from_millis(300),
                &AllocCommand::Assign {
                    ip: Ipv4Addr::instance(i),
                    host: 0,
                    nic,
                    lease_mbps: 100_000,
                },
            );
        }
        // Remote host cannot land on the backup.
        assert_eq!(s.pick_nic(3, 10_000), None);
        // But the backup's own host can use it node-locally (§3.3.3).
        assert_eq!(s.pick_nic(2, 10_000), Some(2));
    }

    #[test]
    fn capacity_respected() {
        let mut s = state_with_nics();
        s.apply(
            SimTime::ZERO,
            SimDuration::from_millis(300),
            &AllocCommand::Assign {
                ip: Ipv4Addr::instance(1),
                host: 0,
                nic: 0,
                lease_mbps: 95_000,
            },
        );
        // nic0 can't take 10G more; falls to nic1 even for host 0.
        assert_eq!(s.pick_nic(0, 10_000), Some(1));
    }

    #[test]
    fn failed_nic_skipped_and_leases_revoked() {
        let mut s = state_with_nics();
        let ttl = SimDuration::from_millis(300);
        s.apply(
            SimTime::ZERO,
            ttl,
            &AllocCommand::Assign {
                ip: Ipv4Addr::instance(1),
                host: 0,
                nic: 0,
                lease_mbps: 10_000,
            },
        );
        s.apply(SimTime::ZERO, ttl, &AllocCommand::MarkFailed { nic: 0 });
        assert_ne!(s.pick_nic(0, 10_000), Some(0));
        // Reassign revokes the old lease.
        s.apply(
            SimTime::ZERO,
            ttl,
            &AllocCommand::Assign {
                ip: Ipv4Addr::instance(1),
                host: 0,
                nic: 1,
                lease_mbps: 10_000,
            },
        );
        assert_eq!(s.nics[0].as_ref().unwrap().allocated_mbps, 0);
        assert_eq!(s.nics[1].as_ref().unwrap().allocated_mbps, 10_000);
        assert_eq!(s.instances_on(1).len(), 1);
    }

    #[test]
    fn allocator_places_via_raft_log() {
        let core = HostCtx::new(PortId(0), 0);
        let mut alloc = PodAllocator::new(core, OasisConfig::default());
        alloc.propose(AllocCommand::RegisterNic {
            nic: 0,
            host: 0,
            capacity_mbps: 100_000,
            backup: false,
        });
        let nic = alloc.place_instance(0, Ipv4Addr::instance(1), 5_000);
        assert_eq!(nic, Some(0));
        assert_eq!(alloc.state.instances.len(), 1);
        assert_eq!(alloc.state.nics[0].as_ref().unwrap().allocated_mbps, 5_000);
    }
}
